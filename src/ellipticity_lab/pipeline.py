"""The check pipeline: sufficient conditions in turn, then the oracle cross-check.

Stages, each recorded as one JSON-ready dict: spsd-eigen (the unfolding is
PSD or PD), pocs-mpd (alternating projections on the tensor shifted by the
default epsilon of certify_mpd, skipped once M-PD is certified; a run that
proves its margin records the form_lower_bound), pocs-mpsd (on the tensor
itself, skipped once M-PSD is certified; either POCS stage is also skipped
when its report does not fit the float range, as from max|a| ~8e307, where
its Frobenius reference norm overflows), case (the structured-case checker
of a given decomposition; skipped without one) and oracle (the brute-force
minimizer, always run). A certificate together with a refutation is a
Conflict: a bug or a violated tolerance, reported here and not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cases, oracle, pocs
from .errors import NonFiniteEntries
from .spectral import min_eigenvalue
from .tensors import Elast4, pow2_rescale, unfold

__all__ = ["CheckReport", "check"]


@dataclass(frozen=True)
class CheckReport:
    """Stage records, the stages that certified or refuted, and the verdict:
    one of MPD, MPSD, NotMPSD, Undecided or Conflict."""

    stages: tuple
    certified_mpd_by: str | None
    certified_mpsd_by: str | None
    refuted_by: str | None
    verdict: str


def check(t: Elast4, dec: cases.StructuredDecomposition | None = None) -> CheckReport:
    """Run the five stages on t.

    The oracle scans oracle.GRID_N lattice points per sphere, and the case
    stage runs the case checker of dec on its cases.GRID_N-point grid; it
    is skipped when dec is None. A given dec must build t: otherwise
    DecompositionMismatch is raised before any stage runs. A smallest
    eigenvalue of the unfolding that does not fit a float raises
    NonFiniteEntries.
    """
    if dec is not None:
        cases.require_decomposition_of(t, dec)
    stages: list[dict] = []
    mpd_by: str | None = None
    mpsd_by: str | None = None
    refuted_by: str | None = None

    # Solved and compared at unit scale, where no spectrum or norm overflows;
    # the record is scaled back exactly.
    ms, e = pow2_rescale(unfold(t))
    lam = min_eigenvalue(ms)
    cut = pocs.TOL_CONVERGE * float(np.linalg.norm(ms))  # POCS's S-PSD cut
    spd, spsd = lam > cut, lam >= -cut
    try:
        lam_min = math.ldexp(lam, e)
    except OverflowError:
        raise NonFiniteEntries(
            f"the smallest eigenvalue of the unfolding overflows when scaled back by 2**{e}"
        ) from None
    stages.append(
        {"stage": "spsd-eigen", "min_eigenvalue": lam_min, "spsd": spsd, "spd": spd}
    )
    if spd:
        mpd_by = mpsd_by = "spsd-eigen"
    elif spsd:
        mpsd_by = "spsd-eigen"

    if mpd_by is None:
        record, certified = _pocs_stage("pocs-mpd", pocs.certify_mpd, t)
        stages.append(record)
        if certified:
            mpd_by = "pocs-mpd"
            mpsd_by = mpsd_by or "pocs-mpd"
    else:
        stages.append({"stage": "pocs-mpd", "skipped": "already certified"})

    if mpsd_by is None:
        record, certified = _pocs_stage("pocs-mpsd", pocs.certify_mpsd, t)
        stages.append(record)
        if certified:
            mpsd_by = "pocs-mpsd"
    else:
        stages.append({"stage": "pocs-mpsd", "skipped": "already certified"})

    if dec is None:
        stages.append({"stage": "case", "skipped": "no decomposition given"})
    else:
        case_rep = cases.check_case(dec)
        stage = {"stage": "case", "r": dec.r, "q": dec.q}
        if case_rep is None:
            stage["skipped"] = "no matching shape"
        else:
            stage.update(cases.case_report_to_doc(case_rep))
            tag = f"case{case_rep.case_id}"
            if case_rep.verdict == cases.CASE_MPD:
                mpd_by = mpd_by or tag
            if case_rep.verdict in (cases.CASE_MPD, cases.CASE_MPSD):
                mpsd_by = mpsd_by or tag
            elif case_rep.verdict == cases.CASE_NOT_MPSD:
                refuted_by = refuted_by or tag
        stages.append(stage)

    ov = oracle.oracle_verdict(t)
    stages.append({"stage": "oracle", **oracle.oracle_verdict_to_doc(ov)})
    if ov.verdict == oracle.ORACLE_NOT_MPSD:
        refuted_by = refuted_by or "oracle"

    if refuted_by is not None:
        verdict = "NotMPSD" if mpsd_by is None else "Conflict"
    elif mpd_by is not None:
        verdict = "MPD"
    elif mpsd_by is not None:
        verdict = "MPSD"
    else:
        verdict = "Undecided"
    return CheckReport(tuple(stages), mpd_by, mpsd_by, refuted_by, verdict)


def _pocs_stage(stage: str, certify, t: Elast4) -> tuple[dict, bool]:
    """The record of the POCS stage certify(t): verdict, work and outcome, the
    epsilon of a shifted run and the form_lower_bound of a MarginProved one;
    and whether it certified. A report beyond the float range skips it."""
    try:
        res = certify(t)
    except NonFiniteEntries:
        return {"stage": stage, "skipped": "report overflows the float range"}, False
    rep = res.report
    record = {"stage": stage}
    if rep.epsilon_shift > 0.0:
        record["epsilon"] = rep.epsilon_shift
    record.update(
        verdict=rep.verdict,
        iterations=rep.iterations,
        final_gap=rep.final_gap,
        certified=res.certified,
    )
    if rep.form_lower_bound is not None:
        record["form_lower_bound"] = rep.form_lower_bound
    return record, res.certified
