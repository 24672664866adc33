"""The check pipeline: sufficient conditions in turn, then the oracle cross-check.

Stages, each recorded as one JSON-ready dict: spsd-eigen (the unfolding is
PSD or PD), pocs-mpd (alternating projections on the epsilon-shifted
tensor, skipped once M-PD is certified), pocs-mpsd (on the tensor itself,
skipped once M-PSD is certified), case (structured-case analysis) and
oracle (the brute-force minimizer, always run). A certificate together with
a refutation is a Conflict: a bug or a violated tolerance, reported here and
not raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cases, oracle, pocs
from .spectral import min_eigenvalue
from .tensors import Elast4, unfold

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


def check(
    t: Elast4,
    dec: cases.StructuredDecomposition | None = None,
    *,
    tol: float = 1e-8,
    grid_n: int = 2000,
    epsilon: float = 1e-6,
    max_iter: int = 20000,
) -> CheckReport:
    """Run the five stages on t; dec=None uses the spectral decomposition."""
    stages: list[dict] = []
    mpd_by: str | None = None
    mpsd_by: str | None = None
    refuted_by: str | None = None

    m = unfold(t)
    scale = max(1.0, float(np.linalg.norm(m)))
    lam_min = min_eigenvalue(m)
    spd = lam_min > 1e-10 * scale
    spsd = lam_min >= -1e-10 * scale
    stages.append(
        {"stage": "spsd-eigen", "min_eigenvalue": lam_min, "spsd": spsd, "spd": spd}
    )
    if spd:
        mpd_by = mpsd_by = "spsd-eigen"
    elif spsd:
        mpsd_by = "spsd-eigen"

    if mpd_by is None:
        res = pocs.certify_mpd(
            t, pocs.PocsOptions(max_iter=max_iter, epsilon_shift=epsilon)
        )
        stages.append(
            {"stage": "pocs-mpd", "epsilon": res.report.epsilon_shift, **_pocs_record(res)}
        )
        if res.certified:
            mpd_by = "pocs-mpd"
            mpsd_by = mpsd_by or "pocs-mpd"
    else:
        stages.append({"stage": "pocs-mpd", "skipped": "already certified"})

    if mpsd_by is None:
        res = pocs.certify_mpsd(t, pocs.PocsOptions(max_iter=max_iter))
        stages.append({"stage": "pocs-mpsd", **_pocs_record(res)})
        if res.certified:
            mpsd_by = "pocs-mpsd"
    else:
        stages.append({"stage": "pocs-mpsd", "skipped": "already certified"})

    if dec is None:
        dec = cases.spectral_decomposition(t)
    case_rep = cases.check_case(dec, "auto", tol, max(grid_n, 20000))
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

    ov = oracle.oracle_verdict(t, n=grid_n, tol=tol)
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


def _pocs_record(res: pocs.CertifyResult) -> dict:
    return {
        "verdict": res.report.verdict,
        "iterations": res.report.iterations,
        "final_gap": res.report.final_gap,
        "certified": res.certified,
    }
