"""Alternating projections between an affine slice and the PSD-unfolding cone.

Given an elasticity tensor A, the affine slice T_A collects the weakly
symmetric tensors whose pair sums match A, t[ijkl] + t[jikl] = 2 a[ijkl];
every member induces the same bi-quadratic form as A. The cone S collects
tensors with PSD unfolding. A point in the intersection is a matrix-level
positivity certificate for the form, so alternating projections between the
two sets either certify nonnegativity of the form or expose a persistent gap.

The strict variant shifts A by -eps * tensor_e() first: the form of A
is positive definite iff the shifted form is still nonnegative for some
eps > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidEpsilon
from .io import decimate, tensor_to_doc
from .spectral import psd_project
from .tensors import Elast4, Pair4, fold_array, tensor_e, unfold, unfold_array

__all__ = [
    "VERDICT_FOUND",
    "VERDICT_GAP",
    "VERDICT_INCONCLUSIVE",
    "PocsOptions",
    "PocsReport",
    "CertifyResult",
    "project_T",
    "project_S",
    "run_pocs",
    "certify_mpsd",
    "certify_mpd",
    "pocs_report_to_doc",
]

VERDICT_FOUND = "IntersectionFound"
VERDICT_GAP = "GapPositive"
VERDICT_INCONCLUSIVE = "Inconclusive"

# A sweep that lowers the gap by less than this share of it counts as
# stalled; this many stalled sweeps in a row above the convergence threshold
# yield GapPositive.
TOL_STALL = 1e-6
STALL_WINDOW = 50


@dataclass(frozen=True)
class PocsOptions:
    """Iteration controls.

    tol_converge is relative: the run stops successfully once the gap falls
    below tol_converge * max(1, ||A||). epsilon_shift > 0 subtracts that
    multiple of the identity-form tensor before iterating (the
    strict-definiteness probe).
    """

    max_iter: int = 20000
    tol_converge: float = 1e-10
    epsilon_shift: float = 0.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol_converge <= 0.0:
            raise ValueError("tol_converge must be positive")
        if self.epsilon_shift < 0.0:
            raise ValueError("epsilon_shift must be nonnegative")


@dataclass(frozen=True)
class PocsReport:
    """Outcome of one alternating-projection run.

    limit_A lies in the affine slice, limit_B in the PSD cone; final_gap is
    the Frobenius distance between them after the last sweep. gap_trace holds
    the full per-sweep gap history (nonincreasing up to rounding).
    """

    verdict: str
    iterations: int
    final_gap: float
    limit_A: Pair4
    limit_B: Pair4
    gap_trace: np.ndarray
    reference_norm: float
    converge_threshold: float
    epsilon_shift: float = 0.0


@dataclass(frozen=True)
class CertifyResult:
    """Certification attempt outcome. `certified` False is NOT a refutation:
    the alternating projections prove membership when they converge, but a
    positive gap only shows this particular matrix-level route failed."""

    certified: bool
    report: PocsReport


def project_T(a_ref: Elast4, b: Pair4) -> Pair4:
    """Orthogonal projection of b onto the affine slice T_{a_ref}.

    Entrywise: keep the reference value where the pair sum pins the entry
    (i == j or k == l), else move to a[ijkl] + (b[ijkl] - b[jikl]) / 2.
    The single vectorized expression in _slice_project covers both cases
    because the correction vanishes identically on pinned entries.
    """
    if not isinstance(a_ref, Elast4):
        raise TypeError("reference must be an Elast4")
    return Pair4(_slice_project(a_ref.a, b.a))


def project_S(b: Pair4) -> Pair4:
    """Orthogonal projection onto the PSD-unfolding cone (eigenvalue clamp)."""
    return Pair4(fold_array(psd_project(unfold(b))))


def _slice_project(a_ref: np.ndarray, b: np.ndarray) -> np.ndarray:
    """project_T on arrays, as run_pocs's sweep calls it."""
    return a_ref + 0.5 * (b - b.transpose(1, 0, 2, 3))


def run_pocs(a: Elast4, opts: PocsOptions | None = None) -> PocsReport:
    """Alternate projections starting from A (shifted if requested).

    Each sweep projects onto the PSD cone, then back onto the affine slice;
    iterate t holds both point sequences. Every affine iterate keeps the
    bi-quadratic form of the (shifted) input, so IntersectionFound certifies
    the form is nonnegative.
    """
    if opts is None:
        opts = PocsOptions()
    a_ref = a.a.copy()
    if opts.epsilon_shift > 0.0:
        a_ref = a_ref - opts.epsilon_shift * tensor_e().a
    ref_norm = float(np.linalg.norm(a_ref))
    threshold = opts.tol_converge * max(1.0, ref_norm)

    cur = a_ref.copy()
    gaps: list[float] = []
    verdict = VERDICT_INCONCLUSIVE
    stall_run = 0
    prev_gap = None
    b_arr = cur
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        b_arr = fold_array(psd_project(unfold_array(cur)))
        cur = _slice_project(a_ref, b_arr)
        gap = float(np.linalg.norm(cur - b_arr))
        gaps.append(gap)
        if gap <= threshold:
            verdict = VERDICT_FOUND
            break
        if prev_gap is not None and prev_gap > 0.0:
            if (prev_gap - gap) < TOL_STALL * prev_gap:
                stall_run += 1
            else:
                stall_run = 0
            if stall_run >= STALL_WINDOW:
                verdict = VERDICT_GAP
                break
        prev_gap = gap

    return PocsReport(
        verdict=verdict,
        iterations=iterations,
        final_gap=gaps[-1],
        limit_A=Pair4(cur),
        limit_B=Pair4(b_arr),
        gap_trace=np.asarray(gaps),
        reference_norm=ref_norm,
        converge_threshold=threshold,
        epsilon_shift=opts.epsilon_shift,
    )


def certify_mpsd(a: Elast4, opts: PocsOptions | None = None) -> CertifyResult:
    """Certify that the bi-quadratic form of a is nonnegative (M-PSD).

    Sufficient only: certified=True is a proof, certified=False is not."""
    opts = replace(opts if opts is not None else PocsOptions(), epsilon_shift=0.0)
    report = run_pocs(a, opts)
    return CertifyResult(certified=report.verdict == VERDICT_FOUND, report=report)


def certify_mpd(a: Elast4, opts: PocsOptions | None = None) -> CertifyResult:
    """Certify strict positivity (M-PD) via one run shifted by
    opts.epsilon_shift, which must be positive (default 1e-6)."""
    if opts is None:
        opts = PocsOptions(epsilon_shift=1e-6)
    if not opts.epsilon_shift > 0.0:
        raise InvalidEpsilon("certify_mpd needs epsilon_shift > 0")
    report = run_pocs(a, opts)
    return CertifyResult(certified=report.verdict == VERDICT_FOUND, report=report)


def pocs_report_to_doc(report: PocsReport) -> dict:
    """JSON-ready document; the gap trace is decimated to at most 1000 points."""
    return {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "final_gap": report.final_gap,
        "reference_norm": report.reference_norm,
        "converge_threshold": report.converge_threshold,
        "epsilon_shift": report.epsilon_shift,
        "gap_trace": decimate(report.gap_trace, 1000),
        "gap_trace_length": int(report.gap_trace.size),
        "limit_A": tensor_to_doc(report.limit_A),
        "limit_B": tensor_to_doc(report.limit_B),
    }
