"""Alternating projections between an affine slice and the PSD-unfolding cone.

Given an elasticity tensor A, the affine slice T_A collects the weakly
symmetric tensors whose pair sums match A, t[ijkl] + t[jikl] = 2 a[ijkl];
every member induces the same bi-quadratic form as A. The cone S collects
tensors with PSD unfolding. A point in the intersection is a matrix-level
positivity certificate for the form, so alternating projections between the
two sets either certify nonnegativity of the form or expose a gap.

Plain alternating projections converge only linearly, and the more slowly
the smaller the margin. run_pocs starts each sweep from an Anderson
extrapolation of the last ones instead, and keeps it only if it does not
raise the gap, the safeguard of Zhang, O'Donoghue and Boyd (SIAM J. Optim.
2020). A sweep is still the two projections, and every test below reads a
kept sweep's own pair (cur, b), which holds wherever the sweep started.

A gap is only reported once it is proved. For disjoint sets the gap vector
of the iterates converges to the displacement vector between them (Bauschke
and Borwein 1993), which separates them: when the gap stalls, Z = cur - b,
made exactly symmetric under i <-> j, and shifted by a proved upper bound
delta of its largest unfolding eigenvalue, gives Z' = Z - delta E with
<Z', s> <= 0 on S and <Z', t> = <Z', A> on T_A. If <Z', A> clears its
rounding bound, no member of T_A is S-PSD, and every one lies at least
<Z', A> / ||Z'|| from S. That rules out this certificate, not M-PSD itself:
the Choi-Lam form is nonnegative, yet its slice misses S.

The strict variant shifts A by -eps * tensor_e() first: the form of A
is positive definite iff the shifted form is still nonnegative for some
eps > 0. A shifted run need not converge to prove that. Every slice iterate
t has the form of A - eps E, so the form of A is at least
eps + lambda_min(unfold t) up to rounding; once the gap falls below eps,
and again when it reaches the convergence threshold, a proved lower bound
of that eigenvalue (Rump, Acta Numerica 2010) is tried, and a positive
bound ends the run MarginProved with it. The bound is
proved for the iterate at hand, not the best one over the slice.

The input tensor was validated when its Pair4 or Elast4 was built, so
run_pocs trusts its class: an Elast4's entries are its slice's reference as
they are, and only a general Pair4 is averaged over its pair swaps. The
unfolded reference is checked once more (spectral._require_symmetric), and
the sweeps trust it. The limits are validated again as report Pair4s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidEpsilon, NonFiniteEntries, eigensolver_errors
from .io import decimate, tensor_to_doc
from .spectral import (
    ROUNDOFF,
    SUBNORMAL,
    _psd_clamp,
    _require_symmetric,
    eigenvalue_bounds,
    psd_project,
)
from .tensors import (
    Elast4,
    Pair4,
    fold_array,
    pow2_rescale,
    symmetrize_pairs,
    tensor_e,
    unfold,
    unfold_array,
)

__all__ = [
    "VERDICT_FOUND",
    "VERDICT_GAP",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_MARGIN",
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
VERDICT_MARGIN = "MarginProved"

# A sweep that lowers the gap by less than this share of it counts as
# stalled. Each stalled sweep tests the separator, and a proved one ends the
# run GapPositive; this many stalled sweeps in a row without a proof end it
# Inconclusive.
TOL_STALL = 1e-6
STALL_WINDOW = 50

# The sweep budget of every run, and the relative convergence tolerance: its
# default and its upper bound. A looser tolerance would pass a gap of that
# size as an intersection; at 0.3 it certifies Choi-Lam gamma = 0.5, whose
# form the oracle refutes.
MAX_SWEEPS = 20000
TOL_CONVERGE = 1e-10

# The kept sweeps that the Anderson extrapolation of run_pocs fits.
MEMORY = 3

# run_pocs iterates on the 81 entries of the unfolding, row by row. In that
# order, _SWAP sends the entry of t[ijkl] to that of t[jikl] (a transpose
# inside each 3x3 block), _TENSOR_ORDER lists the entries in the (3, 3, 3, 3)
# array's order, and _DIAG picks the diagonal of the unfolding.
_UNFOLD_INDEX = fold_array(np.arange(81).reshape(9, 9))
_SWAP = unfold_array(_UNFOLD_INDEX.transpose(1, 0, 2, 3)).reshape(81)
_TENSOR_ORDER = _UNFOLD_INDEX.reshape(81)
_DIAG = np.arange(0, 81, 10)
# The entries of tensor_e(), which a shifted run subtracts eps times.
_E = tensor_e().a


@dataclass(frozen=True)
class PocsOptions:
    """Iteration controls; every run has the budget of MAX_SWEEPS sweeps.

    tol_converge is relative: the run stops successfully once the gap falls
    to tol_converge * ||A||, with A the (shifted) reference, so the test
    scales with the tensor at every size. It may only tighten TOL_CONVERGE:
    a value above it, or one not positive, raises ValueError. A positive
    epsilon_shift subtracts that multiple of the identity-form tensor before
    iterating (the strict-definiteness probe); it must be finite, since a
    NaN slips past every range check.
    """

    tol_converge: float = TOL_CONVERGE
    epsilon_shift: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.tol_converge <= TOL_CONVERGE:
            raise ValueError(f"tol_converge must be in (0, {TOL_CONVERGE:g}]")
        if not (math.isfinite(self.epsilon_shift) and self.epsilon_shift >= 0.0):
            raise ValueError("epsilon_shift must be finite and nonnegative")


@dataclass(frozen=True)
class PocsReport:
    """Outcome of one alternating-projection run.

    limit_A lies in the affine slice, limit_B in the PSD cone; final_gap is
    the Frobenius distance between them after the last sweep. iterations
    and gap_trace count the kept sweeps, not the eigensolves (run_pocs);
    the trace is nonincreasing, since an extrapolated sweep is kept only if
    it does not raise the gap and a plain one lowers it up to rounding.
    separation_margin, set on GapPositive only, is a proved lower bound on
    the distance between the affine slice and the cone. form_lower_bound,
    set on MarginProved only, is a proved lower bound on the form of the
    unshifted input over unit x and y, read off limit_A; it is not the
    largest such bound the slice holds.
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
    separation_margin: float | None = None
    form_lower_bound: float | None = None


@dataclass(frozen=True)
class CertifyResult:
    """Certification attempt outcome. certified is True on IntersectionFound,
    and for certify_mpd also on MarginProved, whose report carries the
    proved form_lower_bound. IntersectionFound is approximate, not a
    proof: the run stopped with its gap at most tol_converge * ||A||
    (1e-10 ||A|| by default), and no bound on the form is checked. MarginProved
    and a GapPositive separation_margin are proved. `certified` False is NOT
    a refutation: a proved gap only shows that no S-PSD representative
    exists, so this matrix-level route cannot certify the form."""

    certified: bool
    report: PocsReport


def project_T(a_ref: Elast4, b: Pair4) -> Pair4:
    """Orthogonal projection of b onto the affine slice T_{a_ref}.

    Entrywise: keep the reference value where the pair sum pins the entry
    (i == j or k == l), else move to a[ijkl] + (b[ijkl] - b[jikl]) / 2.
    The single vectorized expression covers both cases because the
    correction vanishes identically on pinned entries.
    """
    if not isinstance(a_ref, Elast4):
        raise TypeError("reference must be an Elast4")
    return Pair4(a_ref.a + 0.5 * (b.a - b.a.transpose(1, 0, 2, 3)))


def project_S(b: Pair4) -> Pair4:
    """Orthogonal projection onto the PSD-unfolding cone (eigenvalue clamp)."""
    return Pair4(fold_array(psd_project(unfold(b))))


def _separation_margin(a_ref: np.ndarray, z: np.ndarray) -> float | None:
    """Proved distance between T_a_ref and S from the stalled gap z, or None.

    Both arguments are in unfolding order. z = cur - b after a sweep is made
    exactly symmetric under i <-> j; with delta >= 0 a proved upper bound of
    the largest eigenvalue of its unfolding, Z' = Z - delta E separates the
    two sets once <Z', a_ref> exceeds the rounding bound of its dot product.
    (delta stays at 0 when the unfolding of Z is negative definite: Z itself
    separates then, and a negative delta would cancel it where Z is close
    to a multiple of -E.) run_pocs passes a_ref at unit scale, and z above
    its convergence threshold, so nothing here overflows or underflows.
    """
    zs = 0.5 * (z + z[_SWAP])
    delta = max(float(eigenvalue_bounds(zs.reshape(9, 9))[1][-1]), 0.0)
    # <Z', a> = <Z, a> - delta tr(unfold a), as one dot product of 90 terms.
    x = np.concatenate((zs, np.full(9, -delta)))
    y = np.concatenate((a_ref, a_ref[_DIAG]))
    value = float(x @ y)
    # |fl(x.y) - x.y| <= gamma_90 |x|.|y|, plus half a subnormal per product
    # and |x_i| times half a subnormal per entry of a_ref that the rescale of
    # run_pocs may have rounded; twice that also covers the rounding of the
    # bound itself.
    ax = np.abs(x)
    rounding = (
        2.0 * (x.size + 2) * ROUNDOFF * float(ax @ np.abs(y))
        + (x.size + float(ax.sum())) * SUBNORMAL
    )
    if not value > rounding:
        return None
    sep = zs.copy()
    sep[_DIAG] -= delta
    # ||Z'|| (its underflow included) and the quotient carry under 100 units
    # of rounding; the factor 1 - 2**-40 takes off far more than that.
    norm = math.sqrt(sep @ sep + sep.size * SUBNORMAL)
    return (value - rounding) / norm * (1.0 - 2.0**-40)


def _mpd_margin(a9: np.ndarray, cur: np.ndarray, eps: float) -> float | None:
    """Proved lower bound on the form of the unshifted input over unit x and
    y, from the slice iterate cur, or None unless that bound is positive.

    Both arrays are in unfolding order: a9 is the computed shift
    sym(a) - eps E, cur a computed member of its slice. For unit x, y and
    z = vec(x y^T), |z| = 1, and every t in the slice of sym(a) - eps E has
    form(a) = eps + z^T unfold(t) z. One such t is cur - D / 2 + X, with
    D = cur + cur^(i<->j) - 2 a9 the slice defect of cur and
    X = sym(a) - eps E - a9 the rounding of the shift, so by Weyl
        form(a) >= eps + lambda_lo(unfold cur) - ||unfold(D / 2 - X)||_2,
    and rho bounds that norm by the largest row sum of |D| / 2 + |X|.
    |d - D| <= 3u (|cur| + |cur^(i<->j)| + |a9|) for the computed d: two
    roundings, and a sum whose result is subnormal is exact. The first stage
    of sym(a) rounds each pair sum of the weakly symmetric input once,
    relative to its result; the second averages equal values; the shift
    rounds the diagonal once. So |X| <= 2u |a9| (plus 2u eps on the
    diagonal), and a subnormal per halving and per entry that the rescale of
    run_pocs rounds. The factor `up` covers the rounding of rho itself, and
    the floor every underflow on the way.
    """
    lam = float(eigenvalue_bounds(cur.reshape(9, 9))[0][0])
    swapped = cur[_SWAP]
    d = cur + swapped - 2.0 * a9
    err = np.abs(d) + ROUNDOFF * (3.0 * (np.abs(cur) + np.abs(swapped)) + 8.0 * np.abs(a9))
    up = 1.0 + 4.0 * 19 * ROUNDOFF
    rows = float(err.reshape(9, 9).sum(axis=1).max())
    rho = up * (0.5 * rows + 2.0 * ROUNDOFF * eps) + 64.0 * SUBNORMAL
    # fsum rounds once, relative to the result; 1 - 2**-40 takes that off.
    margin = math.fsum((eps, lam, -rho)) * (1.0 - 2.0**-40)
    return margin if margin > 0.0 else None


def _anderson_start(a9: np.ndarray, kept_cur: list, kept_res: list) -> np.ndarray | None:
    """The start that Anderson (type-II) extrapolation of the kept sweeps
    proposes for the next one (Walker and Ni, SIAM J. Numer. Anal. 2011), or
    None where the fit is degenerate.

    kept_cur holds the slice iterates of the last kept sweeps, kept_res
    their residuals cur - start. The start is cur - dG gamma, with gamma the
    least-squares fit of the latest residual by the differences dF of the
    kept residuals and dG the differences of the kept iterates. It is made
    bit-symmetric and put back on the slice by the slice step, so the sweep
    from it hands _psd_clamp a bit-symmetric matrix, as a plain sweep does.
    A kept iterate lies within ~50 of the origin at unit scale (its cone
    point b is PSD with trace tr(a9) - tr(cur - b)), so below the cap on
    |gamma| no operand overflows; a fit above it is dropped.
    """
    d_res = np.diff(kept_res, axis=0)
    gamma = np.linalg.lstsq(d_res.T, kept_res[-1], rcond=None)[0]
    if not np.abs(gamma).max() < 2.0**512:
        return None
    y = (kept_cur[-1] - gamma @ np.diff(kept_cur, axis=0)).reshape(9, 9)
    y = (0.5 * (y + y.T)).reshape(81)
    return a9 + 0.5 * (y - y[_SWAP])


def run_pocs(a: Pair4, opts: PocsOptions | None = None) -> PocsReport:
    """Alternate projections starting from A (shifted if requested), each
    sweep started from an Anderson extrapolation of the last ones.

    A sweep projects its start onto the PSD cone, giving b, then back onto
    the affine slice, giving cur. Every affine iterate keeps the bi-quadratic
    form of the (shifted) input, so IntersectionFound, a gap of at most
    tol_converge times the norm of the (shifted) reference, is an
    approximate certificate that the form is nonnegative. GapPositive is a
    proved separation (see the module docstring); a stall that proves
    nothing ends Inconclusive. A shifted run (epsilon_shift > 0) tries
    _mpd_margin once its gap falls below next_try, which starts at
    epsilon_shift and halves after each failed try, and once more when the
    gap reaches the threshold; a positive bound ends it MarginProved, and
    IntersectionFound is left for a threshold gap whose margin fails. An
    unshifted run never tries.

    Where a sweep starts: the first two from the last slice iterate, and
    then each from _anderson_start on the last MEMORY + 1 kept sweeps. A
    sweep from an extrapolated start is kept only if its gap is at most the
    current one; otherwise the history is cleared and the plain sweep from
    cur is taken instead. While the gap stalls, every sweep starts from cur,
    so the separation test sees plain alternating projections, whose gap
    converges to the displacement vector. Every exit is tested on a kept
    sweep's own (cur, b), whatever point it started from, so each
    certificate is checked as it would be on a plain sweep. iterations and
    gap_trace count kept sweeps, and the trace is nonincreasing;
    MAX_SWEEPS bounds the eigensolves, rejected sweeps included.

    The sweeps run on the 81 entries of the unfolding and fold back at the
    end; the gap is summed in the tensor's own order, so every number is
    the one project_S and project_T give from the sweep's start. The slice
    is that of the form of a, symmetrize_pairs(a.a): the affine step
    projects onto it only from a pair-symmetric reference, and a Pair4
    input need not be one. The sweeps run on the pow2_rescale of the
    (shifted) reference, and every reported number is scaled back exactly;
    one that does not fit a float raises NonFiniteEntries.

    Validation happens once, on the unfolded reference a9
    (spectral._require_symmetric); each sweep then calls psd_project's clamp
    kernel, _psd_clamp, alone. Its argument is a9 or a9 + (y - y^(i<->j)) / 2
    with y bit-symmetric (b is symmetrized exactly, an extrapolation
    explicitly, and the i <-> j swap commutes with the transpose), and it is
    finite at unit scale, so psd_project's check would pass on every sweep.
    For the same reason the loop enters the eigensolver's error state
    (errors.eigensolver_errors) once, not once per sweep: no operand in it
    overflows or is NaN, so the state's `invalid` can come only from a solve
    that does not converge, EigensolverFailure.
    """
    if opts is None:
        opts = PocsOptions()
    a_ref = a.a if isinstance(a, Elast4) else symmetrize_pairs(a.a)
    if opts.epsilon_shift > 0.0:
        a_ref = a_ref - opts.epsilon_shift * _E
    a_ref, e = pow2_rescale(a_ref)
    eps = math.ldexp(opts.epsilon_shift, -e)
    ref_norm = float(np.linalg.norm(a_ref))
    threshold = opts.tol_converge * ref_norm

    a9 = _require_symmetric(unfold_array(a_ref)).reshape(81)

    def sweep(start):
        b = _psd_clamp(start.reshape(9, 9)).reshape(81)
        cur = a9 + 0.5 * (b - b[_SWAP])
        diff = cur - b
        in_order = diff[_TENSOR_ORDER]
        return cur, b, diff, math.sqrt(in_order.dot(in_order))

    cur = b = a9
    gap = math.inf
    gaps: list[float] = []
    # The slice iterates and residuals (cur - start) of the last kept sweeps.
    kept_cur: list[np.ndarray] = []
    kept_res: list[np.ndarray] = []
    verdict = VERDICT_INCONCLUSIVE
    margin = bound = None
    next_try = eps
    stall_run = 0
    iterations = solves = 0
    with eigensolver_errors():
        while solves < MAX_SWEEPS:
            start = None
            if stall_run == 0 and len(kept_res) > 1:
                start = _anderson_start(a9, kept_cur, kept_res)
            if start is not None:
                swept = sweep(start)
                solves += 1
                if swept[3] > gap:
                    start = None
                    kept_cur.clear()
                    kept_res.clear()
                    if solves == MAX_SWEEPS:
                        break
            if start is None:
                start = cur
                swept = sweep(start)
                solves += 1
            prev_gap = gap
            cur, b, diff, gap = swept
            iterations += 1
            gaps.append(gap)
            kept_cur.append(cur)
            kept_res.append(cur - start)
            if len(kept_res) > MEMORY + 1:
                del kept_cur[0], kept_res[0]
            if gap <= threshold:
                bound = _mpd_margin(a9, cur, eps) if eps > 0.0 else None
                verdict = VERDICT_FOUND if bound is None else VERDICT_MARGIN
                break
            if gap < next_try:
                bound = _mpd_margin(a9, cur, eps)
                if bound is not None:
                    verdict = VERDICT_MARGIN
                    break
                next_try *= 0.5
            if (prev_gap - gap) < TOL_STALL * prev_gap:
                stall_run += 1
                margin = _separation_margin(a9, diff)
                if margin is not None:
                    verdict = VERDICT_GAP
                    break
                if stall_run >= STALL_WINDOW:
                    break
            else:
                stall_run = 0

    # Both limits, the four numbers and the gaps, scaled back in one call.
    scalars = [ref_norm, threshold, margin or 0.0, bound or 0.0]
    with np.errstate(over="ignore"):
        back = np.ldexp(np.concatenate((cur, b, scalars, gaps)), e)
    if not np.isfinite(back).all():
        raise NonFiniteEntries(f"a POCS report value overflows when scaled back by 2**{e}")
    ref_norm, threshold, margin_back, bound_back = back[162:166].tolist()
    gap_trace = back[166:]
    return PocsReport(
        verdict=verdict,
        iterations=iterations,
        final_gap=float(gap_trace[-1]),
        limit_A=Pair4(fold_array(back[:81].reshape(9, 9))),
        limit_B=Pair4(fold_array(back[81:162].reshape(9, 9))),
        gap_trace=gap_trace,
        reference_norm=ref_norm,
        converge_threshold=threshold,
        epsilon_shift=opts.epsilon_shift,
        separation_margin=None if margin is None else margin_back,
        form_lower_bound=None if bound is None else bound_back,
    )


def certify_mpsd(a: Elast4, opts: PocsOptions | None = None) -> CertifyResult:
    """Certify that the bi-quadratic form of a is nonnegative (M-PSD).

    certified=True is IntersectionFound, an approximate certificate: the
    alternating projections came within tol_converge * ||A|| (at most
    1e-10 ||A||) of an S-PSD member of the slice, which is not a proof that
    one exists. certified=False refutes nothing."""
    opts = replace(opts if opts is not None else PocsOptions(), epsilon_shift=0.0)
    report = run_pocs(a, opts)
    return CertifyResult(certified=report.verdict == VERDICT_FOUND, report=report)


def certify_mpd(a: Elast4, opts: PocsOptions | None = None) -> CertifyResult:
    """Certify strict positivity (M-PD) via one run shifted by
    opts.epsilon_shift, which must be positive (default 1e-6). The run
    certifies on IntersectionFound and on MarginProved."""
    if opts is None:
        opts = PocsOptions(epsilon_shift=1e-6)
    if not opts.epsilon_shift > 0.0:
        raise InvalidEpsilon("certify_mpd needs epsilon_shift > 0")
    report = run_pocs(a, opts)
    return CertifyResult(
        certified=report.verdict in (VERDICT_FOUND, VERDICT_MARGIN), report=report
    )


def pocs_report_to_doc(report: PocsReport) -> dict:
    """JSON-ready document; the gap trace is decimated to at most 1000 points.
    separation_margin appears on GapPositive reports only, form_lower_bound
    on MarginProved reports only."""
    doc = {
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
    if report.separation_margin is not None:
        doc["separation_margin"] = report.separation_margin
    if report.form_lower_bound is not None:
        doc["form_lower_bound"] = report.form_lower_bound
    return doc
