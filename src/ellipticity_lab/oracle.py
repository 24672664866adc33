"""Brute-force estimation of min over unit spheres of the bi-quadratic form.

This path is deliberately independent of the certification machinery: it
evaluates the form on a deterministic lattice of direction pairs and then
polishes the best candidate of each basin by Newton steps on y, with x
always the exact minimiser over the unit sphere (the eigenvector of the
smallest eigenvalue of A y^2). A negative refined value is a
machine-checkable refutation witness; positive values are only evidence, so
the strict verdict stays hedged (MPD_likely).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Not called here; elbench/layers.py wraps oracle.sym_eig, so the name stays.
from .spectral import sym_eig  # noqa: F401
from .spheres import fibonacci_sphere
from .tensors import Pair4, biquadratic, contract_xx, contract_yy, pow2_rescale

__all__ = [
    "ORACLE_NOT_MPSD",
    "ORACLE_MPD_LIKELY",
    "ORACLE_BOUNDARY",
    "OracleReport",
    "OracleVerdict",
    "grid_min_biquadratic",
    "grid_top_candidates",
    "refine_min",
    "oracle_verdict",
    "oracle_report_to_doc",
    "oracle_verdict_to_doc",
]

ORACLE_NOT_MPSD = "NotMPSD"
ORACLE_MPD_LIKELY = "MPD_likely"
ORACLE_BOUNDARY = "MPSD_boundary"
# Fewest lattice points per sphere that grid_top_candidates accepts.
MIN_GRID_N = 100

@dataclass(frozen=True)
class OracleReport:
    """A located form value: min_value == form(argmin_x, argmin_y), re-evaluated."""

    min_value: float
    argmin_x: np.ndarray
    argmin_y: np.ndarray
    grid_n: int
    refined: bool
    objective_trace: tuple = ()


@dataclass(frozen=True)
class OracleVerdict:
    verdict: str
    report: OracleReport
    scale: float
    tol: float
    witness_value: float | None = None


def _chunk_scan(t_mats: np.ndarray, xs: np.ndarray, base: int, keep: int):
    """Evaluate x^T T_m x for one y-chunk; return the chunk's keep best pairs.

    Candidates are (value, flat_index) with flat_index = y_index * n + x_index,
    ordered by value and then flat index, so merging by lexicographic order
    is independent of the chunking. Only the rows (y-directions) whose
    minimum is at most the keep-th smallest row minimum can hold one of the
    keep best pairs: any other row's values all have keep strictly smaller
    values ahead of them. Every value of those rows up to the keep-th one is
    sorted, so values tied at the cut are resolved by flat index too.
    NaN values sort last, as in np.sort.
    """
    vals = np.einsum("xi,mij,xj->mx", xs, t_mats, xs, optimize=True)
    m, n = vals.shape
    k = min(keep, vals.size)
    # fmin skips NaN; ~(a > cut) rather than a <= cut keeps every entry
    # when the cut itself is NaN.
    row_min = np.fmin.reduce(vals, axis=1)
    j = min(k, m) - 1
    row_cut = np.partition(row_min, j)[j]
    rows = np.flatnonzero(~(row_min > row_cut))
    sub = vals[rows]
    cut = np.partition(sub.reshape(-1), k - 1)[k - 1]
    r, x = np.nonzero(~(sub > cut))
    vs = sub[r, x]
    flat = rows[r] * n + x
    order = np.lexsort((flat, vs))[:k]
    return [(float(vs[i]), base + int(flat[i])) for i in order]


def grid_top_candidates(t: Pair4, n: int = 2000, keep: int = 10):
    """The keep best (value, x, y) pairs over the n x n lattice, best first.

    Deterministic: pairs are ordered by value, and ties (including ties at
    the keep-th place) are broken by the lattice index y_index * n + x_index.
    The scan runs over chunks of 256 y-directions, which bounds the
    (chunk, n) value array; a row-minimum prefilter keeps the sort to the
    few rows that can hold the best pairs.
    """
    if n < MIN_GRID_N:
        raise ValueError(f"grid needs n >= {MIN_GRID_N} points per sphere")
    # Scan the exact power-of-two rescale: the lattice values scale by the
    # same factor, so their order and ties are unchanged, and a tensor near
    # the float limit no longer overflows to inf/NaN. Candidates are
    # re-evaluated on the original tensor.
    a, _ = pow2_rescale(t.a)
    pts = fibonacci_sphere(n)
    chunk = 256
    candidates = []
    for start in range(0, n, chunk):
        ys = pts[start : start + chunk]
        t_mats = np.einsum("ijkl,mk,ml->mij", a, ys, ys)
        t_mats = 0.5 * (t_mats + t_mats.transpose(0, 2, 1))
        candidates += _chunk_scan(t_mats, pts, start * n, keep)
    merged = sorted(candidates, key=lambda c: (c[0], c[1]))[:keep]
    out = []
    for _, flat in merged:
        x = pts[flat % n]
        y = pts[flat // n]
        out.append((biquadratic(t, x, y), x.copy(), y.copy()))
    return out


def grid_min_biquadratic(t: Pair4, n: int = 2000) -> OracleReport:
    """Minimum of the form over the n x n Fibonacci lattice of (x, y) pairs."""
    best = grid_top_candidates(t, n=n, keep=1)[0]
    value, x, y = best
    return OracleReport(
        min_value=value, argmin_x=x, argmin_y=y, grid_n=n, refined=False
    )


def _gauge(v: np.ndarray) -> np.ndarray:
    """v signed as sym_eig signs eigenvectors: largest-magnitude entry
    positive, the first such entry on ties. The form is even in x and in y,
    so this changes no value, and results do not depend on LAPACK's sign."""
    return -v if v[np.argmax(np.abs(v))] < 0.0 else v


# Below this gap between the two smallest eigenvalues of A y^2 the minimum
# over x is treated as not simple, and refinement takes an alternating step.
_SIMPLE_GAP = 1e-8
# Below this tangent gradient norm y is stationary to rounding, and the
# Newton direction, a quotient of rounding errors, is not tried.
_STATIONARY = 1e-13
# Armijo backtracking: the share of the predicted decrease a step must
# achieve, and how often the step is halved before the alternating step.
_ARMIJO = 1e-4
_BACKTRACKS = 10
# Refinement stops once a kept step gains less than this, in units of the
# tensor's scale, or after this many steps.
_REFINE_TOL = 1e-14
_REFINE_STEPS = 200
# Lattice candidates that oracle_verdict considers for refinement.
_TOP_K = 10


def _newton_step(scaled, b9, y, lam, vecs):
    """Riemannian Newton step for g(y) = lambda_min(A y^2) on the unit sphere.

    x = vecs[:, 0] is the exact inner minimiser. With B[i, k] = A(e_i, x,
    e_k, y) the Euclidean gradient of g is 2 B^T x = 2 A(x, x, y, .), and
    its Hessian is 2 A(x, x, ., .) + sum_j 2 h_j h_j^T / (lam_0 - lam_j) with
    h_j = 2 B^T v_j, the second-order perturbation of the simple eigenvalue
    lam_0. On the sphere both are taken on the tangent plane, the Hessian
    shifted by -y^T grad = -2 lam_0. Returns the tangent step and the slope
    of g along it, or None where lam_0 is not simple, y is stationary to
    rounding or the tangent Hessian is not positive definite.
    """
    l0, l1, l2 = lam.tolist()
    if l1 - l0 <= _SIMPLE_GAP:
        return None
    x = vecs[:, 0]
    b = (b9 @ np.multiply.outer(x, y).ravel()).reshape(3, 3)
    grad = 2.0 * (x @ b)
    h = 2.0 * (vecs[:, 1:].T @ b)
    hess = 2.0 * contract_xx(scaled, x)
    hess += (2.0 / (l0 - l1)) * np.multiply.outer(h[0], h[0])
    hess += (2.0 / (l0 - l2)) * np.multiply.outer(h[1], h[1])
    # Orthonormal tangent basis (u, w) from the axis least aligned with y.
    k = int(np.argmin(np.abs(y)))
    u = -y[k] * y
    u[k] += 1.0
    u /= np.linalg.norm(u)
    q = np.stack((u, np.cross(y, u)))
    g0, g1 = (q @ grad).tolist()
    if math.hypot(g0, g1) <= _STATIONARY:
        return None
    (p, c), (_, r) = (q @ hess @ q.T).tolist()
    p -= 2.0 * l0
    r -= 2.0 * l0
    det = p * r - c * c
    if p <= 0.0 or det <= 0.0:
        return None
    # det times the Newton step; a tangent step longer than 1 only turns y
    # further towards its own direction, so the step is capped there.
    n0 = c * g1 - r * g0
    n1 = c * g0 - p * g1
    norm = max(det, math.hypot(n0, n1))
    s0, s1 = n0 / norm, n1 / norm
    return s0 * q[0] + s1 * q[1], s0 * g0 + s1 * g1


def refine_min(t: Pair4, start_x, start_y) -> OracleReport:
    """Newton steps on y with the exact inner minimum over x.

    min over unit x of the form is lambda_min(A y^2), so the form is
    minimised over y alone, with x always the eigenvector of its smallest
    eigenvalue. A Riemannian Newton step (see _newton_step) is backtracked
    until the Armijo condition holds for that eigenvalue; where lambda_min
    is not simple, or the Newton step fails to lower the re-evaluated form,
    one exact alternating block step is taken instead: y, then x, each the
    minimal eigenvector with the other frozen. A step is kept only if it
    lowers the form, so the trace is nonincreasing by construction;
    iteration stops when no step does, or a step gains less than _REFINE_TOL
    times the tensor's scale. Both vectors of a kept step are gauged. The
    iteration runs on the power-of-two rescale of the tensor, so it takes
    the same path for every 2**k multiple; the trace is scaled back exactly
    and min_value is the form re-evaluated on t.
    """
    a, e = pow2_rescale(t.a)
    scaled = Pair4(a)
    # B[i, k] = A(e_i, x, e_k, y) is b9 @ (x outer y), from the part of the
    # tensor symmetric in (i, j), which alone enters the form.
    s = 0.5 * (a + a.transpose(1, 0, 2, 3))
    b9 = s.transpose(0, 2, 1, 3).reshape(9, 9)

    def exact_x(y):
        lam, vecs = np.linalg.eigh(contract_yy(scaled, y))
        return lam, vecs, _gauge(vecs[:, 0])

    x = np.asarray(start_x, dtype=float)
    y = np.asarray(start_y, dtype=float)
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    val = biquadratic(scaled, x, y)
    trace = [val]
    lam, vecs, cand_x = exact_x(y)
    cand = biquadratic(scaled, cand_x, y)
    if cand < val:
        x, val = cand_x, cand
        trace.append(val)
    for _ in range(_REFINE_STEPS):
        kept = None
        newton = _newton_step(scaled, b9, y, lam, vecs)
        if newton is not None:
            eta, slope = newton
            alpha = 1.0
            for _ in range(_BACKTRACKS):
                cand_y = y + alpha * eta
                cand_y = _gauge(cand_y / np.linalg.norm(cand_y))
                cand_lam, cand_vecs, cand_x = exact_x(cand_y)
                if cand_lam[0] <= lam[0] + _ARMIJO * alpha * slope:
                    kept = (cand_x, cand_y, cand_lam, cand_vecs)
                    break
                alpha *= 0.5
        if kept is not None:
            cand = biquadratic(scaled, kept[0], kept[1])
            if not cand < val:
                kept = None
        if kept is None:
            cand_y = _gauge(np.linalg.eigh(contract_xx(scaled, x))[1][:, 0])
            cand_lam, cand_vecs, cand_x = exact_x(cand_y)
            cand = biquadratic(scaled, cand_x, cand_y)
            if not cand < val:
                break
            kept = (cand_x, cand_y, cand_lam, cand_vecs)
        x, y, lam, vecs = kept
        gain = val - cand
        val = cand
        trace.append(val)
        if gain < _REFINE_TOL:
            break
    return OracleReport(
        min_value=biquadratic(t, x, y),
        argmin_x=x,
        argmin_y=y,
        grid_n=0,
        refined=True,
        objective_trace=tuple(float(np.ldexp(v, e)) for v in trace),
    )


def _distinct_basins(candidates, n: int) -> list:
    """The candidates whose pair does not lie, up to the signs of x and y,
    within four lattice spacings of a pair kept before it. The spacing of
    n points on the unit sphere is sqrt(4 pi / n), 0.08 rad at n = 2000."""
    cos_r = np.cos(4.0 * np.sqrt(4.0 * np.pi / n))
    kept = []
    for _, x, y in candidates:
        if not any(
            abs(x @ kx) >= cos_r and abs(y @ ky) >= cos_r for kx, ky in kept
        ):
            kept.append((x, y))
    return kept


def oracle_verdict(t: Pair4, n: int = 2000, tol: float = 1e-8) -> OracleVerdict:
    """Grid scan plus refinement from the _TOP_K best candidates, one per basin.

    A candidate within a few lattice spacings of a better one starts in the
    same basin and is not refined. NotMPSD carries a witness: the reported
    value is re-evaluated directly at the argmin pair, so the refutation can
    be checked independently of all oracle internals. The strict verdict is
    hedged because a finite search cannot prove positivity.
    """
    candidates = grid_top_candidates(t, n=n, keep=_TOP_K)
    best: OracleReport | None = None
    for x, y in _distinct_basins(candidates, n):
        rep = refine_min(t, x, y)
        if best is None or rep.min_value < best.min_value:
            best = rep
    assert best is not None
    best = replace(best, grid_n=n)
    scale = float(np.max(np.abs(t.a)))
    cut = tol * max(scale, 1e-300)
    witness = float(biquadratic(t, best.argmin_x, best.argmin_y))
    if witness < -cut:
        verdict = ORACLE_NOT_MPSD
    elif witness > cut:
        verdict = ORACLE_MPD_LIKELY
    else:
        verdict = ORACLE_BOUNDARY
    return OracleVerdict(
        verdict=verdict,
        report=best,
        scale=scale,
        tol=tol,
        witness_value=witness if verdict == ORACLE_NOT_MPSD else None,
    )


def oracle_report_to_doc(report: OracleReport) -> dict:
    """Full-precision JSON document (witnesses must survive the round-trip)."""
    return {
        "min_value": report.min_value,
        "argmin_x": [float(v) for v in report.argmin_x],
        "argmin_y": [float(v) for v in report.argmin_y],
        "grid_n": report.grid_n,
        "refined": report.refined,
        "objective_trace": [float(v) for v in report.objective_trace],
    }


def oracle_verdict_to_doc(v: OracleVerdict) -> dict:
    return {
        "verdict": v.verdict,
        "scale": v.scale,
        "tol": v.tol,
        "witness_value": v.witness_value,
        "report": oracle_report_to_doc(v.report),
    }
