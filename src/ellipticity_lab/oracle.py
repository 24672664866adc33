"""Brute-force estimation of min over unit spheres of the bi-quadratic form.

This path is deliberately independent of the certification machinery: it
evaluates the form on a deterministic lattice of direction pairs and then
polishes the best candidate of each basin by Newton steps on y, with x
always the exact minimiser over the unit sphere (the eigenvector of the
smallest eigenvalue of A y^2). A negative refined value is a
machine-checkable refutation witness; positive values are only evidence, so
the strict verdict stays hedged (MPD_likely).

The scan builds the matrices A y^2 of all lattice rows with one matrix
product over the cached outer products y y^T. The refinement runs on Python
floats, with numpy only for each 3x3 eigensolve and the form values that
decide a step; at the multiple zeros of boundary forms, where Newton steps
converge only linearly, it tries a step scaled by the multiplicity that
consecutive steps show (see refine_min).

A tensor is validated when its Pair4 is built, and the oracle trusts it.
What the scan and the refinement derive from its entries (the power-of-two
rescale and the pair rows of the refinement) is computed once per tensor and
kept for the next call on the same entries, so the refinements of one
oracle_verdict share it; only the last tensor is kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteEntries, eigensolver_errors

# sym_eig is not called here; elbench/layers.py wraps oracle.sym_eig,
# oracle.contract_xx and oracle.contract_yy, so the names stay.
from .spectral import _eigh, sym_eig  # noqa: F401
from .spheres import cross, dot, fibonacci_sphere, unit
from .tensors import Pair4, biquadratic, pow2_rescale
from .tensors import contract_xx, contract_yy  # noqa: F401

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
# Lattice points per sphere that grid_top_candidates accepts (a scan block: 26 MB at most).
MIN_GRID_N = 100
MAX_GRID_N = 100_000
# Lattice points per sphere of oracle_verdict, as check and the oracle command run it.
GRID_N = 2000
# Witnesses within TOL * max|a| of zero give the boundary verdict.
TOL = 1e-8

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
    witness_value: float | None = None


# Rows per block of the lattice scan, never fewer: a lone row would take
# numpy's matrix-vector path, whose bits can differ from t9[rows] @ xx.T.
_SCAN_BLOCK = 64
# A row is skipped only if its matrix less (cut + _BOUND_SLACK) I is proved
# positive definite; see _min_pivot and grid_top_candidates.
_BOUND_SLACK = 1e-12


@functools.lru_cache(maxsize=4)
def _lattice(n: int):
    """The upper half of the n-point sphere lattice, its first (n + 1) // 2
    points, all with z >= 0, and their (m, 9) outer products x x^T, cached
    per n and read-only. The form is even in x and in y, so the half keeps
    the point density of the n-point lattice at a quarter of the pairs."""
    pts = fibonacci_sphere(n)[: (n + 1) // 2]
    xx = (pts[:, :, None] * pts[:, None, :]).reshape(len(pts), 9)
    pts.setflags(write=False)
    xx.setflags(write=False)
    return pts, xx


def _lambda_min_estimate(t9: np.ndarray) -> np.ndarray:
    """lambda_min of each symmetric 3x3 row matrix (flattened to 9 entries)
    by the closed trigonometric formula. Its rounding is not bounded, so it
    only orders the scan and never decides that a row is skipped."""
    a00, a01, a02, _, a11, a12, _, _, a22 = t9.T
    # The mean diagonal, exact where the diagonal is constant, so that
    # multiples of I (all rows of E) keep the order of their values.
    q = a00 + ((a11 - a00) + (a22 - a00)) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = (b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0
    det = (
        b00 * (b11 * b22 - a12 * a12)
        - a01 * (a01 * b22 - a12 * a02)
        + a02 * (a01 * a12 - b11 * a02)
    )
    p = np.sqrt(p2)
    den = 2.0 * p2 * p
    r = np.clip(np.divide(det, den, out=np.zeros_like(det), where=den > 0.0), -1.0, 1.0)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)


def _min_pivot(t9: np.ndarray, level) -> np.ndarray:
    """The smallest pivot of the LDL^T factorisation without pivoting of
    T - level I, for each symmetric 3x3 row matrix T flattened to 9 entries
    (level a float, or one per row).

    If all three computed pivots are positive, T - level I is positive
    definite up to the backward error of the factorisation (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 10.1):
    the computed factors satisfy L D L^T = M + dM with M the shifted matrix,
    |dM| <= gamma_4 |L| D |L^T| <= gamma_4 / (1 - gamma_4) sqrt(m_ii m_jj)
    entrywise, so ||dM||_2 <= 4.5e-16 trace(M). On the rescaled tensor
    |T| <= 3 + 4e-15 entrywise (see grid_top_candidates) and |level| <= 9 +
    1e-12, and that is below 2.5e-14;
    the rounding of the shifted diagonal adds 2e-15 and underflow less than
    1e-300. So a row with all pivots positive has lambda_min(T) > level -
    1e-13. No pivot exceeds its diagonal entry, and the inf or NaN that a
    tiny or zero pivot leads to fails the test, never passes it.
    """
    m = t9.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d0 = m[0] - level
        l1 = m[1] / d0
        l2 = m[2] / d0
        d1 = (m[4] - level) - l1 * m[1]
        e = m[5] - l2 * m[1]
        d2 = (m[8] - level) - l2 * m[2] - (e / d1) * e
    return np.minimum(np.minimum(d0, d1), d2)


def _scan_block(t9: np.ndarray, xx: np.ndarray, rows: np.ndarray, keep: int, cut: float):
    """The keep best (value, y_index * m + x_index) pairs at most cut in the
    lattice rows `rows`, by value and then index. Only rows whose minimum is
    at most the keep-th smallest row minimum can hold one: any other row
    has keep strictly smaller values ahead of each of its values. All their
    values up to the keep-th one are sorted, so ties there go by index too.
    """
    vals = t9[rows] @ xx.T
    row_min = vals.min(axis=1)
    j = min(keep, len(rows)) - 1
    near = np.flatnonzero(row_min <= min(cut, np.partition(row_min, j)[j]))
    if near.size == 0:
        return []
    sub = vals[near]
    k = min(keep, sub.size)
    r, x = np.nonzero(sub <= np.partition(sub.reshape(-1), k - 1)[k - 1])
    vs = sub[r, x]
    flat = rows[near[r]] * len(xx) + x
    order = np.lexsort((flat, vs))[:k]
    return [(float(vs[i]), int(flat[i])) for i in order]


def grid_top_candidates(t: Pair4, n: int = GRID_N, keep: int = 10):
    """The keep best (value, x, y) pairs over the m x m upper-half lattice,
    best first.

    x and y range over the m = (n + 1) // 2 points of the n-point sphere
    lattice with z >= 0 (see _lattice). The form is even in x and in y, so
    every pair of the full lattice has the value of a pair with both
    vectors in the closed upper hemisphere, and the half lattice covers
    that domain at the density of the full one.

    Deterministic: pairs are ordered by value, and ties (including ties at
    the keep-th place) are broken by the lattice index y_index * m + x_index.
    Rows are taken in ascending order of an estimate of lambda_min(T_m),
    T_m = A y_m^2, the minimum over unit x at y_m. After the first block of
    _SCAN_BLOCK rows, with cut the keep-th best value so far, a row is
    skipped if T_m less (cut + _BOUND_SLACK) I passes the LDL^T test of
    _min_pivot: then lambda_min(T_m) > cut + 9e-13. On the rescaled tensor
    the computed lattice values of the row differ from the exact form at
    the lattice points by less than 1e-13, so every one of them is strictly
    above the cut and cannot enter the result even by a tie, while ties at
    the cut among the evaluated values are still broken by lattice index.
    The estimate only sets the order and never decides a skip. The rows
    that fail the test are evaluated in blocks of at least _SCAN_BLOCK
    rows.

    The rounding bound, with u = 2**-53 and gamma_9 = 9u / (1 - 9u) the
    bound of a 9-term product in any summation order: max|a| < 1 on the
    rescaled tensor, and the row matrices come from one product of the
    outer products y y^T with the 9x9 a[ij, kl]. The entries y_k y_l sum to
    at most 3 in magnitude, so |T_m| <= 3 entrywise, and a computed entry
    is off by at most 3u (the rounded y_k y_l) + 3 gamma_9 (the product) +
    3u (the symmetrisation) < 4e-15. A lattice value is a second 9-term
    product, with x x^T, whose entries also sum to at most 3: off by at
    most 3 * 4e-15 + 9u + 9 gamma_9 < 2.5e-14 from the exact form.
    """
    if not MIN_GRID_N <= n <= MAX_GRID_N:
        raise ValueError(f"grid needs {MIN_GRID_N} <= n <= {MAX_GRID_N} points per sphere")
    # Scan the exact power-of-two rescale: the lattice values scale by the
    # same factor, so their order and ties are unchanged, and a tensor near
    # the float limit no longer overflows to inf/NaN. Candidates are
    # re-evaluated on the original tensor.
    a = _prepared(t).unit.a
    pts, xx = _lattice(n)
    m = len(pts)
    # T_m[i, j] = sum_kl a[ijkl] y_k y_l: row 3 i + j of a.reshape(9, 9)
    # against y y^T, for every lattice row in one product.
    t_mats = (xx @ a.reshape(9, 9).T).reshape(m, 3, 3)
    t9 = (0.5 * (t_mats + t_mats.transpose(0, 2, 1))).reshape(m, 9)
    order = np.argsort(_lambda_min_estimate(t9))
    # A remainder shorter than a block joins the block before it.
    head = _SCAN_BLOCK if m >= 2 * _SCAN_BLOCK else m
    best = _scan_block(t9, xx, order[:head], keep, math.inf)
    rest = order[head:]
    if len(best) == keep:
        proved = (_min_pivot(t9, best[-1][0] + _BOUND_SLACK) > 0.0)[rest]
        failed = np.count_nonzero(~proved)
        # The rows that fail go first, in estimate order; fewer than a block
        # are padded with skipped rows, whose values cannot enter the result.
        rest = np.concatenate((rest[~proved], rest[proved]))
        rest = rest[: max(failed, _SCAN_BLOCK) if failed else 0]
    start = 0
    while start < rest.size:
        stop = start + _SCAN_BLOCK if rest.size - start >= 2 * _SCAN_BLOCK else rest.size
        cut = best[-1][0] if len(best) == keep else math.inf
        best = sorted(best + _scan_block(t9, xx, rest[start:stop], keep, cut))[:keep]
        start = stop
    pairs = [(pts[flat % m].copy(), pts[flat // m].copy()) for _, flat in best]
    return [(biquadratic(t, x, y), x, y) for x, y in pairs]


def grid_min_biquadratic(t: Pair4, n: int = GRID_N) -> OracleReport:
    """Minimum of the form over the Fibonacci lattice pairs of
    grid_top_candidates (the upper half of the n-point lattice)."""
    best = grid_top_candidates(t, n=n, keep=1)[0]
    value, x, y = best
    return OracleReport(
        min_value=value, argmin_x=x, argmin_y=y, grid_n=n, refined=False
    )


def _gauge(v):
    """v (three floats) signed as sym_eig signs eigenvectors: largest-magnitude
    entry positive, the first such entry on ties. The form is even in x and
    in y, so this changes no value, and results do not depend on LAPACK's
    sign."""
    return [-c for c in v] if max(v, key=abs) < 0.0 else v


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
_TOP_K = 5

# The pairs (i, j), i <= j, of a symmetric 3x3 matrix, diagonal first, as
# the flat indices 3 i + j and 3 j + i. The refinement holds a symmetric
# matrix as its six pair entries, Python floats throughout.
_PAIRS = np.array([0, 4, 8, 1, 2, 5])
_PAIRS_T = np.array([0, 4, 8, 3, 6, 7])


def _pair_rows(a9: np.ndarray) -> tuple:
    """The 6x6 rows C, as tuples of Python floats, of the map from a symmetric Z to
    the matrix sum_kl a9[3 i + j, 3 k + l] Z_kl, both as pair entries:
    C[p][q] = a9[p, q] + a9[p, q^T], halved (exactly) on the diagonal. With
    a9 = a.reshape(9, 9) this is Z -> A(., ., Z), so A y^2 at Z = y y^T, and
    with its transpose Z -> A(Z, ., .). The rows at p and p^T agree bit for
    bit, as a Pair4 has a[ijkl] = a[jilk], so the result is symmetric."""
    rows = a9[_PAIRS]
    c = rows[:, _PAIRS] + rows[:, _PAIRS_T]
    c[:, :3] *= 0.5
    return tuple(map(tuple, c.tolist()))


@dataclass(frozen=True)
class _Prepared:
    """What the scan and the refinement derive from a tensor's entries: the
    exponent e of its pow2_rescale, the rescaled tensor, and the pair rows
    of Z -> A(., ., Z) and Z -> A(Z, ., .) at that scale."""

    e: int
    unit: Pair4
    rows_m: tuple
    rows_n: tuple


def _prepared(t: Pair4) -> _Prepared:
    """The preparation of t, computed once for a run of calls on the same
    entries (the scan and every refinement of one oracle_verdict)."""
    return _prepare(t.a.tobytes())


@functools.lru_cache(maxsize=1)
def _prepare(entries: bytes) -> _Prepared:
    a, e = pow2_rescale(np.frombuffer(entries).reshape(3, 3, 3, 3))
    a9 = a.reshape(9, 9)
    return _Prepared(e, Pair4(a), _pair_rows(a9), _pair_rows(a9.T))


def _contract(rows, z):
    """The pair entries of sum_q rows[p][q] z_q."""
    z0, z1, z2, z3, z4, z5 = z
    return [
        c0 * z0 + c1 * z1 + c2 * z2 + c3 * z3 + c4 * z4 + c5 * z5
        for c0, c1, c2, c3, c4, c5 in rows
    ]


def _outer_pairs(u, w):
    """The pair entries of sym(u w^T)."""
    u0, u1, u2 = u
    w0, w1, w2 = w
    return (
        u0 * w0,
        u1 * w1,
        u2 * w2,
        0.5 * (u0 * w1 + u1 * w0),
        0.5 * (u0 * w2 + u2 * w0),
        0.5 * (u1 * w2 + u2 * w1),
    )


def _mat_vec(m, v):
    """The symmetric matrix with pair entries m times v."""
    m00, m11, m22, m01, m02, m12 = m
    v0, v1, v2 = v
    return (
        m00 * v0 + m01 * v1 + m02 * v2,
        m01 * v0 + m11 * v1 + m12 * v2,
        m02 * v0 + m12 * v1 + m22 * v2,
    )


def _eigh_pairs(m):
    """The eigenvalues of the symmetric matrix with pair entries m, ascending,
    and its eigenvectors in the same order, as Python floats.

    The solve goes through spectral._eigh, which takes the nested tuple as
    it is: numpy.linalg.eigh's bits without the wrapper's per-call cost.
    The caller holds errors.eigensolver_errors(), which turns a solve that
    does not converge into EigensolverFailure."""
    m00, m11, m22, m01, m02, m12 = m
    lam, vecs = _eigh(((m00, m01, m02), (m01, m11, m12), (m02, m12, m22)))
    return lam.tolist(), vecs.T.tolist()


def _newton_step(rows_n, y, lam, vecs):
    """Riemannian Newton step for g(y) = lambda_min(A y^2) on the unit sphere.

    x = vecs[0] is the exact inner minimiser. With N(x) = A(x, x, ., .) and
    K(u, w) = A(sym(u w^T), ., .), built from the pair rows rows_n, the
    Euclidean gradient of g is 2 N(x) y, and its Hessian is 2 N(x) + sum_j
    2 h_j h_j^T / (lam_0 - lam_j) with h_j = 2 K(v_j, x) y, the
    second-order perturbation of the simple eigenvalue lam_0. On the sphere
    both are taken on the tangent plane, the Hessian shifted by -y^T grad =
    -2 lam_0. Returns the tangent step, the slope of g along it and its
    length, or None where lam_0 is not simple, y is stationary to rounding
    or the tangent Hessian is not positive definite.
    """
    l0, l1, l2 = lam
    if l1 - l0 <= _SIMPLE_GAP:
        return None
    x, v1, v2 = vecs
    n_x = _contract(rows_n, _outer_pairs(x, x))
    grad = _mat_vec(n_x, y)
    h1 = _mat_vec(_contract(rows_n, _outer_pairs(v1, x)), y)
    h2 = _mat_vec(_contract(rows_n, _outer_pairs(v2, x)), y)
    # Orthonormal tangent basis (u, w), u from the axis least aligned with y.
    y0, y1, y2 = y
    k = min(range(3), key=lambda i: abs(y[i]))
    u = [-y[k] * y0, -y[k] * y1, -y[k] * y2]
    u[k] += 1.0
    u0, u1, u2 = u = unit(*u)
    w = cross(y, u)
    # The factors 2 of the gradient, of h_j h_j^T (as 4) and of N(x).
    g0, g1 = 2.0 * dot(u, grad), 2.0 * dot(w, grad)
    if math.hypot(g0, g1) <= _STATIONARY:
        return None
    nu, nw = _mat_vec(n_x, u), _mat_vec(n_x, w)
    c1, c2 = 8.0 / (l0 - l1), 8.0 / (l0 - l2)
    a1, b1, a2, b2 = dot(h1, u), dot(h1, w), dot(h2, u), dot(h2, w)
    p = 2.0 * dot(u, nu) + c1 * a1 * a1 + c2 * a2 * a2 - 2.0 * l0
    c = 2.0 * dot(u, nw) + c1 * a1 * b1 + c2 * a2 * b2
    r = 2.0 * dot(w, nw) + c1 * b1 * b1 + c2 * b2 * b2 - 2.0 * l0
    det = p * r - c * c
    if p <= 0.0 or det <= 0.0:
        return None
    # det times the Newton step; a tangent step longer than 1 only turns y
    # further towards its own direction, so the step is capped there.
    n0 = c * g1 - r * g0
    n1 = c * g0 - p * g1
    norm = max(det, math.hypot(n0, n1))
    s0, s1 = n0 / norm, n1 / norm
    eta = (s0 * u0 + s1 * w[0], s0 * u1 + s1 * w[1], s0 * u2 + s1 * w[2])
    return eta, s0 * g0 + s1 * g1, math.hypot(s0, s1)


def _multiplicity(ratio: float) -> int:
    """The multiplicity m of a root that Newton steps approach linearly with
    this ratio of consecutive step lengths, (m - 1) / m; 1 where the ratio
    shows no linear approach."""
    return round(1.0 / (1.0 - ratio)) if 0.0 < ratio < 1.0 else 1


def refine_min(t: Pair4, start_x, start_y) -> OracleReport:
    """Newton steps on y with the exact inner minimum over x.

    min over unit x of the form is lambda_min(A y^2), so the form is
    minimised over y alone, with x always the eigenvector of its smallest
    eigenvalue. A Riemannian Newton step (see _newton_step) is backtracked
    until the Armijo condition holds for that eigenvalue; where lambda_min
    is not simple, or the Newton step fails to lower the re-evaluated form,
    one exact alternating block step is taken instead: y, then x, each the
    minimal eigenvector with the other frozen.

    At a zero of multiplicity m of the gradient, as at the exact zeros of
    boundary forms, Newton steps converge only linearly, each step length
    (m - 1) / m of the one before, and a step m times as long lands close
    to the zero (Traub, Iterative Methods for the Solution of Equations,
    1964). m is estimated from the lengths of the last two kept Newton
    directions, and where it is at least 2, the step m is tried once before
    the steps 1, 1/2, ...; it passes the same tests as any other step. An
    alternating step resets the estimate.

    A step is kept only if it lowers the form, so the trace is nonincreasing
    by construction; iteration stops when no step does, or a step gains less
    than _REFINE_TOL times the tensor's scale. Both vectors of a kept step
    are gauged. The iteration runs on the power-of-two rescale of the
    tensor, so it takes the same path for every 2**k multiple; the trace is
    scaled back exactly and min_value is the form re-evaluated on t, and
    NonFiniteEntries is raised where one of them does not fit a float. The
    steps run on Python floats over the pair rows of A y^2 and A x^2 (see
    _pair_rows); the form values that decide whether a step is kept come
    from biquadratic. The eigensolver's error state is entered once, around
    the steps, which run at unit scale: a solve that does not converge
    raises EigensolverFailure.
    """
    prep = _prepared(t)
    scaled, rows_m, rows_n = prep.unit, prep.rows_m, prep.rows_n

    def exact_x(y):
        lam, vecs = _eigh_pairs(_contract(rows_m, _outer_pairs(y, y)))
        return lam, vecs, _gauge(vecs[0])

    x = np.asarray(start_x, dtype=float)
    y = np.asarray(start_y, dtype=float)
    x = (x / np.linalg.norm(x)).tolist()
    y = (y / np.linalg.norm(y)).tolist()
    val = biquadratic(scaled, x, y)
    trace = [val]
    with eigensolver_errors():
        lam, vecs, cand_x = exact_x(y)
        cand = biquadratic(scaled, cand_x, y)
        if cand < val:
            x, val = cand_x, cand
            trace.append(val)
        # The length of the last kept Newton direction (None after an
        # alternating step) and the multiplicity estimated from it.
        last, mult = None, 1
        for _ in range(_REFINE_STEPS):
            kept = None
            newton = _newton_step(rows_n, y, lam, vecs)
            if newton is not None:
                eta, slope, length = newton
                alphas = [0.5**i for i in range(_BACKTRACKS)]
                if mult >= 2:
                    alphas.insert(0, float(mult))
                for alpha in alphas:
                    cand_y = _gauge(unit(*(yi + alpha * ei for yi, ei in zip(y, eta))))
                    cand_lam, cand_vecs, cand_x = exact_x(cand_y)
                    if cand_lam[0] <= lam[0] + _ARMIJO * alpha * slope:
                        kept = (cand_x, cand_y, cand_lam, cand_vecs)
                        break
            if kept is not None:
                cand = biquadratic(scaled, kept[0], kept[1])
                if cand < val:
                    mult = _multiplicity(length / last) if last else 1
                    last = length
                else:
                    kept = None
            if kept is None:
                last, mult = None, 1
                cand_y = _gauge(_eigh_pairs(_contract(rows_n, _outer_pairs(x, x)))[1][0])
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
    min_value = biquadratic(t, x, y)
    try:
        if not math.isfinite(min_value):
            raise OverflowError
        trace = tuple(math.ldexp(v, prep.e) for v in trace)
    except OverflowError:
        raise NonFiniteEntries(
            f"a refined form value overflows when scaled back by 2**{prep.e}"
        ) from None
    return OracleReport(
        min_value=min_value,
        argmin_x=np.array(x),
        argmin_y=np.array(y),
        grid_n=0,
        refined=True,
        objective_trace=trace,
    )


def _distinct_basins(candidates, n: int) -> list:
    """The candidates whose pair does not lie, up to the signs of x and y,
    within four lattice spacings of a pair kept before it. The spacing of
    n points on the unit sphere is sqrt(4 pi / n), 0.08 rad at n = GRID_N."""
    cos_r = np.cos(4.0 * np.sqrt(4.0 * np.pi / n))
    kept = []
    for _, x, y in candidates:
        if not any(
            abs(x @ kx) >= cos_r and abs(y @ ky) >= cos_r for kx, ky in kept
        ):
            kept.append((x, y))
    return kept


def oracle_verdict(t: Pair4, n: int = GRID_N) -> OracleVerdict:
    """Grid scan plus refinement from the _TOP_K best candidates, one per basin.

    A candidate within a few lattice spacings of a better one starts in the
    same basin and is not refined. NotMPSD carries a witness: the reported
    value is re-evaluated directly at the argmin pair, so the refutation can
    be checked independently of all oracle internals. The strict verdict is
    hedged because a finite search cannot prove positivity.
    """
    candidates = grid_top_candidates(t, n=n, keep=_TOP_K)
    # the basins are compared at unit scale, where no minimum underflows
    scaled = _prepared(t).unit
    best: OracleReport | None = None
    for x, y in _distinct_basins(candidates, n):
        rep = refine_min(t, x, y)
        value = biquadratic(scaled, rep.argmin_x, rep.argmin_y)
        if best is None or value < best_value:
            best, best_value = rep, value
    assert best is not None
    best = replace(best, grid_n=n)
    scale = float(np.max(np.abs(t.a)))
    cut = TOL * scale
    if best.min_value < -cut:
        verdict = ORACLE_NOT_MPSD
    elif best.min_value > cut:
        verdict = ORACLE_MPD_LIKELY
    else:
        verdict = ORACLE_BOUNDARY
    return OracleVerdict(
        verdict=verdict,
        report=best,
        scale=scale,
        witness_value=best.min_value if verdict == ORACLE_NOT_MPSD else None,
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
        "witness_value": v.witness_value,
        "report": oracle_report_to_doc(v.report),
    }
