"""Sign-split rank-one analysis of A y^2 and the exact case checkers.

Writing the contracted matrix as A y^2 = sum_s alpha_s (U_s y)(U_s y)^T with
the positive coefficients first exposes three shapes with necessary and
sufficient positivity conditions:

* Case 1 (three positive terms, each rank-one with shared frames V, W):
  nonnegativity reduces to positive semidefiniteness of a 3x3 matrix C
  assembled from the coefficients. Never strictly positive.
* Case 2 (six positive rank-one terms pairing three left vectors, one
  negative term): nonnegativity is a supremum bound on a ratio function
  eta over directions off finitely many singular lines. Never strict.
* Case 3 (nine positive rank-one terms tripling three left vectors, one
  negative term): same ratio bound, now with a denominator positive on the
  whole sphere, and a strict inequality certifies strict positivity.

The supremum estimator is grid + projected gradient ascent; its value is a
lower bound on the true supremum, so affirmative verdicts additionally
require the ascent stage to have stabilized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DecompositionMismatch,
    DegenerateDenominator,
    EmptyDomain,
    NotCase1,
    NotCase2,
    NotCase3,
    SingularDirection,
)
from .spectral import sym_eig
from .spheres import fibonacci_hemisphere
from .tensors import Elast4, symmetrize_pairs, tensor_from_rank_one_terms, unfold, unvec

__all__ = [
    "CASE_MPSD",
    "CASE_MPD",
    "CASE_NOT_MPSD",
    "CASE_MISMATCH",
    "StructuredDecomposition",
    "CaseStructure",
    "CaseReport",
    "SupEtaResult",
    "spectral_decomposition",
    "require_decomposition_of",
    "detect_rank_one",
    "check_case1",
    "case1_positive_redecomposition",
    "check_case2",
    "check_case3",
    "check_case",
    "sup_eta",
    "choi_lam_case2_decomposition",
    "case_report_to_doc",
]

CASE_MPSD = "MPSD"
CASE_MPD = "MPD"
CASE_NOT_MPSD = "NotMPSD"
CASE_MISMATCH = "StructureMismatch"

# Verdict margin separating strict positivity from the boundary in case 3.
TOL_STRICT = 1e-8
# Angular tolerance for matching shared left vectors during grouping.
GROUP_ANGLE_TOL = 1e-6
# spectral_decomposition drops eigenvalues below this times ||A||.
SPECTRAL_REL_TOL = 1e-12
# sup_eta: ascents start from this many best grid points, stop once the
# tangent gradient is below ASCENT_TOL times max(1, |eta|) or after
# ASCENT_STEPS steps, and each singular line is probed on rings at these
# angles.
REFINE_K = 10
ASCENT_TOL = 1e-10
ASCENT_STEPS = 300
PROBE_THETAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class StructuredDecomposition:
    """Terms (alpha_s, U_s) with positive coefficients sorted first.

    Positives are ordered by descending alpha, negatives after them by
    descending alpha as well (most negative last); ties keep input order.
    """

    alphas: np.ndarray
    mats: np.ndarray

    def __post_init__(self):
        al = np.asarray(self.alphas, dtype=float).copy()
        us = np.asarray(self.mats, dtype=float).copy()
        if al.ndim != 1 or us.shape != (al.size, 3, 3):
            raise ValueError("need alphas (r,) and mats (r,3,3)")
        if np.any(al == 0.0) or not np.all(np.isfinite(al)):
            raise ValueError("coefficients must be finite and nonzero")
        if not np.all(np.isfinite(us)):
            raise ValueError("term matrices must be finite")
        # Descending alpha puts the positives first; the stable sort keeps
        # ties in input order.
        order = np.argsort(-al, kind="stable")
        al = al[order]
        us = us[order]
        al.setflags(write=False)
        us.setflags(write=False)
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "mats", us)

    @property
    def r(self) -> int:
        return int(self.alphas.size)

    @property
    def q(self) -> int:
        return int(np.sum(self.alphas > 0.0))

    @property
    def terms(self):
        return [(float(a), u) for a, u in zip(self.alphas, self.mats)]


@dataclass(frozen=True)
class CaseStructure:
    """Recovered frames of a matched case."""

    V: np.ndarray
    W: np.ndarray
    W_tilde: np.ndarray | None
    W_hat: np.ndarray | None


@dataclass(frozen=True)
class CaseReport:
    case_id: int
    verdict: str
    structure_ok: bool = False
    sigma: np.ndarray | None = None
    eta_sup: float | None = None
    eta_argmax: np.ndarray | None = None
    threshold: float | None = None
    C_matrix: np.ndarray | None = None
    boundary: bool = False
    structure: CaseStructure | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SupEtaResult:
    """Lower bound on the supremum; `converged` marks a stabilized estimate."""

    value: float
    argmax: np.ndarray
    converged: bool
    excluded: int
    probes: tuple


def spectral_decomposition(a: Elast4) -> StructuredDecomposition:
    """Sign-split terms from the eigendecomposition of the unfolding.

    Eigenvalues below SPECTRAL_REL_TOL * ||A|| in magnitude are dropped;
    the term matrices devectorize the eigenvectors, so r <= 9 on this route.
    """
    m = unfold(a)
    scale = float(np.linalg.norm(m))
    pair = sym_eig(m)
    keep = np.abs(pair.values) > SPECTRAL_REL_TOL * scale
    if not np.any(keep):
        return StructuredDecomposition(np.zeros(0), np.zeros((0, 3, 3)))
    alphas = pair.values[keep]
    mats = np.stack([unvec(pair.vectors[:, s]) for s in np.nonzero(keep)[0]])
    return StructuredDecomposition(alphas, mats)


def require_decomposition_of(t: Elast4, dec: StructuredDecomposition, tol: float) -> None:
    """Raise DecompositionMismatch unless the terms of dec build the tensor t.

    The form of an elasticity tensor fixes every entry, so the entries are
    compared, within tol times the larger max|entry| of the two tensors;
    symmetrize_pairs(t.a) is the elasticity tensor of t's form.
    """
    built = tensor_from_rank_one_terms(dec.alphas, dec.mats).a
    given = symmetrize_pairs(t.a)
    with np.errstate(over="ignore"):
        gap = float(np.max(np.abs(built - given)))
    scale = max(float(np.max(np.abs(built))), float(np.max(np.abs(given))))
    if gap > tol * scale:
        raise DecompositionMismatch(
            f"the decomposition builds a different tensor: entries differ by up "
            f"to {gap:.3e}, against a tolerance of {tol * scale:.3e}"
        )


def detect_rank_one(u, tol: float = 1e-10):
    """Split U ~ v w^T; None if the trailing singular mass exceeds tol * ||U||_F.

    v is unit with its largest-magnitude entry positive; w carries the scale,
    so the split is unique and outer(v, w) reproduces U within the tolerance.
    """
    um = np.asarray(u, dtype=float)
    fro = float(np.linalg.norm(um))
    if fro == 0.0:
        return None
    left, s, right = np.linalg.svd(um)
    if float(np.hypot(s[1], s[2])) > tol * fro:
        return None
    v = left[:, 0]
    sign = 1.0 if v[int(np.argmax(np.abs(v)))] > 0.0 else -1.0
    return sign * v, sign * s[0] * right[0, :]


def _nonsingular(mat: np.ndarray, tol: float):
    """(ok, condition number) via singular values; relative cutoff."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= tol * sv[0]:
        return False, float("inf")
    return True, float(sv[0] / sv[-1])


def _mismatch(case_id: int, reason: str, diagnostics: dict) -> CaseReport:
    return CaseReport(case_id, CASE_MISMATCH, diagnostics={**diagnostics, "reason": reason})


# ---------------------------------------------------------------------------
# Case 1


def check_case1(dec: StructuredDecomposition, tol: float = 1e-8) -> CaseReport:
    """Exact nonnegativity test for the three-positive-terms shape.

    Structure: the positive U_s must be rank-one v_s w_s^T with nonsingular
    frames V, W, and every negative U_s must become diagonal under V^-1 . W^-T.
    Then the form is nonnegative iff C = diag(alpha_1..3) + sum alpha_s
    sigma_s sigma_s^T is PSD. This shape is never strictly positive.
    """
    if dec.q != 3:
        raise NotCase1(f"expected exactly 3 positive terms, found {dec.q}")
    diag: dict = {}
    split, bad = _split_rank_ones(dec, 3, tol)
    if split is None:
        return _mismatch(1, f"positive term {bad} is not rank-one", diag)
    V = np.column_stack(split[0])
    W = np.column_stack(split[1])
    ok_v, cond_v = _nonsingular(V, tol)
    ok_w, cond_w = _nonsingular(W, tol)
    diag["cond_V"] = cond_v
    diag["cond_W"] = cond_w
    if not ok_v or not ok_w:
        return _mismatch(1, "frame V or W is singular", diag)

    n_neg = dec.r - 3
    sigma = np.zeros((n_neg, 3))
    offdiag_resid = []
    for idx in range(n_neg):
        u = dec.mats[3 + idx]
        m = np.linalg.solve(V, u)
        m = np.linalg.solve(W, m.T).T  # m = V^-1 U W^-T
        off = m - np.diag(np.diag(m))
        resid = float(np.linalg.norm(off))
        offdiag_resid.append(resid)
        if resid > tol * max(1.0, float(np.linalg.norm(m))):
            diag["offdiag_residuals"] = offdiag_resid
            return _mismatch(1, f"negative term {idx} is not diagonal in the frame", diag)
        sigma[idx] = np.diag(m)
    diag["offdiag_residuals"] = offdiag_resid

    C = np.diag(dec.alphas[:3]) + np.einsum(
        "s,si,sj->ij", dec.alphas[3:], sigma, sigma
    )
    lam_min = float(np.linalg.eigvalsh(C)[0])
    diag["min_eig_C"] = lam_min
    # Rounding in C is eps times its terms, at most a few times the largest
    # alpha or ||C||: a scale-free bound that keeps a near-cancelling C MPSD.
    scale = max(float(dec.alphas[0]), float(np.linalg.norm(C)))
    return CaseReport(
        1,
        CASE_MPSD if lam_min >= -tol * scale else CASE_NOT_MPSD,
        structure_ok=True,
        sigma=sigma,
        C_matrix=C,
        boundary=abs(lam_min) <= TOL_STRICT * scale,
        structure=CaseStructure(V, W, None, None),
        diagnostics=diag,
    )


def case1_positive_redecomposition(
    dec: StructuredDecomposition,
) -> StructuredDecomposition:
    """All-positive terms equal to a nonnegative case-1 decomposition.

    Eigendecomposing C and pushing its eigenvectors back through the frames
    gives terms (lambda_t, V diag(e_t) W^T) with every lambda_t >= 0; near-zero
    eigenvalues are dropped. The result induces the same contracted matrix.
    """
    rep = check_case1(dec)
    if rep.verdict != CASE_MPSD:
        raise ValueError(f"needs an MPSD case-1 decomposition, got {rep.verdict}")
    assert rep.C_matrix is not None and rep.structure is not None
    pair = sym_eig(rep.C_matrix)
    keep = pair.values > 1e-12 * max(float(dec.alphas[0]), float(np.linalg.norm(rep.C_matrix)))
    if not np.any(keep):
        raise ValueError("decomposition is identically zero")
    V, W = rep.structure.V, rep.structure.W
    mats = [V @ np.diag(e) @ W.T for e in pair.vectors[:, keep].T]
    return StructuredDecomposition(pair.values[keep], np.stack(mats))


# ---------------------------------------------------------------------------
# Ratio function shared by cases 2 and 3


# _RatioForm refuses directions where a denominator term is at most this
# share of its scale times |y|^2.
_GUARD = 1e-13
# Rows per block in _RatioForm.value_many. Blocks this small keep the
# (G, 3, rows) temporaries off freshly mapped pages: one pass over the
# 20000-point hemisphere took ~1.8x as long, with ~1000 page faults a call.
# At G = 3 a temporary is 72 KiB; at 2048 rows (144 KiB) each case-3 check
# took ~200 fresh pages in some processes, depending on earlier allocations.
_BLOCK_ROWS = 1024


class _RatioForm:
    """eta(y) = sum_s (sum_g sigma[g,s] w[g,s].y)^2 / (sum_g alpha[g,s] (w[g,s].y)^2).

    w[g] are the columns of the g-th frame; the _GUARD keeps evaluations away
    from directions where some denominator term vanishes.

    The order of every floating-point operation is a contract: eta values,
    gradients and hence the case reports must match the einsum reference
    in tests/test_cases.py bit for bit. p[g, s] = w[g, s].y adds the
    products for i = 0, 1, 2 in order; every sum over g or over s runs in
    index order; denominator terms are (alpha * p) * p; the gradient's
    d den_s / dy is 2 * (sum_g (alpha * p) * w) in g order, which neither
    alpha * (p * w) nor (alpha * w) * p reproduces. Squares are not
    interchangeable: `value` and `value_many` square with x * x (numpy's
    `** 2` on arrays), `grad` with `** 2` on scalars, which is libm pow and
    differs from x * x in the last bit now and then. The squared norm of y
    stays numpy's `y @ y`, a BLAS dot that may use fused multiply-adds.
    """

    def __init__(self, alphas, frames, sigma, error_cls):
        self.alphas = np.asarray(alphas, dtype=float)  # (G, 3)
        self.frames = np.stack([np.asarray(f, dtype=float) for f in frames])  # (G,3,3)
        self.sigma = np.asarray(sigma, dtype=float)  # (G, 3)
        self.error_cls = error_cls
        # Per-term denominator scale for the relative guard.
        self.den_scale = np.einsum(
            "gs,gs->s", self.alphas, np.sum(self.frames**2, axis=1)
        )
        # Python-float tables for the scalar kernels: terms[s] lists
        # (sigma, alpha, w_0, w_1, w_2) per frame g, and num_dir[s] is the
        # constant d num_lin_s / dy = sum_g sigma w.
        self._terms = [
            [
                (sg, ag, *w)
                for sg, ag, w in zip(
                    self.sigma[:, s].tolist(),
                    self.alphas[:, s].tolist(),
                    self.frames[:, :, s].tolist(),
                )
            ]
            for s in range(3)
        ]
        self._den_scale = self.den_scale.tolist()
        self._num_dir = np.einsum("gs,gis->is", self.sigma, self.frames).T.tolist()

    def _parts(self, yv: np.ndarray, nrm2: float):
        """p[s][g] = w[g,s].y, num_lin[s] = sum_g sigma p, den[s] = sum_g alpha p^2.

        Raises error_cls where some den[s] is at most _GUARD nrm2 den_scale[s].
        """
        y0, y1, y2 = yv.tolist()
        p, num_lin, den = [], [], []
        for terms in self._terms:
            ps = []
            nl = dn = 0.0
            for sg, ag, w0, w1, w2 in terms:
                pg = w0 * y0 + w1 * y1 + w2 * y2
                ps.append(pg)
                nl += sg * pg
                dn += ag * pg * pg
            p.append(ps)
            num_lin.append(nl)
            den.append(dn)
        floor = _GUARD * nrm2
        for d, scale in zip(den, self._den_scale):
            if d <= floor * scale:
                raise self.error_cls("denominator vanished at this direction")
        return p, num_lin, den

    def value(self, y) -> float:
        yv = np.asarray(y, dtype=float)
        nrm2 = float(yv @ yv)
        if nrm2 == 0.0:
            raise self.error_cls("zero direction")
        _, num_lin, den = self._parts(yv, nrm2)
        total = 0.0
        for n, d in zip(num_lin, den):
            total += n * n / d
        return total

    def value_many(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized values with -inf at guarded rows. ys is (N, 3) unit."""
        yt = np.ascontiguousarray(np.asarray(ys, dtype=float).T)  # (3, N)
        f = self.frames[:, :, :, None]  # (G, i, s, 1)
        floor = (_GUARD * self.den_scale)[:, None]
        vals = np.empty(yt.shape[1])
        for lo in range(0, yt.shape[1], _BLOCK_ROWS):
            y0, y1, y2 = yt[:, lo : lo + _BLOCK_ROWS]
            p = f[:, 0] * y0 + f[:, 1] * y1 + f[:, 2] * y2  # (G, s, rows)
            num = np.sum(self.sigma[:, :, None] * p, axis=0) ** 2  # (s, rows)
            den = np.sum(self.alphas[:, :, None] * p * p, axis=0)  # (s, rows)
            bad = np.any(den <= floor, axis=0)
            den = np.where(den == 0.0, 1.0, den)
            q = num / den
            block = q[0] + q[1] + q[2]
            block[bad] = -np.inf
            vals[lo : lo + _BLOCK_ROWS] = block
        return vals

    def grad(self, y) -> np.ndarray:
        yv = np.asarray(y, dtype=float)
        p, num_lin, den = self._parts(yv, float(yv @ yv))
        try:
            return self._grad_sum(p, num_lin, den)
        except (OverflowError, ZeroDivisionError):
            # Python floats raise where numpy scalars give inf, 0 or nan with
            # a RuntimeWarning (a square past 1e308, or one that underflows to
            # 0 as divisor); the same operations on numpy scalars round alike.
            return self._grad_sum(p, list(map(np.float64, num_lin)), list(map(np.float64, den)))

    def _grad_sum(self, p, num_lin, den) -> np.ndarray:
        g0 = g1 = g2 = 0.0
        for terms, ps, nl, d, (n0, n1, n2) in zip(self._terms, p, num_lin, den, self._num_dir):
            # d den_s / dy = 2 sum_g alpha[g,s] p[g,s] w[g,s]; d num_lin_s / dy = n
            dd0 = dd1 = dd2 = 0.0
            for (_, ag, w0, w1, w2), pg in zip(terms, ps):
                ap = ag * pg
                dd0 += ap * w0
                dd1 += ap * w1
                dd2 += ap * w2
            two_nl, nl_sq, d_sq = 2.0 * nl, nl**2, d**2
            g0 += (two_nl * n0 * d - nl_sq * (2.0 * dd0)) / d_sq
            g1 += (two_nl * n1 * d - nl_sq * (2.0 * dd1)) / d_sq
            g2 += (two_nl * n2 * d - nl_sq * (2.0 * dd2)) / d_sq
        return np.array([g0, g1, g2])


@dataclass(frozen=True)
class _RatioCase:
    """What tells the two ratio-function cases apart."""

    group: int  # positive terms per shared left vector
    shape_error: type
    guard_error: type  # raised by eta where a denominator term vanishes
    grouping_reason: str


_RATIO_CASES = {
    2: _RatioCase(2, NotCase2, SingularDirection, "left vectors do not pair up"),
    3: _RatioCase(3, NotCase3, DegenerateDenominator, "left vectors do not form three triples"),
}


# ---------------------------------------------------------------------------
# Supremum estimation


def _orthonormal_complement(d: np.ndarray):
    probe = np.zeros(3)
    probe[int(np.argmin(np.abs(d)))] = 1.0
    u1 = np.cross(d, probe)
    u1 /= np.linalg.norm(u1)
    return u1, np.cross(d, u1)


def _ascend(y0, value, grad):
    y = np.asarray(y0, dtype=float)
    y = y / np.linalg.norm(y)
    fy = value(y)
    if fy is None:
        return y, -np.inf, True
    step = 0.5
    converged = False
    for _ in range(ASCENT_STEPS):
        try:
            gr = grad(y)
        except (SingularDirection, DegenerateDenominator):
            break
        gt = gr - (gr @ y) * y
        gn = float(np.linalg.norm(gt))
        if gn <= ASCENT_TOL * max(1.0, abs(fy)):
            converged = True
            break
        s = step
        moved = False
        while s > 1e-16:
            cand = y + s * gt
            cand /= np.linalg.norm(cand)
            fc = value(cand)
            if fc is not None and fc > fy + 1e-4 * s * gn * gn:
                y, fy = cand, fc
                step = min(1.0, 2.0 * s)
                moved = True
                break
            s *= 0.5
        if not moved:
            # No ascent step improves at any scale: stationary to rounding.
            converged = True
            break
    return y, float(fy), converged


def _trend_settled(vals) -> bool:
    """True when the final increment of a probe trend has decayed.

    A supremum approached along an excluded line shows geometrically
    shrinking increments (quadratic in the ring angle); a denominator sign
    violation shows growing ones. Fewer than three finite values carry no
    evidence of growth and count as settled."""
    finite = [v for v in vals if np.isfinite(v)]
    if len(finite) < 3:
        return True
    inc_prev = finite[-2] - finite[-3]
    inc_last = finite[-1] - finite[-2]
    floor = 1e-12 * max(1.0, abs(finite[-1]))
    return inc_last <= max(0.5 * inc_prev, floor)


def sup_eta(eta_fn, singular_lines, *, grad_fn, eta_many, grid_n: int = 20000) -> SupEtaResult:
    """Estimate sup eta over unit directions off the singular lines.

    eta_many maps an (N, 3) array of unit directions to N values, -inf where
    eta is not defined, and its array is only read; grad_fn is the gradient
    of eta_fn. Stage 1 evaluates a deterministic hemisphere lattice and
    skips its -inf points, which for the ratio form include every point
    near a singular line (its guard). Stage 2 runs projected gradient
    ascent with backtracking from the REFINE_K best grid points.
    Singular lines are additionally probed along shrinking geodesic rings;
    probe values are legitimate domain points and enter the supremum, and
    their trend is reported for diagnosis.

    The result is a lower bound on the true supremum. `converged` marks a
    stabilized estimate: either every ascent reached stationarity in the
    interior, or the maximum is approached along an excluded line and the
    probe trend settles toward a finite limit. Affirmative verdicts require
    it; refutations only need the (always sound) value.
    """
    ys = fibonacci_hemisphere(grid_n)
    lines = [np.asarray(d, dtype=float) / np.linalg.norm(d) for d in singular_lines]
    vals = np.asarray(eta_many(ys), dtype=float)
    finite = np.isfinite(vals)
    n_excluded = int(np.sum(~finite))
    if not np.any(finite):
        raise EmptyDomain("every grid point was excluded or guarded")

    k = min(REFINE_K, int(np.sum(finite)))
    part = np.argpartition(-vals, k - 1)[:k]
    starts = part[np.lexsort((part, -vals[part]))]

    # eta_fn may raise, return None, or return non-finite values on excluded
    # directions; normalize all three to None.
    def safe_value(y):
        try:
            v = eta_fn(y)
        except (SingularDirection, DegenerateDenominator):
            return None
        return v if v is not None and np.isfinite(v) else None

    best_val = float(vals[starts[0]])
    best_arg = ys[starts[0]].copy()
    all_converged = True
    refined_best = -np.inf
    for idx in starts:
        yr, fr, conv = _ascend(ys[idx], safe_value, grad_fn)
        all_converged &= conv
        refined_best = max(refined_best, fr)
        if fr > best_val:
            best_val, best_arg = fr, yr

    probes = []
    probe_best = -np.inf
    probes_settled = True
    for d in lines:
        u1, u2 = _orthonormal_complement(d)
        trend = []
        for theta in PROBE_THETAS:
            ring_best = -np.inf
            for a in range(8):
                phi = 2.0 * np.pi * a / 8.0
                y = np.cos(theta) * d + np.sin(theta) * (
                    np.cos(phi) * u1 + np.sin(phi) * u2
                )
                v = safe_value(y)
                if v is not None and v > ring_best:
                    ring_best = v
                    if v > best_val:
                        best_val, best_arg = v, y
                    if v > probe_best:
                        probe_best = v
            trend.append((float(theta), ring_best))
        probes_settled &= _trend_settled([v for _, v in trend])
        probes.append({"line": [float(t) for t in d], "trend": trend})

    # The estimate counts as stabilized in two situations: the maximum lies
    # in the interior and every ascent reached stationarity there, or it is
    # approached along an excluded line and the probe values form a settling
    # (geometrically decaying) trend toward a finite limit.
    slack = max(1e-12, 1e-9 * abs(refined_best))
    interior_stable = all_converged and probe_best <= refined_best + slack
    boundary_stable = probe_best > refined_best and probes_settled
    converged = interior_stable or boundary_stable
    return SupEtaResult(
        value=float(best_val),
        argmax=best_arg,
        converged=bool(converged),
        excluded=n_excluded,
        probes=tuple(probes),
    )


# ---------------------------------------------------------------------------
# Grouping of rank-one terms by shared left vector


def _group_shared_v(vs, group_size: int):
    """Partition term indices into groups whose v agree up to sign.

    Returns a list of index tuples ordered by first occurrence, or None when
    the match pattern is not a clean partition into groups of group_size.
    """
    n = len(vs)
    cos_tol = np.cos(GROUP_ANGLE_TOL)
    used = [False] * n
    groups = []
    for i in range(n):
        if used[i]:
            continue
        members = [i]
        used[i] = True
        for j in range(i + 1, n):
            if not used[j] and abs(float(vs[i] @ vs[j])) >= cos_tol:
                members.append(j)
                used[j] = True
        if len(members) != group_size:
            return None
        groups.append(tuple(members))
    return groups if len(groups) == 3 else None


def _split_rank_ones(dec: StructuredDecomposition, count: int, tol: float):
    vs, ws = [], []
    for s in range(count):
        vw = detect_rank_one(dec.mats[s], tol)
        if vw is None:
            return None, s
        vs.append(vw[0])
        ws.append(vw[1])
    return (vs, ws), -1


def _recover_sigma(basis_mats, target: np.ndarray):
    """Solve target = sum sigma_s B_s in the least-squares sense.

    Returns (sigma, relative residual), with residual 0 for a zero target.
    The basis has at most 9 matrices, so this is a small dense solve; the
    caller tests the residual against its tolerance."""
    m = np.stack([b.reshape(9) for b in basis_mats], axis=1)
    rhs = target.reshape(9)
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return sol, 0.0
    return sol, float(np.linalg.norm(m @ sol - rhs)) / max(rhs_norm, 1e-300)


def _check_ratio_case(
    dec: StructuredDecomposition, case_id: int, tol: float, grid_n: int
) -> CaseReport:
    """The ratio test shared by cases 2 and 3: sup eta against 1 / (-alpha_neg).

    The positive terms come in g = 2 (pairs) or g = 3 (triples) per shared
    left vector; the slot-t right vectors form the frame W, W_tilde or W_hat.
    """
    spec = _RATIO_CASES[case_id]
    g = spec.group
    q = 3 * g
    if (dec.r, dec.q) != (q + 1, q):
        raise spec.shape_error(f"expected (r, q) = ({q + 1}, {q}), found ({dec.r}, {dec.q})")
    diag: dict = {}
    split, bad = _split_rank_ones(dec, q, tol)
    if split is None:
        return _mismatch(case_id, f"positive term {bad} is not rank-one", diag)
    vs, ws = split
    groups = _group_shared_v(vs, g)
    if groups is None:
        return _mismatch(case_id, spec.grouping_reason, diag)
    diag["groups"] = [list(grp) for grp in groups]

    # Slot t of every group goes to frame t, with w flipped to match v's sign.
    v_cols = [vs[grp[0]] for grp in groups]
    w_cols = [[] for _ in range(g)]
    alpha_cols = [[] for _ in range(g)]
    for v, grp in zip(v_cols, groups):
        for slot, idx in enumerate(grp):
            w = ws[idx]
            if float(v @ vs[idx]) < 0.0:
                w = -w
            w_cols[slot].append(w)
            alpha_cols[slot].append(dec.alphas[idx])
    V = np.column_stack(v_cols)
    frames = [np.column_stack(w_cols[slot]) for slot in range(g)]
    W, W_tilde, W_hat = (frames + [None])[:3]
    for name, mat in zip(("V", "W", "W_tilde", "W_hat"), [V] + frames):
        ok, cond = _nonsingular(mat, tol)
        diag[f"cond_{name}"] = cond
        if not ok:
            return _mismatch(case_id, f"frame {name} is singular", diag)

    # Pairs: eta is singular along the cross product of each pair, so the
    # pair must not be collinear. Triples: each must be independent, which
    # keeps the denominator positive on the whole sphere.
    if g == 2:
        crosses = [np.cross(W[:, s], W_tilde[:, s]) for s in range(3)]
        sines = []
        for s in range(3):
            denom = np.linalg.norm(W[:, s]) * np.linalg.norm(W_tilde[:, s])
            sines.append(float(np.linalg.norm(crosses[s]) / max(denom, 1e-300)))
        diag["pair_sines"] = sines
        if min(sines) < tol:
            return _mismatch(case_id, "paired right vectors are collinear", diag)
        lines = [cr / np.linalg.norm(cr) for cr in crosses]
    else:
        dets = []
        for s in range(3):
            trip = np.column_stack([W[:, s], W_tilde[:, s], W_hat[:, s]])
            scale = np.prod([np.linalg.norm(trip[:, c]) for c in range(3)])
            dets.append(float(abs(np.linalg.det(trip)) / max(scale, 1e-300)))
        diag["triple_dets"] = dets
        if min(dets) < tol:
            return _mismatch(case_id, "a right-vector triple is linearly dependent", diag)
        lines = []

    basis = [np.outer(v_cols[s], w_cols[slot][s]) for slot in range(g) for s in range(3)]
    sigma, rel_resid = _recover_sigma(basis, dec.mats[q])
    diag["sigma_residual"] = rel_resid
    if rel_resid > tol:
        return _mismatch(case_id, "negative term lies outside the rank-one span", diag)

    # eta is estimated for the alphas times 2^-e, e putting -alpha_neg in
    # [1, 2) (less where the alphas spread past 2^300, so squares stay finite).
    # That multiplies eta and the threshold by 2^e exactly, so every 2^k
    # multiple of a decomposition runs the same grid, ascent and tests.
    e = max(int(np.frexp(-dec.alphas[q])[1]) - 1, int(np.frexp(dec.alphas[0])[1]) - 300)
    form = _RatioForm(
        np.ldexp(np.array(alpha_cols), -e), frames, sigma.reshape(g, 3), spec.guard_error
    )
    sup = sup_eta(form.value, lines, grad_fn=form.grad, eta_many=form.value_many, grid_n=grid_n)
    threshold = 1.0 / (-float(dec.alphas[q]))
    limit = float(np.ldexp(threshold, e))  # the scaled threshold
    diag["sup_converged"] = sup.converged
    if g == 2:
        diag["singular_lines"] = [[float(t) for t in d] for d in lines]
        diag["probes"] = [
            {**p, "trend": [(th, float(np.ldexp(v, -e))) for th, v in p["trend"]]}
            for p in sup.probes
        ]

    if sup.value > limit + tol:
        verdict = CASE_NOT_MPSD
    elif not sup.converged:
        return _mismatch(case_id, "supremum estimate did not stabilize", diag)
    elif case_id == 3 and sup.value < limit - TOL_STRICT:
        verdict = CASE_MPD
    else:
        verdict = CASE_MPSD
    return CaseReport(
        case_id,
        verdict,
        structure_ok=True,
        sigma=np.asarray(sigma),
        eta_sup=float(np.ldexp(sup.value, -e)),
        eta_argmax=sup.argmax,
        threshold=threshold,
        boundary=abs(sup.value - limit) <= TOL_STRICT,
        structure=CaseStructure(V, W, W_tilde, W_hat),
        diagnostics=diag,
    )


def check_case2(
    dec: StructuredDecomposition, tol: float = 1e-8, grid_n: int = 20000
) -> CaseReport:
    """Necessary-and-sufficient nonnegativity test for the (r, q) = (7, 6) shape.

    Structure: six rank-one positive terms pairing three shared left vectors,
    nonsingular frames, independent partner right vectors, and the negative
    term inside the span of the six rank-one matrices. Then nonnegativity is
    sup eta <= 1 / (-alpha_7) over directions off the three singular lines.
    This shape is never strictly positive.
    """
    return _check_ratio_case(dec, 2, tol, grid_n)


def check_case3(
    dec: StructuredDecomposition, tol: float = 1e-8, grid_n: int = 20000
) -> CaseReport:
    """Positivity test for the (r, q) = (10, 9) shape; can certify strictness.

    Structure: nine rank-one positive terms tripling three shared left
    vectors, with all four frames nonsingular and each right-vector triple
    linearly independent (which makes the ratio denominator positive on the
    whole sphere). Then max eta < 1 / (-alpha_10) certifies strict
    positivity, equality within tolerance gives the boundary verdict, and
    excess refutes nonnegativity.
    """
    return _check_ratio_case(dec, 3, tol, grid_n)


def check_case(
    dec: StructuredDecomposition, tol: float = 1e-8, grid_n: int = 20000
) -> CaseReport | None:
    """Run the case checker whose shape matches dec: case 1 for q = 3 (any r),
    case 2 for (r, q) = (7, 6), case 3 for (10, 9); None for any other shape."""
    if dec.q == 3:
        return check_case1(dec, tol=tol)
    if (dec.r, dec.q) == (7, 6):
        return check_case2(dec, tol=tol, grid_n=grid_n)
    if (dec.r, dec.q) == (10, 9):
        return check_case3(dec, tol=tol, grid_n=grid_n)
    return None


def choi_lam_case2_decomposition(gamma: float = 1.0) -> StructuredDecomposition:
    """The case-2 shaped decomposition of the Choi-Lam contracted matrix:

        A_gamma y^2 = diag(2 y1^2 + g y2^2, 2 y2^2 + g y3^2, 2 y3^2 + g y1^2) - y y^T,

    i.e. terms (2, e_s e_s^T), (gamma, e_s e_{s+1}^T) and (-1, I)."""
    eye = np.eye(3)
    mats = []
    alphas = []
    for s in range(3):
        mats.append(np.outer(eye[:, s], eye[:, s]))
        alphas.append(2.0)
    for s in range(3):
        mats.append(np.outer(eye[:, s], eye[:, (s + 1) % 3]))
        alphas.append(float(gamma))
    mats.append(np.eye(3))
    alphas.append(-1.0)
    return StructuredDecomposition(np.asarray(alphas), np.stack(mats))


def case_report_to_doc(rep: CaseReport) -> dict:
    def arr(x):
        return None if x is None else np.asarray(x).tolist()

    doc = {
        "case_id": rep.case_id,
        "verdict": rep.verdict,
        "structure_ok": rep.structure_ok,
        "sigma": arr(rep.sigma),
        "eta_sup": rep.eta_sup,
        "eta_argmax": arr(rep.eta_argmax),
        "threshold": rep.threshold,
        "C_matrix": arr(rep.C_matrix),
        "boundary": rep.boundary,
        "diagnostics": _jsonable(rep.diagnostics),
    }
    if rep.structure is not None:
        doc["structure"] = {
            "V": arr(rep.structure.V),
            "W": arr(rep.structure.W),
            "W_tilde": arr(rep.structure.W_tilde),
            "W_hat": arr(rep.structure.W_hat),
            "sigma": arr(rep.sigma),
        }
    return doc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj
