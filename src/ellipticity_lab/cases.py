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

The supremum estimator is a hemisphere grid and a Riemannian Newton ascent
from the best grid point of each basin; an ascent that comes within
LINE_STOP of a singular line stops there. Its value is a lower bound on
the supremum, so affirmative verdicts also need every ascent that stayed
off the lines to have converged. On each case-2 singular line the limit
superior of eta has a closed form (Cauchy-Schwarz, see _line_limit), and
the supremum is the larger of the interior estimate and these limits. The
ratio cases take each term at its own power of two before estimating, so
a decomposition runs the same numbers at every 2^k multiple and however
its terms split their scale between alpha and U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CaseShapeError,
    DecompositionMismatch,
    EmptyDomain,
    SingularDirection,
    eigensolver_errors,
)
from .spectral import _eigh, sym_eig
from .spheres import cross, dot, fibonacci_hemisphere, unit
from .tensors import (
    Elast4,
    pow2_rescale,
    symmetrize_pairs,
    tensor_from_rank_one_terms,
    unfold,
    unvec,
)

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

# Certification tolerance: the relative cutoffs of the structure tests, and
# the band around each verdict's limit that is the boundary (not strict).
TOL = 1e-8
# Angular tolerance for matching shared left vectors during grouping.
GROUP_ANGLE_TOL = 1e-6
# spectral_decomposition drops eigenvalues below this times ||A||.
SPECTRAL_REL_TOL = 1e-12
# sup_eta: ascents start from this many best grid points, one per basin,
# stop once the tangent gradient is below ASCENT_TOL times max(1, |eta|) or
# after ASCENT_STEPS steps, or once they come within LINE_STOP rad of a
# singular line.
REFINE_K = 10
ASCENT_TOL = 1e-10
ASCENT_STEPS = 300
LINE_STOP = 1e-6
# Hemisphere lattice points of sup_eta, the grid of the case checkers.
GRID_N = 20000


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


def spectral_decomposition(a: Elast4) -> StructuredDecomposition:
    """Sign-split terms from the eigendecomposition of the unfolding.

    Eigenvalues below SPECTRAL_REL_TOL * ||A|| in magnitude are dropped;
    the term matrices devectorize the eigenvectors, so r <= 9 on this route.
    ||A|| is taken at a power-of-two scale, where its squares neither
    overflow nor underflow, and scaled back exactly.
    """
    m = unfold(a)
    pair = sym_eig(m)
    ms, exp = pow2_rescale(m)
    scale = math.ldexp(float(np.linalg.norm(ms)), exp)
    keep = np.abs(pair.values) > SPECTRAL_REL_TOL * scale
    if not np.any(keep):
        return StructuredDecomposition(np.zeros(0), np.zeros((0, 3, 3)))
    alphas = pair.values[keep]
    mats = np.stack([unvec(pair.vectors[:, s]) for s in np.nonzero(keep)[0]])
    return StructuredDecomposition(alphas, mats)


def require_decomposition_of(t: Elast4, dec: StructuredDecomposition) -> None:
    """Raise DecompositionMismatch unless the terms of dec build the tensor t.

    The form of an elasticity tensor fixes every entry, so the entries are
    compared, within TOL times the larger max|entry| of the two tensors;
    symmetrize_pairs(t.a), t.a itself for an Elast4, is the elasticity
    tensor of t's form.
    """
    built = tensor_from_rank_one_terms(dec.alphas, dec.mats).a
    given = t.a if isinstance(t, Elast4) else symmetrize_pairs(t.a)
    with np.errstate(over="ignore"):
        gap = float(np.max(np.abs(built - given)))
    scale = max(float(np.max(np.abs(built))), float(np.max(np.abs(given))))
    if gap > TOL * scale:
        raise DecompositionMismatch(
            f"the decomposition builds a different tensor: entries differ by up "
            f"to {gap:.3e}, against a tolerance of {TOL * scale:.3e}"
        )


def detect_rank_one(u):
    """Split U ~ v w^T; None if the trailing singular mass exceeds TOL * ||U||_F.

    v is unit with its largest-magnitude entry positive; w carries the scale,
    so the split is unique and outer(v, w) reproduces U within the tolerance.
    """
    um = np.asarray(u, dtype=float)
    fro = float(np.linalg.norm(um))
    if fro == 0.0:
        return None
    left, s, right = np.linalg.svd(um)
    if float(np.hypot(s[1], s[2])) > TOL * fro:
        return None
    v = left[:, 0]
    sign = 1.0 if v[int(np.argmax(np.abs(v)))] > 0.0 else -1.0
    return sign * v, sign * s[0] * right[0, :]


def _nonsingular(mat: np.ndarray):
    """(ok, condition number) of mat with unit columns, which no scale moved
    between alpha and U changes; relative cutoff, and a zero column is
    singular. Each column is divided by its max |entry| first, so no norm
    underflows."""
    peaks = np.abs(mat).max(axis=0)
    if not peaks.all():
        return False, float("inf")
    cols = mat / peaks
    cols /= np.sqrt((cols * cols).sum(axis=0))
    sv = np.linalg.svd(cols, compute_uv=False)
    if sv[-1] <= TOL * sv[0]:
        return False, float("inf")
    return True, float(sv[0] / sv[-1])


def _mismatch(case_id: int, reason: str, diagnostics: dict) -> CaseReport:
    return CaseReport(case_id, CASE_MISMATCH, diagnostics={**diagnostics, "reason": reason})


# ---------------------------------------------------------------------------
# Case 1


def _case1_scaled_C(dec: StructuredDecomposition, C: np.ndarray):
    """(C~, max(1, ||C~||)): C~ = A^-1/2 C A^-1/2 = I + sum alpha_s tau_s tau_s^T
    with A = diag(alpha_1..3) and tau_s = A^-1/2 sigma_s, and the scale of
    case 1's cutoffs on it. C~ is congruent to C, so it has C's inertia, and
    it does not change when a term's scale moves between alpha and U, which
    multiplies C by a diagonal on both sides. The rounding in C, over
    sqrt(alpha_i alpha_j), is eps times I + sum |alpha_s| tau_s tau_s^T, whose
    norm is at most 1 + ||C~||; ||C~|| is taken at a power-of-two scale,
    where its squares cannot overflow. C is divided by alpha_1 before the
    square roots enter, so equal alphas give the same C~ at every common
    scale, and a tie in its spectrum stays a tie. None where a quotient of
    the alphas, C~ or its norm does not fit a float (C itself included)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = dec.alphas[:3] / dec.alphas[0]
        root = np.sqrt(ratio)
        ct = C / dec.alphas[0] / np.outer(root, root)
        cs, e = pow2_rescale(ct)
        scale = max(1.0, float(np.ldexp(np.linalg.norm(cs), e)))
    if not (np.isfinite(ratio).all() and np.isfinite(ct).all() and math.isfinite(scale)):
        return None
    return ct, scale


def check_case1(dec: StructuredDecomposition) -> CaseReport:
    """Exact nonnegativity test for the three-positive-terms shape.

    Structure: the positive U_s must be rank-one v_s w_s^T with nonsingular
    frames V, W, and every negative U_s must become diagonal under V^-1 . W^-T.
    Then the form is nonnegative iff C = diag(alpha_1..3) + sum alpha_s
    sigma_s sigma_s^T is PSD. This shape is never strictly positive. The
    diagonal and PSD tests divide by sqrt(alpha_1..3) first, so neither sees
    how a term splits its scale between alpha and U.
    """
    if dec.q != 3:
        raise CaseShapeError(f"expected exactly 3 positive terms, found {dec.q}")
    split, bad = _split_rank_ones(dec.mats, 3)
    if split is None:
        return _mismatch(1, f"positive term {bad} is not rank-one", {})
    V = np.column_stack(split[0])
    W = np.column_stack(split[1])
    ok_v, cond_v = _nonsingular(V)
    ok_w, cond_w = _nonsingular(W)
    diag = {"cond_V": cond_v, "cond_W": cond_w}
    if not ok_v or not ok_w:
        return _mismatch(1, "frame V or W is singular", diag)

    n_neg = dec.r - 3
    sigma = np.zeros((n_neg, 3))
    root = np.sqrt(dec.alphas[:3])
    diag["offdiag_residuals"] = offdiag_resid = []
    for idx in range(n_neg):
        u = dec.mats[3 + idx]
        m = np.linalg.solve(V, u)
        m = np.linalg.solve(W, m.T).T  # m = V^-1 U W^-T
        # The test reads column s of m over sqrt(alpha_s), which no scale
        # moved between alpha_s and U_s changes: relative to ||m|| alone, a
        # column that carries a large scale would pass another's
        # off-diagonal part as rounding.
        # A residual past the float range reads inf; the test takes mt at a
        # power of two, where its squares cannot overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            mt = m / root
            resid = float(np.linalg.norm(m - np.diag(np.diag(m))))
        if not np.isfinite(mt).all():
            return _mismatch(1, "coefficients spread past the float range", diag)
        offdiag_resid.append(resid)
        mt = pow2_rescale(mt)[0]
        if np.linalg.norm(mt - np.diag(np.diag(mt))) > TOL * np.linalg.norm(mt):
            return _mismatch(1, f"negative term {idx} is not diagonal in the frame", diag)
        sigma[idx] = np.diag(m)

    with np.errstate(over="ignore", invalid="ignore"):
        C = np.diag(dec.alphas[:3]) + np.einsum(
            "s,si,sj->ij", dec.alphas[3:], sigma, sigma
        )
    # C is PSD iff C~ is; C~'s cutoff, unlike one on C, does not grow when a
    # positive term is rewritten as (alpha c^2) (U / c) (x) (U / c).
    scaled = _case1_scaled_C(dec, C)
    if scaled is None:
        return _mismatch(1, "coefficients spread past the float range", diag)
    ct, scale = scaled
    with eigensolver_errors():
        diag["min_eig_C"] = float(_eigh(C, vectors=False)[0])
        lam_min = float(_eigh(ct, vectors=False)[0])
    return CaseReport(
        1,
        CASE_MPSD if lam_min >= -TOL * scale else CASE_NOT_MPSD,
        structure_ok=True,
        sigma=sigma,
        C_matrix=C,
        boundary=abs(lam_min) <= TOL * scale,
        structure=CaseStructure(V, W, None, None),
        diagnostics=diag,
    )


def case1_positive_redecomposition(
    dec: StructuredDecomposition,
) -> StructuredDecomposition:
    """All-positive terms equal to a nonnegative case-1 decomposition.

    C = A^1/2 C~ A^1/2 (see _case1_scaled_C), so each eigenpair (lambda_t, e_t)
    of C~ gives the term alpha_1 lambda_t g_t g_t^T of C with
    g_t = (A / alpha_1)^1/2 e_t. Pushed back through the frames, that is
    (alpha_1 lambda_t, V diag(g_t) W^T) with every coefficient >= 0; near-zero
    eigenvalues are dropped. The result induces the same contracted matrix.
    """
    rep = check_case1(dec)
    if rep.verdict != CASE_MPSD:
        raise ValueError(f"needs an MPSD case-1 decomposition, got {rep.verdict}")
    assert rep.C_matrix is not None and rep.structure is not None
    ct, scale = _case1_scaled_C(dec, rep.C_matrix)
    pair = sym_eig(ct)
    keep = pair.values > SPECTRAL_REL_TOL * scale
    if not np.any(keep):
        raise ValueError("decomposition is identically zero")
    root = np.sqrt(dec.alphas[:3] / dec.alphas[0])
    V, W = rep.structure.V, rep.structure.W
    mats = [V @ np.diag(root * e) @ W.T for e in pair.vectors[:, keep].T]
    return StructuredDecomposition(dec.alphas[0] * pair.values[keep], np.stack(mats))


# ---------------------------------------------------------------------------
# Ratio function shared by cases 2 and 3


# _RatioForm refuses directions where a denominator term is at most this
# share of its scale times |y|^2.
_GUARD = 1e-13
# Rows per block in _RatioForm.value_many, which allocates its buffers once
# per call and reuses them in every block: at G = 3 and 4096 rows the (G, 3,
# rows) product and scratch take 576 KiB, the (3, rows) numerator and
# denominator 192 KiB and the guard mask 12 KiB. A block makes 19 numpy calls,
# so the GRID_N-point hemisphere is 5 blocks, where 20 blocks of 1024 rows on
# fresh temporaries took ~2.1x as long (2-core x86_64, numpy 2.4.6). A
# case-sup check averaged ~0 minor page faults (getrusage ru_minflt) either way.
_BLOCK_ROWS = 4096
# Index pairs (i, j) of the upper triangle of a symmetric 3x3 matrix.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class _RatioForm:
    """eta(y) = sum_s (sum_g sigma[g,s] w[g,s].y)^2 / (sum_g alpha[g,s] (w[g,s].y)^2).

    w[g] are the columns of the g-th frame; the _GUARD keeps evaluations away
    from directions where some denominator term vanishes, and `grad` raises
    SingularDirection where Python floats cannot represent the gradient.

    The order of every floating-point operation is a contract: eta values,
    gradients, Hessians and hence the case reports must match the einsum
    reference in tests/test_cases.py bit for bit, except that where `grad`
    raises, the reference's numpy gradient is inf or nan.
    p[g, s] = w[g, s].y adds the products for i = 0, 1, 2 in order; every
    sum over g or over s runs in index order; denominator terms are
    (alpha * p) * p; m_s = sum_g (alpha * p) * w in g order is half of
    d den_s / dy, which neither alpha * (p * w) nor (alpha * w) * p
    reproduces. Squares are not interchangeable: `value` and `value_many`
    square with x * x (`np.square` on arrays), `grad` with `** 2` on
    scalars, which is libm pow and differs from x * x in the last bit now
    and then. With n_s = d num_lin_s
    / dy, q = num_lin_s / den_s and v = n_s - (2 q) m_s, term s adds (2 /
    den_s) (v_i v_j) - (q M_ij) (2 q) to the Hessian, where M_ij = sum_g
    alpha (w_i w_j) in g order; so every Hessian is symmetric bit for bit.
    The squared norm of y is y0 * y0 + y1 * y1 + y2 * y2 on Python floats,
    never a BLAS dot, whose rounding depends on the kernel that the BLAS
    library picks at run time.

    `grad` and `hess` at one y share one evaluation of the per-term sums
    num_lin_s, den_s and m_s (`_slopes`): the form keeps the last y that the
    guard accepted, keyed by the bytes of y as float64, with its sums, so a
    Newton step's Hessian reuses the sums of its gradient. -0.0 and 0.0 are
    different keys, a y that raises is never kept, and no result depends on
    the calls made before it. `value` makes the same p, num_lin and den
    operations in the same order, without m, lists or the kept entry.
    """

    def __init__(self, alphas, frames, sigma):
        self.alphas = np.asarray(alphas, dtype=float)  # (G, 3)
        self.frames = np.stack([np.asarray(f, dtype=float) for f in frames])  # (G,3,3)
        self.sigma = np.asarray(sigma, dtype=float)  # (G, 3)
        # Per-term denominator scale for the relative guard.
        self.den_scale = np.einsum(
            "gs,gs->s", self.alphas, np.sum(self.frames**2, axis=1)
        )
        # Python-float tables for the scalar kernels: terms[s] lists
        # (sigma, alpha, w_0, w_1, w_2) per frame g, num_dir[s] is the
        # constant n_s = d num_lin_s / dy = sum_g sigma w, and den_mat[s]
        # holds the _UPPER entries of M with den_s = y.M y.
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
        self._den_mat = []
        for terms in self._terms:
            # a plain loop: sum() of floats is compensated from Python 3.12 on
            mat = [0.0] * len(_UPPER)
            for _, ag, *w in terms:
                for k, (i, j) in enumerate(_UPPER):
                    mat[k] += ag * (w[i] * w[j])
            self._den_mat.append(mat)
        # (bytes of y, _slopes at y) of the last direction _slopes accepted
        self._last = (None, None)

    def _slopes(self, y):
        """(num_lin_s, den_s, m_s) per term s at y: num_lin = sum_g sigma p,
        den = sum_g (alpha p) p and m = sum_g (alpha p) w, half of d den / dy,
        with p = w[g,s].y.

        Raises SingularDirection where some den_s is at most _GUARD |y|^2
        den_scale[s], which includes y = 0. The last y accepted is kept with
        its result, keyed by its bytes (see the class docstring).
        """
        ya = np.asarray(y, dtype=float)
        key = ya.tobytes()
        last_key, last = self._last
        if key == last_key:
            return last
        y0, y1, y2 = ya.tolist()
        floor = _GUARD * (y0 * y0 + y1 * y1 + y2 * y2)
        out = []
        for terms, scale in zip(self._terms, self._den_scale):
            nl = dn = m0 = m1 = m2 = 0.0
            for sg, ag, w0, w1, w2 in terms:
                pg = w0 * y0 + w1 * y1 + w2 * y2
                nl += sg * pg
                ap = ag * pg
                dn += ap * pg
                m0 += ap * w0
                m1 += ap * w1
                m2 += ap * w2
            if dn <= floor * scale:
                raise SingularDirection("denominator vanished at this direction")
            out.append((nl, dn, m0, m1, m2))
        self._last = (key, out)
        return out

    def value(self, y) -> float:
        y0, y1, y2 = np.asarray(y, dtype=float).tolist()
        floor = _GUARD * (y0 * y0 + y1 * y1 + y2 * y2)
        total = 0.0
        for terms, scale in zip(self._terms, self._den_scale):
            nl = dn = 0.0
            for sg, ag, w0, w1, w2 in terms:
                pg = w0 * y0 + w1 * y1 + w2 * y2
                nl += sg * pg
                dn += ag * pg * pg
            if dn <= floor * scale:
                raise SingularDirection("denominator vanished at this direction")
            total += nl * nl / dn
        return total

    def value_many(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized values with -inf at guarded rows. ys is (N, 3) unit."""
        yt = np.ascontiguousarray(np.asarray(ys, dtype=float).T)  # (3, N)
        f = self.frames[:, :, :, None]  # (G, i, s, 1)
        sigma, alphas = self.sigma[:, :, None], self.alphas[:, :, None]
        floor = (_GUARD * self.den_scale)[:, None]
        n = yt.shape[1]
        rows = min(n, _BLOCK_ROWS)
        # Buffers for every block; the last one uses their first m rows.
        p_buf, t_buf = np.empty((2, len(f), 3, rows))  # (G, s, rows) each
        num_buf, den_buf = np.empty((2, 3, rows))  # (s, rows) each
        low_buf = np.empty((3, rows), dtype=bool)
        vals = np.empty(n)
        for lo in range(0, n, _BLOCK_ROWS):
            y0, y1, y2 = yt[:, lo : lo + rows]
            m = len(y0)
            p, t, num, den, low = (
                b[..., :m] for b in (p_buf, t_buf, num_buf, den_buf, low_buf)
            )
            # p = (w0 y0 + w1 y1) + w2 y2
            np.multiply(f[:, 0], y0, out=p)
            np.add(p, np.multiply(f[:, 1], y1, out=t), out=p)
            np.add(p, np.multiply(f[:, 2], y2, out=t), out=p)
            # num = (sum_g sigma p)^2, den = sum_g (alpha p) p
            np.square(np.sum(np.multiply(sigma, p, out=t), axis=0, out=num), out=num)
            np.multiply(np.multiply(alphas, p, out=t), p, out=t)
            np.sum(t, axis=0, out=den)
            bad = np.any(np.less_equal(den, floor, out=low), axis=0)
            np.copyto(den, 1.0, where=np.equal(den, 0.0, out=low))
            np.divide(num, den, out=num)
            block = vals[lo : lo + m]
            np.add(np.add(num[0], num[1], out=block), num[2], out=block)
            np.copyto(block, -np.inf, where=bad)
        return vals

    def grad(self, y) -> np.ndarray:
        """The gradient of eta at y in R^3; SingularDirection where a Python
        float square overflows, or one that underflows to 0 is a divisor."""
        slopes = self._slopes(y)
        g0 = g1 = g2 = 0.0
        try:
            for (nl, d, m0, m1, m2), (n0, n1, n2) in zip(slopes, self._num_dir):
                two_nl, nl_sq, d_sq = 2.0 * nl, nl**2, d**2
                g0 += (two_nl * n0 * d - nl_sq * (2.0 * m0)) / d_sq
                g1 += (two_nl * n1 * d - nl_sq * (2.0 * m1)) / d_sq
                g2 += (two_nl * n2 * d - nl_sq * (2.0 * m2)) / d_sq
        except (OverflowError, ZeroDivisionError):
            raise SingularDirection("the gradient is not representable here") from None
        return np.array([g0, g1, g2])

    def hess(self, y) -> np.ndarray:
        """The Hessian of eta at y in R^3, as a symmetric 3x3 array.

        Written through q = num_lin / den, it uses no power of den beyond
        the first: where a product still overflows or den is subnormal, the
        entries come out inf or nan (Python floats raise only on division by
        zero, which the guard rules out), and _ascend falls back to a
        gradient step.
        """
        h00 = h01 = h02 = h11 = h12 = h22 = 0.0
        for (nl, d, m0, m1, m2), (n0, n1, n2), (a00, a01, a02, a11, a12, a22) in zip(
            self._slopes(y), self._num_dir, self._den_mat
        ):
            q = nl / d
            two_q, two_over_d = 2.0 * q, 2.0 / d
            v0, v1, v2 = n0 - two_q * m0, n1 - two_q * m1, n2 - two_q * m2
            h00 += two_over_d * (v0 * v0) - (q * a00) * two_q
            h01 += two_over_d * (v0 * v1) - (q * a01) * two_q
            h02 += two_over_d * (v0 * v2) - (q * a02) * two_q
            h11 += two_over_d * (v1 * v1) - (q * a11) * two_q
            h12 += two_over_d * (v1 * v2) - (q * a12) * two_q
            h22 += two_over_d * (v2 * v2) - (q * a22) * two_q
        return np.array([[h00, h01, h02], [h01, h11, h12], [h02, h12, h22]])


# ---------------------------------------------------------------------------
# Supremum estimation


_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _orthonormal_complement(d) -> tuple:
    """Unit u1, u2 with (u1, u2, d) orthonormal, for a unit d, on Python floats.

    u1 is d x e_k normalised, e_k the first axis on which |d| is smallest,
    and u2 = d x u1.
    """
    k = 1 if abs(d[1]) < abs(d[0]) else 0
    if abs(d[2]) < abs(d[k]):
        k = 2
    u1 = unit(*cross(d, _AXES[k]))
    return u1, cross(d, u1)


def _ascend(start, value, grad, hess, lines):
    """Riemannian Newton ascent of eta on the unit sphere from start.

    eta is 0-homogeneous, so y.grad = 0 and the Riemannian Hessian is
    P H P, P the projector onto y-perp (Absil, Mahony & Sepulchre, 2008,
    ch. 6). Each step solves that 2x2 system in a basis of y-perp and
    backtracks from the full step; where the tangent Hessian is not
    negative definite it takes a gradient step instead. Steps are accepted
    once they gain 1e-4 of their first-order increase.

    value is eta, -inf on excluded directions; grad and hess may raise
    SingularDirection where they cannot be represented. The ascent then
    ends unconverged, as it does on a non-finite tangent gradient (where
    every line-search test would fail) and on an excluded start.

    Returns (y, eta(y), converged, near_line). converged: the tangent
    gradient fell to ASCENT_TOL max(1, |eta|), or no step improves at any
    scale. near_line: the ascent came within LINE_STOP of a singular line
    and stopped there. The iterate, the line test, the tangent projection
    and the step are Python floats; value, grad and hess receive y as an
    array.
    """
    y0, y1, y2 = unit(*map(float, start))
    fy = value(np.array((y0, y1, y2)))
    if fy == -math.inf:
        return np.array((y0, y1, y2)), fy, False, False
    near = math.cos(LINE_STOP)
    step = 0.5
    converged = False
    for _ in range(ASCENT_STEPS):
        for e0, e1, e2 in lines:
            if abs(y0 * e0 + y1 * e1 + y2 * e2) >= near:
                return np.array((y0, y1, y2)), float(fy), False, True
        ya = np.array((y0, y1, y2))
        try:
            g0, g1, g2 = np.asarray(grad(ya), dtype=float).tolist()
        except SingularDirection:
            break
        # the tangent gradient t = g - (g.y) y
        gy = g0 * y0 + g1 * y1 + g2 * y2
        t0, t1, t2 = g0 - gy * y0, g1 - gy * y1, g2 - gy * y2
        gn = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
        if not math.isfinite(gn):
            break
        if gn <= ASCENT_TOL * max(1.0, abs(fy)):
            converged = True
            break
        try:
            h = np.asarray(hess(ya), dtype=float).tolist()
        except SingularDirection:
            break
        # the tangent Hessian and gradient in the basis (u, v) of y-perp
        (u0, u1, u2), (v0, v1, v2) = _orthonormal_complement((y0, y1, y2))
        hu0, hu1, hu2 = (r0 * u0 + r1 * u1 + r2 * u2 for r0, r1, r2 in h)
        hv0, hv1, hv2 = (r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in h)
        h11 = u0 * hu0 + u1 * hu1 + u2 * hu2
        h12 = u0 * hv0 + u1 * hv1 + u2 * hv2
        h22 = v0 * hv0 + v1 * hv1 + v2 * hv2
        det = h11 * h22 - h12 * h12
        b1 = u0 * t0 + u1 * t1 + u2 * t2
        b2 = v0 * t0 + v1 * t1 + v2 * t2
        newton = h11 < 0.0 and det > 0.0
        if newton:
            c1 = (h12 * b2 - h22 * b1) / det
            c2 = (h12 * b1 - h11 * b2) / det
            d0, d1, d2 = c1 * u0 + c2 * v0, c1 * u1 + c2 * v1, c1 * u2 + c2 * v2
            slope, length, s = b1 * c1 + b2 * c2, math.sqrt(c1 * c1 + c2 * c2), 1.0
        else:
            d0, d1, d2, slope, length, s = t0, t1, t2, gn * gn, gn, step
        moved = False
        # Steps shorter than 1e-16 move the unit y by less than its rounding.
        while s * length > 1e-16:
            x0, x1, x2 = unit(y0 + s * d0, y1 + s * d1, y2 + s * d2)
            fc = value(np.array((x0, x1, x2)))
            if fc > fy + 1e-4 * s * slope:
                y0, y1, y2, fy = x0, x1, x2, fc
                if not newton:
                    step = min(1.0, 2.0 * s)
                moved = True
                break
            s *= 0.5
        if not moved:
            # No ascent step improves at any scale: stationary to rounding.
            converged = True
            break
    return np.array((y0, y1, y2)), float(fy), converged, False


def _best_indices(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest finite values, largest first, ties by index.

    The smallest of the finite maxima of the k strided slices vals[j::k]
    is at most the k-th largest finite value, so only the values at or
    above it are sorted: no grid-sized copy or index array is made.
    """
    cut = min(
        np.max(part, initial=-np.inf, where=np.isfinite(part))
        for part in (vals[j::k] for j in range(k))
    )
    idx = np.flatnonzero(vals >= cut)
    idx = idx[np.isfinite(vals[idx])]
    return idx[np.lexsort((idx, -vals[idx]))][:k]


def sup_eta(
    eta_fn, singular_lines, *, grad_fn, hess_fn, eta_many, grid_n: int = GRID_N
) -> SupEtaResult:
    """Estimate sup eta over unit directions off the singular lines.

    eta_many maps an (N, 3) array of unit directions to N values, -inf where
    eta is not defined, and its array is only read; grad_fn and hess_fn are
    the gradient and the 3x3 Hessian in R^3 of eta_fn, which must be
    0-homogeneous. On an excluded direction eta_fn raises SingularDirection
    or returns a non-finite value, and grad_fn and hess_fn raise
    SingularDirection where they cannot be represented; that, a non-finite
    gradient or an excluded start ends an ascent unconverged. Stage 1
    evaluates a deterministic hemisphere lattice and skips its -inf points,
    which for the ratio form include every point near a singular line (its
    guard). Stage 2 runs a Riemannian Newton ascent (_ascend) from the
    REFINE_K best grid points, one per basin: a point within four lattice
    spacings, 4 sqrt(2 pi / grid_n), of a start kept before it, up to sign,
    is dropped. An ascent that steps within LINE_STOP of a singular line
    stops there; its value enters the supremum, not the convergence test.

    The result is a lower bound on the true supremum. `converged` marks a
    stabilized estimate: every ascent that stayed off the lines reached
    stationarity, and at least one did. Values on the lines themselves are
    the caller's to add (case 2 has them in closed form, _line_limit).
    """
    ys = fibonacci_hemisphere(grid_n)
    lines = [unit(*map(float, d)) for d in singular_lines]
    vals = np.asarray(eta_many(ys), dtype=float)
    n_finite = int(np.count_nonzero(np.isfinite(vals)))
    if n_finite == 0:
        raise EmptyDomain("every grid point was excluded or guarded")
    starts = _best_indices(vals, min(REFINE_K, n_finite))

    def safe_value(y):
        try:
            v = eta_fn(y)
        except SingularDirection:
            return -math.inf
        return v if math.isfinite(v) else -math.inf

    best_val = float(vals[starts[0]])
    best_arg = ys[starts[0]].copy()
    converged, off_line = True, False
    same_basin = math.cos(4.0 * math.sqrt(2.0 * math.pi / grid_n))
    basins = []
    for idx in starts.tolist():
        y0 = ys[idx].tolist()
        if any(abs(dot(y0, b)) >= same_basin for b in basins):
            continue
        basins.append(y0)
        yr, fr, conv, near_line = _ascend(y0, safe_value, grad_fn, hess_fn, lines)
        if not near_line:
            converged &= conv
            off_line = True
        if fr > best_val:
            best_val, best_arg = fr, yr
    return SupEtaResult(
        value=float(best_val),
        argmax=best_arg,
        converged=converged and off_line,
    )


def _line_limit(form, s: int, d) -> float | None:
    """lim sup of eta toward the case-2 singular line d of term s, on Python
    floats; None where another term's denominator is within _GUARD on d,
    that is, where two singular lines coincide.

    Near d, term s is (sigma.p)^2 / sum_g alpha p_g^2 with p_g = w[g,s].y,
    and p takes every direction of R^2 across d. By Cauchy-Schwarz the
    term is at most L_s = sum_g sigma[g,s]^2 / alpha[g,s], with equality
    where p is parallel to sigma / alpha. The other terms are continuous
    at d, so the limit is L_s plus their values at d, and points of the
    domain approach it. Only form.alphas, form.frames and form.sigma are
    read.
    """
    total = 0.0
    for t in range(3):
        alphas, sigma = form.alphas[:, t].tolist(), form.sigma[:, t].tolist()
        if t == s:
            term = 0.0
            for ag, sg in zip(alphas, sigma):
                term += sg * sg / ag
        else:
            num = den = scale = 0.0
            for ag, sg, w in zip(alphas, sigma, form.frames[:, :, t].tolist()):
                pg = dot(w, d)
                num += sg * pg
                den += ag * pg * pg
                scale += ag * dot(w, w)
            if den <= _GUARD * scale:
                return None
            term = num * num / den
        total += term
    return total


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


def _split_rank_ones(mats: np.ndarray, count: int):
    vs, ws = [], []
    for s in range(count):
        vw = detect_rank_one(mats[s])
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
    return sol, float(np.linalg.norm(m @ sol - rhs)) / rhs_norm


# Why the positive terms of case 2 or 3 do not group by left vector.
_GROUPING_REASONS = {
    2: "left vectors do not pair up",
    3: "left vectors do not form three triples",
}


def _check_ratio_case(dec: StructuredDecomposition, case_id: int) -> CaseReport:
    """The ratio test shared by cases 2 and 3: sup eta against 1 / (-alpha_neg).

    The positive terms come in g = case_id per shared left vector, pairs in
    case 2 and triples in case 3; the slot-t right vectors form the frame W,
    W_tilde or W_hat, in alpha order within each group.
    """
    g = case_id
    q = 3 * g
    if (dec.r, dec.q) != (q + 1, q):
        raise CaseShapeError(f"expected (r, q) = ({q + 1}, {q}), found ({dec.r}, {dec.q})")
    diag: dict = {}
    # Each term (alpha, U) is taken as (alpha 4^(k - k_max), U 2^-k), k the
    # frexp exponent of max|U| and k_max the largest k: the tensor times
    # 4^-k_max, exactly, term by term, so no right vector, product of them or
    # basis column is far from 1. The alphas are then taken times 2^-e, e
    # putting -alpha_neg in [1, 2) (less where they spread past 2^300, so
    # squares stay finite). That multiplies eta and the threshold by 2^e_eta,
    # e_eta = e + 2 (k_max - k_neg), exactly: every 2^k multiple of a
    # decomposition, and every power-of-two split of a term between alpha
    # and U, runs the same numbers. Reports are at the input's scale.
    ks = np.frexp(np.abs(dec.mats).max(axis=(1, 2)))[1]
    mats = np.ldexp(dec.mats, -ks[:, None, None])
    alphas = np.ldexp(dec.alphas, 2 * (ks - ks.max()))
    e = max(int(np.frexp(-alphas[q])[1]) - 1, int(np.frexp(alphas[:q].max())[1]) - 300)
    alphas = np.ldexp(alphas, -e)
    e_eta = e + 2 * int(ks.max() - ks[q])
    split, bad = _split_rank_ones(mats, q)
    if split is None:
        return _mismatch(case_id, f"positive term {bad} is not rank-one", diag)
    vs, ws = split
    groups = _group_shared_v(vs, g)
    if groups is None:
        return _mismatch(case_id, _GROUPING_REASONS[case_id], diag)
    diag["groups"] = [list(grp) for grp in groups]

    # Slot t of every group goes to frame t, with w flipped to match v's sign:
    # cols[t, s] is the term in slot t of group s.
    cols = np.array(groups).T
    V = np.column_stack([vs[i] for i in cols[0]])
    frames = [
        np.column_stack([ws[i] if vs[i] @ V[:, s] > 0.0 else -ws[i] for s, i in enumerate(row)])
        for row in cols
    ]
    W, W_tilde, W_hat = (frames + [None])[:3]
    ok, diag["cond_V"] = _nonsingular(V)
    if not ok:
        return _mismatch(case_id, "frame V is singular", diag)
    # A y^2 = V (diag(D(y)) + alpha_neg n(y) n(y)^T) V^T with D_s = sum_g
    # alpha (w.y)^2 and n_s = sum_g sigma (w.y): eta = sum n_s^2 / D_s reads
    # the right vectors group by group, so only V must be nonsingular. The
    # slot frames follow alpha order, and their conditions are diagnostics.
    for name, mat in zip(("W", "W_tilde", "W_hat"), frames):
        diag[f"cond_{name}"] = _nonsingular(mat)[1]

    # Pairs: eta is singular along the cross product of each pair, so the
    # pair must not be collinear. Triples: each must be independent, which
    # keeps the denominator positive on the whole sphere.
    if g == 2:
        crosses = [cross(W[:, s].tolist(), W_tilde[:, s].tolist()) for s in range(3)]
        sines = []
        for s in range(3):
            denom = np.linalg.norm(W[:, s]) * np.linalg.norm(W_tilde[:, s])
            sines.append(float(np.linalg.norm(crosses[s]) / denom))
        diag["pair_sines"] = sines
        if min(sines) < TOL:
            return _mismatch(case_id, "paired right vectors are collinear", diag)
        lines = [unit(*cr) for cr in crosses]
    else:
        dets = []
        for s in range(3):
            trip = np.column_stack([W[:, s], W_tilde[:, s], W_hat[:, s]])
            scale = np.prod([np.linalg.norm(trip[:, c]) for c in range(3)])
            dets.append(float(abs(np.linalg.det(trip)) / scale))
        diag["triple_dets"] = dets
        if min(dets) < TOL:
            return _mismatch(case_id, "a right-vector triple is linearly dependent", diag)
        lines = []

    basis = [np.outer(V[:, s], F[:, s]) for F in frames for s in range(3)]
    sigma, rel_resid = _recover_sigma(basis, mats[q])
    diag["sigma_residual"] = rel_resid
    if rel_resid > TOL:
        return _mismatch(case_id, "negative term lies outside the rank-one span", diag)

    # A coefficient the scaling took to 0 would divide _line_limit by 0.
    if not alphas.all():
        return _mismatch(case_id, "coefficients spread past the float range", diag)
    form = _RatioForm(alphas[cols], frames, sigma.reshape(g, 3))
    line_limits = [_line_limit(form, s, d) for s, d in enumerate(lines)]
    if None in line_limits:
        return _mismatch(case_id, "singular lines coincide", diag)
    sup = sup_eta(
        form.value, lines, grad_fn=form.grad, hess_fn=form.hess, eta_many=form.value_many
    )
    threshold = 1.0 / (-float(dec.alphas[q]))
    limit = float(np.ldexp(threshold, e_eta))  # the scaled threshold
    # sup eta is the larger of the interior estimate and the line limits;
    # a limit is exact, so where one is larger the estimate is stable.
    value, argmax, stable = sup.value, sup.argmax, sup.converged
    for d, v in zip(lines, line_limits):
        if v > value:
            value, argmax, stable = v, np.array(d), True
    diag["sup_converged"] = stable
    if g == 2:
        diag["singular_lines"] = [list(d) for d in lines]
        diag["line_limits"] = [float(np.ldexp(v, -e_eta)) for v in line_limits]

    if value > limit + TOL:
        verdict = CASE_NOT_MPSD
    elif not stable:
        return _mismatch(case_id, "supremum estimate did not stabilize", diag)
    elif case_id == 3 and value < limit - TOL:
        verdict = CASE_MPD
    else:
        verdict = CASE_MPSD
    return CaseReport(
        case_id,
        verdict,
        structure_ok=True,
        sigma=np.ldexp(sigma, np.ravel(ks[q] - ks[cols])),
        eta_sup=float(np.ldexp(value, -e_eta)),
        eta_argmax=argmax,
        threshold=threshold,
        boundary=abs(value - limit) <= TOL,
        structure=CaseStructure(
            V, *[np.ldexp(F, k) for F, k in zip(frames, ks[cols])], *[None] * (3 - g)
        ),
        diagnostics=diag,
    )


def check_case2(dec: StructuredDecomposition) -> CaseReport:
    """Necessary-and-sufficient nonnegativity test for the (r, q) = (7, 6) shape.

    Structure: six rank-one positive terms pairing three shared left vectors
    into a nonsingular frame V, independent partner right vectors, and the
    negative term inside the span of the six rank-one matrices; the slot
    frames W and W_tilde may be singular. Then nonnegativity is sup eta <=
    1 / (-alpha_7) over directions off the three singular lines. This shape
    is never strictly positive.
    """
    return _check_ratio_case(dec, 2)


def check_case3(dec: StructuredDecomposition) -> CaseReport:
    """Positivity test for the (r, q) = (10, 9) shape; can certify strictness.

    Structure: nine rank-one positive terms tripling three shared left
    vectors into a nonsingular frame V, with each right-vector triple
    linearly independent (which makes the ratio denominator positive on the
    whole sphere); the slot frames W, W_tilde and W_hat may be singular.
    Then max eta < 1 / (-alpha_10) certifies strict positivity, equality
    within tolerance gives the boundary verdict, and excess refutes
    nonnegativity.
    """
    return _check_ratio_case(dec, 3)


def check_case(dec: StructuredDecomposition) -> CaseReport | None:
    """Run the case checker whose shape matches dec: case 1 for q = 3 (any r),
    case 2 for (r, q) = (7, 6), case 3 for (10, 9); None for any other shape."""
    if dec.q == 3:
        return check_case1(dec)
    if (dec.r, dec.q) == (7, 6):
        return check_case2(dec)
    if (dec.r, dec.q) == (10, 9):
        return check_case3(dec)
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
