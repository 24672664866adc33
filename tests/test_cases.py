"""Structured-decomposition analysis: shapes, eta ratios, supremum bounds."""

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cases
from ellipticity_lab.cases import CaseStructure, _group_shared_v, case_report_to_doc
from ellipticity_lab.errors import (
    DecompositionMismatch,
    DegenerateDenominator,
    EmptyDomain,
    NotCase1,
    NotCase2,
    NotCase3,
    SingularDirection,
)
from ellipticity_lab.spheres import fibonacci_hemisphere

rng = np.random.default_rng(2718)
E3 = np.eye(3)


def axis_outer(i, j):
    return np.outer(E3[:, i], E3[:, j])


# ---------------------------------------------------------------------------
# decomposition containers


def test_structured_decomposition_ordering():
    dec = el.StructuredDecomposition(
        np.array([-0.5, 2.0, -1.5, 3.0]), rng.standard_normal((4, 3, 3))
    )
    assert np.array_equal(dec.alphas, [3.0, 2.0, -0.5, -1.5])
    assert dec.q == 2 and dec.r == 4
    # equal alphas of either sign keep input order; term s carries s * I
    alphas = np.array([-1.0, 2.0, -1.0, 2.0, -1.0, 2.0, 5.0])
    dec = el.StructuredDecomposition(alphas, np.arange(7.0)[:, None, None] * E3)
    assert np.array_equal(dec.alphas, [5.0, 2.0, 2.0, 2.0, -1.0, -1.0, -1.0])
    assert [u[0, 0] for u in dec.mats] == [6.0, 1.0, 3.0, 5.0, 0.0, 2.0, 4.0]


def test_structured_decomposition_rejects_zero_alpha():
    with pytest.raises(ValueError):
        el.StructuredDecomposition(np.array([1.0, 0.0]), np.zeros((2, 3, 3)))


def test_require_decomposition_of():
    choi, dec = el.tensor_choi_lam(1.0), el.choi_lam_case2_decomposition(1.0)
    iso = el.tensor_isotropic(-3.0, 0.1)
    # the test does not depend on scale: 2^k-scaled pairs pass or fail alike
    for k in (-900, -40, 0, 40, 900):
        scaled = el.StructuredDecomposition(np.ldexp(dec.alphas, k), dec.mats)
        cases.require_decomposition_of(el.Elast4(np.ldexp(choi.a, k)), scaled, 1e-8)
        with pytest.raises(DecompositionMismatch):
            cases.require_decomposition_of(el.Elast4(np.ldexp(iso.a, k)), scaled, 1e-8)
    # a decomposition of the zero tensor describes it
    zero = el.StructuredDecomposition(np.zeros(0), np.zeros((0, 3, 3)))
    cases.require_decomposition_of(el.Elast4(np.zeros((3, 3, 3, 3))), zero, 1e-8)


def test_spectral_decomposition_reconstructs():
    t = el.random_tensor(rng)
    dec = el.spectral_decomposition(t)
    m = sum(a * np.outer(el.vec(u), el.vec(u)) for a, u in dec.terms)
    assert np.allclose(m, el.unfold(t), atol=1e-10)
    # positives first, each block descending
    al = dec.alphas
    assert np.all(al[: dec.q] > 0) and np.all(al[dec.q :] < 0)
    assert np.all(np.diff(al[: dec.q]) <= 0)
    assert np.all(np.diff(al[dec.q :]) <= 0)


def test_spectral_decomposition_two_squares_shape():
    # unfolding spectrum {3, 2, 1, 1, -1, 0 x4}: four positives, one negative
    dec = el.spectral_decomposition(el.tensor_two_squares())
    assert (dec.r, dec.q) == (5, 4)


def test_spectral_decomposition_zero_tensor():
    dec = el.spectral_decomposition(el.Elast4(np.zeros((3, 3, 3, 3))))
    assert dec.r == 0


def test_reconstruct_yy_matches_contraction():
    g = 1.3
    dec = el.choi_lam_case2_decomposition(g)
    t = el.tensor_choi_lam(g)
    for _ in range(5):
        y = rng.standard_normal(3)
        assert np.allclose(el.reconstruct_yy(dec, y), el.contract_yy(t, y), atol=1e-12)


def test_detect_rank_one():
    v = np.array([0.6, -0.8, 0.0])
    w = np.array([1.0, 2.0, -3.0])
    got = el.detect_rank_one(np.outer(v, w))
    assert got is not None
    gv, gw = got
    assert np.allclose(np.outer(gv, gw), np.outer(v, w), atol=1e-12)
    assert abs(np.linalg.norm(gv) - 1.0) < 1e-12
    assert gv[np.argmax(np.abs(gv))] > 0
    # rank >= 2 and zero inputs are rejected
    assert el.detect_rank_one(np.eye(3)) is None
    assert el.detect_rank_one(np.zeros((3, 3))) is None


def test_group_shared_v():
    vs = [E3[:, 0], E3[:, 1], E3[:, 2], -E3[:, 0], E3[:, 1], E3[:, 2]]
    assert _group_shared_v(vs, 2) == [(0, 3), (1, 4), (2, 5)]
    # a left vector repeated three times cannot split into pairs
    assert _group_shared_v(vs[:5] + [E3[:, 0]], 2) is None


# ---------------------------------------------------------------------------
# case 1


def case1_example(alpha_neg):
    mats = np.stack(
        [axis_outer(0, 0), axis_outer(1, 1), axis_outer(2, 2), np.diag([1.0, 1.0, 0.0])]
    )
    return el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, alpha_neg]), mats)


def test_case1_boundary_example():
    # C = I - 0.5 s s^T with s = (1,1,0): eigenvalues {0, 1, 1}
    rep = el.check_case1(case1_example(-0.5))
    assert rep.verdict == el.CASE_MPSD
    assert rep.structure_ok and rep.boundary
    assert np.allclose(np.linalg.eigvalsh(rep.C_matrix), [0.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(rep.sigma, [[1.0, 1.0, 0.0]], atol=1e-12)


def test_case1_negative_example():
    # C = I - 1.5 s s^T: eigenvalues {-2, 1, 1}
    rep = el.check_case1(case1_example(-1.5))
    assert rep.verdict == el.CASE_NOT_MPSD
    assert not rep.boundary
    assert np.allclose(np.linalg.eigvalsh(rep.C_matrix), [-2.0, 1.0, 1.0], atol=1e-12)


def test_case1_no_negatives_is_mpsd():
    mats = np.stack([axis_outer(s, s) for s in range(3)])
    rep = el.check_case1(el.StructuredDecomposition(np.array([1.0, 2.0, 3.0]), mats))
    assert rep.verdict == el.CASE_MPSD and not rep.boundary


def test_case1_wrong_shape_raises():
    mats = np.stack([axis_outer(s, s) for s in range(2)])
    with pytest.raises(NotCase1):
        el.check_case1(el.StructuredDecomposition(np.array([1.0, 1.0]), mats))


def test_case1_mismatch_full_rank_positive():
    mats = np.stack(
        [np.eye(3), axis_outer(1, 1), axis_outer(2, 2), np.diag([1.0, 1.0, 0.0])]
    )
    rep = el.check_case1(el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, -0.5]), mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert not rep.structure_ok
    assert "rank-one" in rep.diagnostics["reason"]


def test_case1_mismatch_offdiagonal_negative():
    mats = np.stack(
        [axis_outer(0, 0), axis_outer(1, 1), axis_outer(2, 2), axis_outer(0, 1) + axis_outer(1, 0)]
    )
    rep = el.check_case1(el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, -0.5]), mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert "diagonal" in rep.diagnostics["reason"]


def test_case1_general_frames():
    # conjugating by nonsingular frames permutes C but keeps its spectrum
    V = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    W = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    sigma = np.array([0.7, -0.4, 1.1])
    mats = [np.outer(V[:, s], W[:, s]) for s in range(3)]
    mats.append(V @ np.diag(sigma) @ W.T)
    dec = el.StructuredDecomposition(np.array([1.0, 1.2, 0.9, -0.6]), np.stack(mats))
    rep = el.check_case1(dec)
    assert rep.structure_ok
    C_want = np.diag([1.0, 1.2, 0.9]) - 0.6 * np.outer(sigma, sigma)
    assert np.allclose(
        np.linalg.eigvalsh(rep.C_matrix), np.linalg.eigvalsh(C_want), atol=1e-9
    )


def test_case1_redecomposition():
    dec = case1_example(-0.5)
    red = el.case1_positive_redecomposition(dec)
    assert np.all(red.alphas > 0)
    for _ in range(5):
        y = rng.standard_normal(3)
        assert np.allclose(el.reconstruct_yy(red, y), el.reconstruct_yy(dec, y), atol=1e-12)
    t = el.tensor_from_rank_one_terms(red.alphas, red.mats)
    assert el.certify_mpsd(t).certified


def test_case1_redecomposition_rejects_notmpsd():
    with pytest.raises(ValueError):
        el.case1_positive_redecomposition(case1_example(-1.5))


# ---------------------------------------------------------------------------
# eta ratios


def choi_structure():
    W_tilde = np.column_stack([E3[:, (s + 1) % 3] for s in range(3)])
    sigma = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    return CaseStructure(2, np.eye(3), np.eye(3), W_tilde, None, sigma)


def test_eta_case2_closed_form():
    # eta(y) = sum_s y_s^2 / (2 y_s^2 + g y_{s+1}^2), hand-expanded from the
    # frames W = I, W_tilde = cyclic shift, sigma = (1,1,1,0,0,0)
    g = 1.0
    cs = choi_structure()
    alphas = np.array([2.0, 2.0, 2.0, g, g, g, -1.0])
    for _ in range(10):
        y = rng.standard_normal(3)
        want = sum(
            y[s] ** 2 / (2 * y[s] ** 2 + g * y[(s + 1) % 3] ** 2) for s in range(3)
        )
        assert np.isclose(el.eta_case2(cs, alphas, y), want, atol=1e-12)


def test_eta_case2_value_at_uniform_point():
    cs = choi_structure()
    alphas = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0, -1.0])
    u = np.ones(3) / np.sqrt(3)
    assert np.isclose(el.eta_case2(cs, alphas, u), 1.0, atol=1e-14)


def test_eta_case2_singular_direction():
    cs = choi_structure()
    alphas = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0, -1.0])
    with pytest.raises(SingularDirection):
        el.eta_case2(cs, alphas, np.array([0.0, 0.0, 1.0]))


def test_eta_case3_constant_value():
    # orthonormal triple frames make every denominator |y|^2, so eta == 1
    W_tilde = np.column_stack([E3[:, (s + 1) % 3] for s in range(3)])
    W_hat = np.column_stack([E3[:, (s + 2) % 3] for s in range(3)])
    sigma = np.concatenate([np.ones(3), np.zeros(6)])
    cs = CaseStructure(3, np.eye(3), np.eye(3), W_tilde, W_hat, sigma)
    alphas = np.concatenate([np.ones(9), [-1.0]])
    for _ in range(5):
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        assert np.isclose(el.eta_case3(cs, alphas, y), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sup_eta


def test_sup_eta_quadratic_maximum():
    # f(y) = 2 y.u - 1 on the sphere peaks at u with value 1
    u = np.array([0.0, 0.6, 0.8])

    def f(y):
        yn = np.asarray(y, dtype=float)
        yn = yn / np.linalg.norm(yn)
        return float(2.0 * yn @ u - 1.0)

    def grad(y):
        n = np.linalg.norm(y)
        return 2.0 * (u - (y @ u) * y / n**2) / n

    res = el.sup_eta(f, [], grid_n=2000, eta_many=lambda ys: 2.0 * ys @ u - 1.0, grad_fn=grad)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9
    assert np.linalg.norm(res.argmax - u) < 1e-4
    assert res.excluded == 0


def test_sup_eta_excludes_singular_lines():
    # peak capped near an excluded line: exclusion plus the evaluation guard
    # must keep both the grid and the refinement off the pole
    def f(y):
        yn = np.asarray(y, dtype=float)
        yn = yn / np.linalg.norm(yn)
        v = float(yn[2] ** 2)
        return None if v > 1.0 - 1e-6 else v

    def f_many(ys):
        v = ys[:, 2] ** 2
        return np.where(v > 1.0 - 1e-6, -np.inf, v)

    def grad(y):
        n2 = y @ y
        return 2.0 * y[2] * (np.array([0.0, 0.0, 1.0]) - y[2] * y / n2) / n2

    res = el.sup_eta(
        f,
        [np.array([0.0, 0.0, 1.0])],
        angular_tol=0.3,
        grid_n=2000,
        eta_many=f_many,
        grad_fn=grad,
    )
    assert res.excluded > 0
    assert res.value <= 1.0 - 9e-7


def test_sup_eta_empty_domain():
    with pytest.raises(EmptyDomain):
        el.sup_eta(
            lambda y: None,
            [],
            grid_n=200,
            eta_many=lambda ys: np.full(len(ys), -np.inf),
            grad_fn=lambda y: np.zeros(3),
        )


def test_sup_eta_propagates_foreign_grad_errors():
    # only the guard errors end an ascent quietly; a broken gradient surfaces
    def grad(y):
        raise TypeError("broken gradient")

    with pytest.raises(TypeError):
        el.sup_eta(lambda y: float(y[2]), [], grad_fn=grad, eta_many=lambda ys: ys[:, 2], grid_n=200)


def test_sup_eta_leaves_the_callers_values_alone():
    # the grid values may be a read-only view of the cached lattice, or an
    # array the caller keeps; excluded points must not be written into it
    line = [np.array([0.0, 0.0, 1.0])]
    height = fibonacci_hemisphere(2000)[:, 2]
    assert not height.flags.writeable
    kept = height.copy()
    for values in (height, kept):
        res = el.sup_eta(
            lambda y: float(y[2]),
            line,
            angular_tol=0.3,
            grid_n=2000,
            eta_many=lambda ys: values,
            grad_fn=lambda y: np.array([0.0, 0.0, 1.0]),
        )
        assert res.excluded > 0
    assert np.array_equal(kept, height)


# ---------------------------------------------------------------------------
# case 2


def test_case2_boundary():
    rep = el.check_case2(el.choi_lam_case2_decomposition(1.0))
    assert rep.verdict == el.CASE_MPSD
    assert rep.structure_ok and rep.boundary
    assert rep.threshold == 1.0
    assert abs(rep.eta_sup - 1.0) <= 1e-6
    assert np.allclose(rep.sigma, [1, 1, 1, 0, 0, 0], atol=1e-10)
    # eta maximizers are the uniform-magnitude directions
    assert np.allclose(np.abs(rep.eta_argmax), np.ones(3) / np.sqrt(3), atol=1e-5)
    # singular lines recovered as the coordinate axes
    lines = np.abs(np.asarray(rep.diagnostics["singular_lines"]))
    order = np.argsort(np.argmax(lines, axis=1))
    assert np.allclose(lines[order], np.eye(3), atol=1e-12)


def test_case2_interior_strictly_below():
    # for gamma > 1 the supremum 1 is approached only toward the excluded
    # axes; the probe trend is what stabilizes the estimate
    rep = el.check_case2(el.choi_lam_case2_decomposition(1.2))
    assert rep.verdict == el.CASE_MPSD
    assert rep.boundary
    assert rep.eta_sup <= 1.0 + 1e-9


def test_case2_violated_threshold():
    base = el.choi_lam_case2_decomposition(1.0)
    dec = el.StructuredDecomposition(
        np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0, -1.2]), base.mats
    )
    rep = el.check_case2(dec)
    assert rep.verdict == el.CASE_NOT_MPSD
    assert rep.eta_sup > rep.threshold + 1e-8
    assert abs(rep.threshold - 1.0 / 1.2) < 1e-15


def test_case2_wrong_shape_raises():
    with pytest.raises(NotCase2):
        el.check_case2(el.spectral_decomposition(el.tensor_two_squares()))


def test_case2_mismatch_unpaired_lefts():
    # six rank-one terms with six generic left vectors cannot pair up
    vs = rng.standard_normal((6, 3))
    mats = [np.outer(vs[s] / np.linalg.norm(vs[s]), E3[:, s % 3]) for s in range(6)]
    mats.append(np.eye(3))
    dec = el.StructuredDecomposition(
        np.concatenate([np.ones(6), [-1.0]]), np.stack(mats)
    )
    rep = el.check_case2(dec)
    assert rep.verdict == el.CASE_MISMATCH
    assert "pair" in rep.diagnostics["reason"]


def test_case2_mismatch_collinear_pair():
    # left vector e1 gets right vectors e1 and e1; W_tilde = [e1, e3, e2] stays nonsingular
    base = el.choi_lam_case2_decomposition(1.0)
    mats = base.mats.copy()
    mats[3] = axis_outer(0, 0)
    mats[5] = axis_outer(2, 1)
    rep = el.check_case2(el.StructuredDecomposition(base.alphas.copy(), mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert "collinear" in rep.diagnostics["reason"]
    assert min(rep.diagnostics["pair_sines"]) == 0.0


def test_case2_mismatch_negative_outside_span():
    base = el.choi_lam_case2_decomposition(1.0)
    mats = base.mats.copy()
    mats[6] = axis_outer(1, 0)  # v = e2, w = e1: not in the paired span
    rep = el.check_case2(el.StructuredDecomposition(base.alphas.copy(), mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert "span" in rep.diagnostics["reason"]


# ---------------------------------------------------------------------------
# case 3


def case3_dec(c):
    mats = [axis_outer(s, s) for s in range(3)]
    mats += [axis_outer(s, (s + 1) % 3) for s in range(3)]
    mats += [axis_outer(s, (s + 2) % 3) for s in range(3)]
    mats.append(c * np.eye(3))
    return el.StructuredDecomposition(np.array([1.0] * 9 + [-1.0]), np.stack(mats))


def test_case3_strict():
    # eta(y) = c^2 exactly (denominators are |y|^2), so c = 0.5 gives 0.25
    rep = el.check_case3(case3_dec(0.5))
    assert rep.verdict == el.CASE_MPD
    assert not rep.boundary
    assert abs(rep.eta_sup - 0.25) < 1e-9


def test_case3_boundary():
    rep = el.check_case3(case3_dec(1.0))
    assert rep.verdict == el.CASE_MPSD
    assert rep.boundary
    assert abs(rep.eta_sup - 1.0) < 1e-9


def test_case3_violated():
    rep = el.check_case3(case3_dec(2.0))
    assert rep.verdict == el.CASE_NOT_MPSD
    assert abs(rep.eta_sup - 4.0) < 1e-8


def test_case3_mismatch_not_triples():
    # the last term moves from left vector e3 to e1: groups of 4, 3 and 2
    base = case3_dec(0.5)
    mats = base.mats.copy()
    mats[8] = axis_outer(0, 1)
    rep = el.check_case3(el.StructuredDecomposition(base.alphas.copy(), mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert "triples" in rep.diagnostics["reason"]


def test_case3_mismatch_dependent_triple():
    # left vector e1 gets right vectors e1, e2 and e1 + e2; all frames stay nonsingular
    base = case3_dec(0.5)
    mats = base.mats.copy()
    mats[6] = np.outer(E3[:, 0], E3[:, 0] + E3[:, 1])
    mats[8] = np.outer(E3[:, 2], E3[:, 1] + E3[:, 2])
    rep = el.check_case3(el.StructuredDecomposition(base.alphas.copy(), mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert "linearly dependent" in rep.diagnostics["reason"]
    dets = rep.diagnostics["triple_dets"]
    assert dets[0] < 1e-12 and min(dets[1:]) > 0.1


def test_case3_wrong_shape_raises():
    with pytest.raises(NotCase3):
        el.check_case3(el.choi_lam_case2_decomposition(1.0))


def test_case3_verdicts_match_oracle():
    # the induced form is |x|^2 |y|^2 - c^2 (x.y)^2 with sphere minimum 1 - c^2
    for c, want in ((0.5, el.ORACLE_MPD_LIKELY), (2.0, el.ORACLE_NOT_MPSD)):
        dec = case3_dec(c)
        t = el.tensor_from_rank_one_terms(dec.alphas, dec.mats)
        assert el.oracle_verdict(t, n=500).verdict == want


# ---------------------------------------------------------------------------
# ratio kernels against their einsum reference


class EinsumRatioForm:
    """The einsum formulation of cases._RatioForm, the reference whose every
    value, gradient and guard decision the kernels must reproduce exactly."""

    def __init__(self, alphas, frames, sigma, error_cls, guard=1e-13):
        self.alphas = np.asarray(alphas, dtype=float)  # (G, 3)
        self.frames = np.stack([np.asarray(f, dtype=float) for f in frames])  # (G,3,3)
        self.sigma = np.asarray(sigma, dtype=float)  # (G, 3)
        self.error_cls = error_cls
        self.den_scale = np.einsum(
            "gs,gs->s", self.alphas, np.sum(self.frames**2, axis=1)
        )
        self.guard = guard

    def _parts(self, y):
        p = np.einsum("gis,i->gs", self.frames, y)
        num_lin = np.sum(self.sigma * p, axis=0)
        den = np.sum(self.alphas * p * p, axis=0)
        return p, num_lin, den

    def value(self, y):
        yv = np.asarray(y, dtype=float)
        nrm2 = float(yv @ yv)
        if nrm2 == 0.0:
            raise self.error_cls("zero direction")
        _, num_lin, den = self._parts(yv)
        if np.any(den <= self.guard * nrm2 * self.den_scale):
            raise self.error_cls("denominator vanished at this direction")
        return float(np.sum(num_lin**2 / den))

    def value_or_none(self, y):
        try:
            return self.value(y)
        except self.error_cls:
            return None

    def value_many(self, ys):
        p = np.einsum("gis,ni->gns", self.frames, ys)
        num = np.sum(self.sigma[:, None, :] * p, axis=0) ** 2
        den = np.sum(self.alphas[:, None, :] * p * p, axis=0)
        bad = np.any(den <= self.guard * self.den_scale, axis=1)
        den = np.where(den == 0.0, 1.0, den)
        vals = np.sum(num / den, axis=1)
        vals[bad] = -np.inf
        return vals

    def grad(self, y):
        yv = np.asarray(y, dtype=float)
        p, num_lin, den = self._parts(yv)
        if np.any(den <= self.guard * float(yv @ yv) * self.den_scale):
            raise self.error_cls("denominator vanished at this direction")
        num_dir = np.einsum("gs,gis->is", self.sigma, self.frames)
        den_dir = 2.0 * np.einsum("gs,gs,gis->is", self.alphas, p, self.frames)
        grad = np.zeros(3)
        for s in range(3):
            grad += (
                2.0 * num_lin[s] * num_dir[:, s] * den[s]
                - num_lin[s] ** 2 * den_dir[:, s]
            ) / den[s] ** 2
        return grad


def rotation(gen):
    q, r = np.linalg.qr(gen.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def rotated(dec, gen):
    left, right = rotation(gen), rotation(gen)
    return el.StructuredDecomposition(dec.alphas.copy(), left @ dec.mats @ right.T)


class FormBuilt(Exception):
    """Stops a case checker once it has built its ratio form."""


def built_form(monkeypatch, check, dec):
    """The _RatioForm and singular lines a case checker hands to sup_eta."""
    seen = []

    def capture(eta_fn, lines, *args, **kwargs):
        seen.append((eta_fn.__self__, [np.asarray(d, dtype=float) for d in lines]))
        raise FormBuilt

    monkeypatch.setattr(cases, "sup_eta", capture)
    with pytest.raises(FormBuilt):
        check(dec)
    monkeypatch.undo()
    return seen[0]


def outcome(fn, y):
    try:
        return fn(y)
    except (SingularDirection, DegenerateDenominator) as exc:
        return type(exc)


def same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b)


def same_bits(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a.tobytes() == b.tobytes()


def near_lines(lines, gen, per_line=100):
    """Points exactly on each line and up to 1e-6 rad off it."""
    pts = []
    for d in lines:
        u1, u2 = cases._orthonormal_complement(d / np.linalg.norm(d))
        pts.append(d)
        for theta in np.logspace(-16, -6, per_line):
            phi = gen.uniform(0.0, 2.0 * np.pi)
            off = np.cos(phi) * u1 + np.sin(phi) * u2
            pts.append(np.cos(theta) * d + np.sin(theta) * off)
    return np.array(pts)


RATIO_FORMS = [
    ("case2", 0.8, False),
    ("case2", 1.6, False),
    ("case2", 1.2, True),
    ("case3", 0.5, True),
    ("case3", 1.3, True),
]


@pytest.mark.parametrize("kind, param, rotate", RATIO_FORMS)
def test_ratio_kernels_match_einsum_reference(monkeypatch, kind, param, rotate):
    gen = np.random.default_rng([31, int(10 * param), int(rotate)])
    if kind == "case2":
        dec, check = el.choi_lam_case2_decomposition(param), el.check_case2
    else:
        dec, check = case3_dec(param), el.check_case3
    if rotate:
        dec = rotated(dec, gen)
    form, lines = built_form(monkeypatch, check, dec)
    ref = EinsumRatioForm(form.alphas, form.frames, form.sigma, form.error_cls)
    assert (len(lines) == 3) == (kind == "case2")

    ys = gen.standard_normal((5000, 3))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    extra = near_lines(lines, gen) if lines else np.empty((0, 3))
    for y in np.vstack([ys, extra, np.zeros((1, 3))]):
        for name in ("value", "grad"):
            got, want = outcome(getattr(form, name), y), outcome(getattr(ref, name), y)
            assert same(got, want), (name, y, got, want)
    # the guard is exercised: the zero vector and points on the lines
    assert outcome(form.value, np.zeros(3)) is form.error_cls
    for d in lines:
        assert outcome(form.grad, d) is form.error_cls

    for batch in (fibonacci_hemisphere(20000), ys, extra / np.linalg.norm(extra, axis=1)[:, None]):
        assert np.array_equal(form.value_many(batch), ref.value_many(batch))


@pytest.mark.parametrize("kind", ["case2", "case3"])
@pytest.mark.parametrize("alpha_scale, mat_scale", [(1e160, 1.0), (1.0, 1e80), (1e-300, 1.0)])
def test_ratio_checkers_at_extreme_scales_match_einsum_reference(
    monkeypatch, kind, alpha_scale, mat_scale
):
    # Squared denominators here overflow past 1e308 or underflow to 0, where
    # Python floats raise and numpy scalars give inf, 0 or nan.
    if kind == "case2":
        base, check = el.choi_lam_case2_decomposition(1.0), el.check_case2
    else:
        base, check = case3_dec(0.5), el.check_case3
    dec = el.StructuredDecomposition(base.alphas * alpha_scale, base.mats * mat_scale)
    ys = np.random.default_rng(37).standard_normal((500, 3))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        form, _ = built_form(monkeypatch, check, dec)
        ref = EinsumRatioForm(form.alphas, form.frames, form.sigma, form.error_cls)
        for y in ys:
            got, want = outcome(form.grad, y), outcome(ref.grad, y)
            # bit for bit, so that nan gradients compare too
            assert same_bits(got, want), (y, got, want)
        got = el.dumps_report(case_report_to_doc(check(dec, grid_n=2000)))
        monkeypatch.setattr(cases, "_RatioForm", EinsumRatioForm)
        want = el.dumps_report(case_report_to_doc(check(dec, grid_n=2000)))
    assert got == want


# ---------------------------------------------------------------------------
# report plumbing


@pytest.mark.parametrize(
    "r, q, want",
    [
        (3, 3, "check_case1"),
        (4, 3, "check_case1"),
        (5, 3, "check_case1"),
        (7, 6, "check_case2"),
        (10, 9, "check_case3"),
        (9, 9, None),
        (5, 4, None),
        (0, 0, None),
    ],
)
def test_check_case_dispatches_on_shape(monkeypatch, r, q, want):
    # the checkers are looked up through the module, where a tracer wraps them
    calls = []
    for name in ("check_case1", "check_case2", "check_case3"):
        def record(dec, name=name, **kwargs):
            calls.append((name, kwargs))
            return name
        monkeypatch.setattr(cases, name, record)
    alphas = np.array([1.0] * q + [-1.0] * (r - q))
    dec = el.StructuredDecomposition(alphas, np.zeros((r, 3, 3)))
    assert cases.check_case(dec, 1e-6, 500) == want
    kwargs = {"tol": 1e-6} if want == "check_case1" else {"tol": 1e-6, "grid_n": 500}
    assert calls == ([] if want is None else [(want, kwargs)])


def test_case_report_doc_serializable():
    for rep in (
        el.check_case1(case1_example(-0.5)),
        el.check_case2(el.choi_lam_case2_decomposition(1.0)),
        el.check_case3(case3_dec(0.5)),
    ):
        doc = case_report_to_doc(rep)
        el.dumps_report(doc)
        assert doc["verdict"] == rep.verdict
        assert doc["structure"]["V"] is not None


def test_ratio_case_diagnostic_keys():
    common = {"groups", "cond_V", "cond_W", "cond_W_tilde", "sigma_residual", "sup_converged"}
    rep2 = el.check_case2(el.choi_lam_case2_decomposition(1.0))
    assert set(rep2.diagnostics) == common | {"pair_sines", "singular_lines", "probes"}
    rep3 = el.check_case3(case3_dec(0.5))
    assert set(rep3.diagnostics) == common | {"cond_W_hat", "triple_dets"}


def test_case_report_doc_mismatch():
    rep1 = el.check_case1(
        el.StructuredDecomposition(
            np.array([1.0, 1.0, 1.0, -0.5]),
            np.stack([np.eye(3), axis_outer(1, 1), axis_outer(2, 2), np.eye(3)]),
        )
    )
    base = el.choi_lam_case2_decomposition(1.0)
    mats = base.mats.copy()
    mats[6] = axis_outer(1, 0)  # the negative term leaves the paired span
    rep2 = el.check_case2(el.StructuredDecomposition(base.alphas.copy(), mats))
    base = case3_dec(0.5)
    mats = base.mats.copy()
    mats[8] = axis_outer(0, 1)  # the left vectors no longer form triples
    rep3 = el.check_case3(el.StructuredDecomposition(base.alphas.copy(), mats))
    unset = {
        "structure_ok": False, "sigma": None, "eta_sup": None, "eta_argmax": None,
        "threshold": None, "C_matrix": None, "boundary": False,
    }
    diag_keys = {
        1: {"reason"},
        2: {"reason", "groups", "cond_V", "cond_W", "cond_W_tilde", "pair_sines",
            "sigma_residual"},
        3: {"reason"},
    }
    for case_id, rep in ((1, rep1), (2, rep2), (3, rep3)):
        doc = case_report_to_doc(rep)
        el.dumps_report(doc)
        diagnostics = doc.pop("diagnostics")
        assert doc == {"case_id": case_id, "verdict": el.CASE_MISMATCH, **unset}
        assert set(diagnostics) == diag_keys[case_id]
