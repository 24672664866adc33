"""Structured-decomposition analysis: shapes, eta ratios, supremum bounds."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cases
from ellipticity_lab.cases import _group_shared_v, case_report_to_doc
from ellipticity_lab.errors import (
    CaseShapeError,
    DecompositionMismatch,
    EmptyDomain,
    SingularDirection,
)
from ellipticity_lab.spheres import fibonacci_hemisphere

rng = np.random.default_rng(2718)
E3 = np.eye(3)


def axis_outer(i, j):
    return np.outer(E3[:, i], E3[:, j])


def case3_dec(c):
    """The case-3 terms (1, e_s e_{s+k}^T), k = 0, 1, 2, and (-1, c I): eta = c^2."""
    mats = [axis_outer(s, s) for s in range(3)]
    mats += [axis_outer(s, (s + 1) % 3) for s in range(3)]
    mats += [axis_outer(s, (s + 2) % 3) for s in range(3)]
    mats.append(c * np.eye(3))
    return el.StructuredDecomposition(np.array([1.0] * 9 + [-1.0]), np.stack(mats))


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
        cases.require_decomposition_of(el.Elast4(np.ldexp(choi.a, k)), scaled)
        with pytest.raises(DecompositionMismatch):
            cases.require_decomposition_of(el.Elast4(np.ldexp(iso.a, k)), scaled)
    # a decomposition of the zero tensor describes it
    zero = el.StructuredDecomposition(np.zeros(0), np.zeros((0, 3, 3)))
    cases.require_decomposition_of(el.Elast4(np.zeros((3, 3, 3, 3))), zero)


def test_spectral_decomposition_reconstructs():
    t = el.random_tensor(rng)
    dec = el.spectral_decomposition(t)
    m = sum(a * np.outer(el.vec(u), el.vec(u)) for a, u in zip(dec.alphas, dec.mats))
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


@pytest.mark.parametrize("scale", [1e-160, 2.0**-500, 2.0**500, 1e160])
def test_spectral_decomposition_at_extreme_scales(scale):
    # eigenvalues are dropped relative to ||A||, whose squares overflow at
    # 1e160: an inf norm would drop every one of them (r = 0)
    t = el.tensor_isotropic(-3.0, 0.1)
    want = el.spectral_decomposition(t)
    dec = el.spectral_decomposition(el.Elast4(scale * t.a))
    assert (dec.r, dec.q) == (want.r, want.q) == (9, 3)
    assert np.allclose(dec.alphas / scale, want.alphas, rtol=1e-12)


def contract_terms_yy(dec, y):
    """A y^2 of the tensor that the terms of dec build."""
    return el.contract_yy(el.tensor_from_rank_one_terms(dec.alphas, dec.mats), y)


def test_rank_one_terms_match_contraction():
    g = 1.3
    dec = el.choi_lam_case2_decomposition(g)
    t = el.tensor_choi_lam(g)
    for _ in range(5):
        y = rng.standard_normal(3)
        uy = dec.mats @ y
        terms = np.einsum("s,si,sj->ij", dec.alphas, uy, uy)
        assert np.allclose(contract_terms_yy(dec, y), terms, atol=1e-12)
        assert np.allclose(contract_terms_yy(dec, y), el.contract_yy(t, y), atol=1e-12)


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
    with pytest.raises(CaseShapeError, match=r"^expected exactly 3 positive terms, found 2$"):
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


def test_case1_mismatch_singular_frame():
    # the first two positive terms share v = e1, so V = [e1, e1, e3]
    mats = np.stack([axis_outer(0, 0), axis_outer(0, 1), axis_outer(2, 2), 0.1 * E3])
    rep = el.check_case1(el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, -0.5]), mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert rep.diagnostics["reason"] == "frame V or W is singular"
    assert (rep.diagnostics["cond_V"], rep.diagnostics["cond_W"]) == (np.inf, 1.0)


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


def near_diagonal_case1(s):
    """Terms (1, 1, 1, -0.33 / s^2) on (e0 e0^T, e1 e1^T, e2 e2^T, s (I + 0.01 (J - I))):
    the negative term is not diagonal in the frame at any s, and the form is
    1/3 - 0.33 * 1.02^2, about -0.01, at x = y = (1, 1, 1) / sqrt(3)."""
    neg = s * (np.eye(3) + 0.01 * (np.ones((3, 3)) - np.eye(3)))
    mats = np.stack([axis_outer(0, 0), axis_outer(1, 1), axis_outer(2, 2), neg])
    return el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, -0.33 / s**2]), mats)


NEAR_DIAGONAL_SCALES = [1.0, 1e-3, 1e-7, 2.0**-500]


@pytest.mark.parametrize("s", NEAR_DIAGONAL_SCALES)
def test_case1_offdiagonal_test_is_relative(s):
    # an absolute floor would take the off-diagonal part for rounding once
    # the term matrix is small, and certify this indefinite form MPSD
    dec = near_diagonal_case1(s)
    t = el.tensor_from_rank_one_terms(dec.alphas, dec.mats)
    x = np.ones(3) / np.sqrt(3.0)
    assert el.biquadratic(t, x, x) == pytest.approx(1 / 3 - 0.33 * 1.02**2, rel=1e-9)
    rep = el.check_case1(dec)
    assert rep.verdict == el.CASE_MISMATCH
    assert "diagonal" in rep.diagnostics["reason"]


def general_case1(alpha_neg, seed):
    """Case-1 terms on random nonsingular frames V, W, the negative term
    V diag(sigma) W^T."""
    gen = np.random.default_rng(seed)
    V = gen.standard_normal((3, 3)) + 2 * np.eye(3)
    W = gen.standard_normal((3, 3)) + 2 * np.eye(3)
    mats = [np.outer(V[:, s], W[:, s]) for s in range(3)]
    mats.append(V @ np.diag([0.7, -0.4, 1.1]) @ W.T)
    return el.StructuredDecomposition(np.array([1.0, 1.2, 0.9, alpha_neg]), np.stack(mats))


# (terms, k) for rewritten: the negative terms or all terms at k = -500..500,
# the first positive term alone at k = -120..120
CASE1_REWRITES = [
    (terms, k) for k in range(-500, 501, 50) for terms in (slice(3, None), slice(None))
] + [(slice(0, 1), k) for k in range(-120, 121, 10)]


def unequal_sigma_case1():
    """(1, 1, 1, -1) on (e0e0^T, e1e1^T, e2e2^T, diag(0.1, 1.2, 0)): C = I - s s^T
    with s = (0.1, 1.2, 0), so the form is -0.44 at x = y = e1."""
    mats = np.stack(
        [axis_outer(0, 0), axis_outer(1, 1), axis_outer(2, 2), np.diag([0.1, 1.2, 0.0])]
    )
    return el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, -1.0]), mats)


def rewritten(dec, terms, k):
    """dec with the terms dec.alphas[terms], dec.mats[terms] written as
    (alpha c^2) (U / c) (x) (U / c), c = 2^k: the same form."""
    c = 2.0**k
    alphas, mats = dec.alphas.copy(), dec.mats.copy()
    alphas[terms] *= c * c
    mats[terms] /= c
    return el.StructuredDecomposition(alphas, mats)


@pytest.mark.parametrize(
    "dec",
    [
        general_case1(-0.3, 1),
        general_case1(-3.0, 2),
        case1_example(-0.5),
        case1_example(-1.5),
        unequal_sigma_case1(),
    ],
    ids=["mpsd", "not-mpsd", "boundary", "axis-not-mpsd", "unequal-sigma-not-mpsd"],
)
def test_case1_verdict_does_not_depend_on_how_a_term_is_scaled(dec):
    # the same form for every c, rewritten in the negative terms, in all
    # terms, or in one positive term, whose frame column then carries c: the
    # frame test uses unit columns, and the diagonal and PSD tests the
    # coordinates weighted by sqrt(alpha_s)
    want = el.check_case1(dec)
    assert want.structure_ok
    for terms, k in CASE1_REWRITES:
        rep = el.check_case1(rewritten(dec, terms, k))
        assert (rep.verdict, rep.boundary) == (want.verdict, want.boundary), (terms, k)


@pytest.mark.parametrize(
    "dec",
    [
        el.choi_lam_case2_decomposition(1.0),
        case3_dec(0.5),
        el.choi_lam_case2_decomposition(1.6),
        case3_dec(1.2),
    ],
    ids=["case2-choi-lam", "case3-mpd", "case2-choi-lam-1.6", "case3-not-mpsd"],
)
def test_ratio_case_verdict_does_not_depend_on_how_a_positive_term_is_scaled(dec):
    # the first positive term rewritten at c = 2^0..2^48, where it stays first
    # in alpha order, and every term, the negative one too, at c = 2^k for
    # |k| in {1, 20, 48, 49, 100, 300, 500}, which can move a positive term
    # to another slot of its group and make a slot frame singular. V, whose
    # columns carry no scale, is the only frame tested, and each term is
    # taken at its own power of two, so the ratio eta_sup / threshold keeps
    # its value to rounding, without a warning.
    want = el.check_case(dec)
    assert want.structure_ok
    rewrites = [(0, k) for k in range(49)]
    ks = (1, 20, 48, 49, 100, 300, 500)
    rewrites += [(t, sign * k) for t in range(dec.r) for k in ks for sign in (-1, 1)]
    for t, k in rewrites:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = el.check_case(rewritten(dec, slice(t, t + 1), k))
        assert (rep.verdict, rep.boundary) == (want.verdict, want.boundary), (t, k)
        ratio, want_ratio = rep.eta_sup / rep.threshold, want.eta_sup / want.threshold
        assert abs(ratio - want_ratio) <= 1e-15, (t, k, ratio, want_ratio)


@pytest.mark.parametrize("k", range(-120, 121, 10))
def test_case1_offdiagonal_part_is_not_hidden_by_a_rescaled_term(k):
    # case1_example(-0.5) with 1e-3 off the diagonal of its negative term is
    # not MPSD (the oracle finds about -3.9e-4); relative to ||V^-1 U W^-T||,
    # whose first column carries c, that part passed as rounding from c = 2^20
    neg = np.diag([1.0, 1.0, 0.0])
    neg[1, 2] = neg[2, 1] = 1e-3
    mats = np.stack([axis_outer(0, 0), axis_outer(1, 1), axis_outer(2, 2), neg])
    dec = el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, -0.5]), mats)
    rep = el.check_case1(rewritten(dec, slice(0, 1), k))
    assert rep.verdict == el.CASE_MISMATCH
    assert "diagonal" in rep.diagnostics["reason"]


def test_case1_redecomposition():
    dec = case1_example(-0.5)
    red = el.case1_positive_redecomposition(dec)
    assert np.all(red.alphas > 0)
    for _ in range(5):
        y = rng.standard_normal(3)
        assert np.allclose(contract_terms_yy(red, y), contract_terms_yy(dec, y), atol=1e-12)
    t = el.tensor_from_rank_one_terms(red.alphas, red.mats)
    assert el.certify_mpsd(t).certified


def test_case1_redecomposition_does_not_depend_on_the_alpha_scale():
    dec = case1_example(-0.5)
    want = el.case1_positive_redecomposition(dec)
    for c in (2.0**-60, 1e-15, 2.0**60):
        scaled = el.StructuredDecomposition(c * dec.alphas, dec.mats)
        red = el.case1_positive_redecomposition(scaled)
        assert np.allclose(red.alphas, c * want.alphas, rtol=1e-12, atol=0.0), c
        assert np.allclose(red.mats, want.mats, atol=1e-12), c


@pytest.mark.parametrize("k", [-60, -20, 20, 60])
def test_case1_redecomposition_keeps_every_term_of_a_rescaled_decomposition(k):
    # an eigenvalue cutoff on C, which grows as c^2 here, dropped the
    # eigenvalue-1 terms from c = 2^20
    dec = rewritten(general_case1(-0.3, 1), slice(0, 1), k)
    red = el.case1_positive_redecomposition(dec)
    assert np.all(red.alphas > 0)
    for _ in range(5):
        y = rng.standard_normal(3)
        want = contract_terms_yy(dec, y)
        got = contract_terms_yy(red, y)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max()), k


def test_case1_redecomposition_rejects_notmpsd():
    with pytest.raises(ValueError):
        el.case1_positive_redecomposition(case1_example(-1.5))


# ---------------------------------------------------------------------------
# eta ratios, as the case checkers build them


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


def test_eta_case2_closed_form(monkeypatch):
    # eta(y) = sum_s y_s^2 / (2 y_s^2 + g y_{s+1}^2), hand-expanded from the
    # frames W = I, W_tilde = cyclic shift, sigma = (1,1,1,0,0,0) of the
    # Choi-Lam terms (2, e_s e_s^T), (g, e_s e_{s+1}^T), (-1, I)
    for g in (1.0, 1.3):
        form, _ = built_form(monkeypatch, el.check_case2, el.choi_lam_case2_decomposition(g))
        for _ in range(10):
            y = rng.standard_normal(3)
            want = sum(
                y[s] ** 2 / (2 * y[s] ** 2 + g * y[(s + 1) % 3] ** 2) for s in range(3)
            )
            assert np.isclose(form.value(y), want, atol=1e-12)


def test_eta_case2_value_at_uniform_point(monkeypatch):
    form, _ = built_form(monkeypatch, el.check_case2, el.choi_lam_case2_decomposition(1.0))
    u = np.ones(3) / np.sqrt(3)
    assert np.isclose(form.value(u), 1.0, atol=1e-14)


def test_eta_case2_singular_direction(monkeypatch):
    form, _ = built_form(monkeypatch, el.check_case2, el.choi_lam_case2_decomposition(1.0))
    with pytest.raises(SingularDirection):
        form.value(np.array([0.0, 0.0, 1.0]))


def test_eta_case3_constant_value(monkeypatch):
    # orthonormal triple frames make every denominator |y|^2, so eta == c^2 == 1
    form, lines = built_form(monkeypatch, el.check_case3, case3_dec(1.0))
    assert lines == []
    with pytest.raises(SingularDirection):
        form.value(np.zeros(3))
    for _ in range(5):
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        assert np.isclose(form.value(y), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sup_eta


def quadratic_hess(u):
    # Hessian of f(y) = 2 (y.u) / |y| - 1
    def hess(y):
        n = np.linalg.norm(y)
        yu = y @ u
        uy = np.outer(u, y)
        return 2.0 * (
            -(uy + uy.T + yu * np.eye(3)) / n**3 + 3.0 * yu * np.outer(y, y) / n**5
        )

    return hess


def test_sup_eta_quadratic_maximum():
    assert_quadratic_maximum(exact_hess=True)


def test_sup_eta_gradient_steps_where_the_hessian_is_not_negative_definite():
    # a zero Hessian is never negative definite, so every step is a
    # gradient step, and the ascent still reaches the maximum
    assert_quadratic_maximum(exact_hess=False)


def assert_quadratic_maximum(exact_hess):
    # f(y) = 2 y.u - 1 on the sphere peaks at u with value 1
    u = np.array([0.0, 0.6, 0.8])

    def f(y):
        yn = np.asarray(y, dtype=float)
        yn = yn / np.linalg.norm(yn)
        return float(2.0 * yn @ u - 1.0)

    def grad(y):
        n = np.linalg.norm(y)
        return 2.0 * (u - (y @ u) * y / n**2) / n

    res = el.sup_eta(
        f,
        [],
        grid_n=2000,
        eta_many=lambda ys: 2.0 * ys @ u - 1.0,
        grad_fn=grad,
        hess_fn=quadratic_hess(u) if exact_hess else lambda y: np.zeros((3, 3)),
    )
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9
    assert np.linalg.norm(res.argmax - u) < 1e-4


def test_sup_eta_excludes_singular_lines():
    # peak capped near an excluded line: the evaluation guard (nan and -inf
    # within 0.3 rad of the pole) must keep the grid and the refinement off it
    cap = np.cos(0.3) ** 2

    def f(y):
        yn = np.asarray(y, dtype=float)
        yn = yn / np.linalg.norm(yn)
        v = float(yn[2] ** 2)
        return float("nan") if v > cap else v

    def f_many(ys):
        v = ys[:, 2] ** 2
        return np.where(v > cap, -np.inf, v)

    def grad(y):
        n2 = y @ y
        return 2.0 * y[2] * (np.array([0.0, 0.0, 1.0]) - y[2] * y / n2) / n2

    res = el.sup_eta(
        f,
        [np.array([0.0, 0.0, 1.0])],
        grid_n=2000,
        eta_many=f_many,
        grad_fn=grad,
        hess_fn=lambda y: np.zeros((3, 3)),
    )
    assert np.isneginf(f_many(fibonacci_hemisphere(2000))).any()
    assert res.value <= cap


def test_sup_eta_empty_domain():
    with pytest.raises(EmptyDomain):
        el.sup_eta(
            lambda y: None,
            [],
            grid_n=200,
            eta_many=lambda ys: np.full(len(ys), -np.inf),
            grad_fn=lambda y: np.zeros(3),
            hess_fn=lambda y: np.zeros((3, 3)),
        )


def test_sup_eta_propagates_foreign_grad_errors():
    # only the guard errors end an ascent quietly; a broken gradient surfaces
    def grad(y):
        raise TypeError("broken gradient")

    with pytest.raises(TypeError):
        el.sup_eta(
            lambda y: float(y[2]),
            [],
            grad_fn=grad,
            hess_fn=lambda y: np.zeros((3, 3)),
            eta_many=lambda ys: ys[:, 2],
            grid_n=200,
        )


@pytest.mark.parametrize("broken", ["grad_fn", "hess_fn"])
def test_sup_eta_ends_an_ascent_quietly_on_a_guard_error(broken):
    # a guard error from the gradient or the Hessian stops each ascent at its
    # grid start: the grid maximum stands, and no ascent converged
    u = np.array([0.0, 0.6, 0.8])

    def guarded(y):
        raise SingularDirection("on a singular line")

    fns = {"grad_fn": lambda y: 2.0 * (u - (y @ u) * y), "hess_fn": quadratic_hess(u)}
    fns[broken] = guarded
    res = el.sup_eta(
        lambda y: float(2.0 * y @ u - 1.0),
        [],
        grid_n=2000,
        eta_many=lambda ys: 2.0 * ys @ u - 1.0,
        **fns,
    )
    assert not res.converged
    assert res.value == float(np.max(2.0 * fibonacci_hemisphere(2000) @ u - 1.0))


@pytest.mark.parametrize("broken", ["nan-gradient", "excluded-start"])
def test_an_ascent_that_cannot_be_evaluated_ends_unconverged(broken):
    # f(y) = 2 y.u - 1 on the sphere; a nan gradient fails every line-search
    # test, which must not read as "no step improves", and a start whose
    # value is -inf was never evaluated
    u = np.array([0.0, 0.6, 0.8])

    def value(y):
        return -math.inf if broken == "excluded-start" else float(2.0 * y @ u - 1.0)

    def grad(y):
        return np.full(3, np.nan) if broken == "nan-gradient" else 2.0 * (u - (y @ u) * y)

    start = [0.6, 0.0, 0.8]
    _, _, converged, near_line = cases._ascend(start, value, grad, quadratic_hess(u), [])
    assert (converged, near_line) == (False, False)


def test_sup_eta_leaves_the_callers_values_alone():
    # the grid values may be a read-only array, or an array the caller
    # keeps; sup_eta only reads them, -inf (excluded) points included
    line = [np.array([0.0, 0.0, 1.0])]
    z = fibonacci_hemisphere(2000)[:, 2]
    height = np.where(z > np.cos(0.3), -np.inf, z)
    height.setflags(write=False)
    assert np.isneginf(height).any()
    kept = height.copy()
    for values in (height, kept):
        el.sup_eta(
            lambda y: float(y[2]),
            line,
            grid_n=2000,
            eta_many=lambda ys: values,
            grad_fn=lambda y: np.array([0.0, 0.0, 1.0]),
            hess_fn=lambda y: np.zeros((3, 3)),
        )
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
    # axes; their exact limit is what stabilizes the estimate
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
    with pytest.raises(CaseShapeError, match=r"^expected \(r, q\) = \(7, 6\), found \(5, 4\)$"):
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


def _term_replaced(dec, edits):
    mats = dec.mats.copy()
    for s, mat in edits.items():
        mats[s] = mat
    return el.StructuredDecomposition(dec.alphas.copy(), mats)


@pytest.mark.parametrize(
    "check, dec, reason",
    [
        (
            el.check_case2,
            _term_replaced(el.choi_lam_case2_decomposition(1.0), {3: E3}),
            "positive term 3 is not rank-one",
        ),
    ],
    ids=["case2-not-rank-one"],
)
def test_ratio_case_mismatch_before_the_ratio(check, dec, reason):
    rep = check(dec)
    assert rep.verdict == el.CASE_MISMATCH
    assert rep.diagnostics["reason"] == reason


def test_case3_wrong_shape_raises():
    with pytest.raises(CaseShapeError, match=r"^expected \(r, q\) = \(10, 9\), found \(7, 6\)$"):
        el.check_case3(el.choi_lam_case2_decomposition(1.0))


def test_case3_verdicts_match_oracle():
    # the induced form is |x|^2 |y|^2 - c^2 (x.y)^2 with sphere minimum 1 - c^2
    for c, want in ((0.5, el.ORACLE_MPD_LIKELY), (2.0, el.ORACLE_NOT_MPSD)):
        dec = case3_dec(c)
        t = el.tensor_from_rank_one_terms(dec.alphas, dec.mats)
        assert el.oracle_verdict(t, n=500).verdict == want


def choi_lam_shaped(diag_alphas, gamma):
    """Terms (a_s, e_s e_s^T), (gamma, e_s e_{s+1}^T) and (-1, I)."""
    mats = [axis_outer(s, s) for s in range(3)] + [axis_outer(s, (s + 1) % 3) for s in range(3)]
    alphas = [*diag_alphas, gamma, gamma, gamma, -1.0]
    return el.StructuredDecomposition(np.array(alphas), np.stack(mats + [E3]))


# Slot t of each group is its t-th term in alpha order. Diagonal alphas
# (3, 1, 1) and gamma = 2 put e0, e2, e0 into frame W, and (1, 1, 3) e2, e1,
# e2; the oracle finds the form -0.25 somewhere. The case-3 terms of
# case3_dec(0.5), ordered so that the slot-0 right vectors are all e0: every
# slot frame is singular, every triple orthonormal, and the form is MPD.
SINGULAR_SLOT_FRAMES = {
    "case2-alphas-3-1-1": (choi_lam_shaped((3.0, 1.0, 1.0), 2.0), el.CASE_NOT_MPSD),
    "case2-alphas-1-1-3": (choi_lam_shaped((1.0, 1.0, 3.0), 2.0), el.CASE_NOT_MPSD),
    "case3-singular-W": (
        el.StructuredDecomposition(
            np.array([1.0] * 9 + [-1.0]),
            np.stack([axis_outer(s, t) for t in range(3) for s in range(3)] + [0.5 * E3]),
        ),
        el.CASE_MPD,
    ),
}


@pytest.mark.parametrize("name", list(SINGULAR_SLOT_FRAMES))
def test_singular_slot_frames_are_decided(name):
    # A y^2 = V (diag(D(y)) + alpha_neg n(y) n(y)^T) V^T: eta needs V
    # nonsingular, not the frames that the slots of the groups happen to form
    dec, want = SINGULAR_SLOT_FRAMES[name]
    rep = el.check_case(dec)
    assert rep.verdict == want
    assert rep.diagnostics["cond_V"] == 1.0 and rep.diagnostics["cond_W"] == np.inf
    full = el.check(el.tensor_from_rank_one_terms(dec.alphas, dec.mats), dec)
    agreeing = {
        el.CASE_NOT_MPSD: ("NotMPSD", el.ORACLE_NOT_MPSD),
        el.CASE_MPD: ("MPD", el.ORACLE_MPD_LIKELY),
    }
    assert (full.verdict, full.stages[-1]["verdict"]) == agreeing[want]
    if want == el.CASE_NOT_MPSD:
        assert full.refuted_by == f"case{rep.case_id}"


def singular_slot0_terms(case_id, seed):
    """Random case-2/3 positive terms and negative term matrix whose slot-0
    frame is singular: V, the frames and sigma standard normal, the third
    column of frame 0 the sum of its first two, and the frame-0 alphas in
    [2.5, 3.5] above the others in [0.5, 1.5], so that frame 0 is slot 0."""
    gen = np.random.default_rng([59, case_id, seed])
    V = gen.standard_normal((3, 3))
    frames = gen.standard_normal((case_id, 3, 3))
    frames[0][:, 2] = frames[0][:, 0] + frames[0][:, 1]
    alphas = gen.uniform(0.5, 1.5, (case_id, 3))
    alphas[0] += 2.0
    sigma = gen.standard_normal((case_id, 3))
    mats = [np.outer(V[:, s], frames[g][:, s]) for g in range(case_id) for s in range(3)]
    neg = sum(sigma[g, s] * mats[3 * g + s] for g in range(case_id) for s in range(3))
    return alphas.reshape(-1), np.stack(mats + [neg])


@pytest.mark.parametrize("case_id", [2, 3])
def test_singular_slot0_frames_never_contradict_the_oracle(case_id):
    # alpha_neg at 0.9 and 1.1 times -1 / sup eta, the checker's own estimate
    # (sup eta does not depend on alpha_neg): 1.1 is refuted, and no MPSD or
    # MPD of the checker may meet an oracle NotMPSD
    for seed in range(10):
        alphas, mats = singular_slot0_terms(case_id, seed)
        probe = el.check_case(el.StructuredDecomposition(np.append(alphas, -1.0), mats))
        assert probe.structure_ok and probe.diagnostics["cond_W"] == np.inf, seed
        for factor in (0.9, 1.1):
            dec = el.StructuredDecomposition(np.append(alphas, -factor / probe.eta_sup), mats)
            rep = el.check_case(dec)
            if factor > 1.0:
                assert rep.verdict == el.CASE_NOT_MPSD, seed
            elif rep.verdict in (el.CASE_MPSD, el.CASE_MPD):
                t = el.tensor_from_rank_one_terms(dec.alphas, dec.mats)
                assert el.oracle_verdict(t).verdict != el.ORACLE_NOT_MPSD, seed


# ---------------------------------------------------------------------------
# ratio kernels against their einsum reference


class EinsumRatioForm:
    """The einsum formulation of cases._RatioForm, the reference whose every
    value, gradient and guard decision the kernels must reproduce exactly."""

    def __init__(self, alphas, frames, sigma, guard=1e-13):
        self.alphas = np.asarray(alphas, dtype=float)  # (G, 3)
        self.frames = np.stack([np.asarray(f, dtype=float) for f in frames])  # (G,3,3)
        self.sigma = np.asarray(sigma, dtype=float)  # (G, 3)
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
        nrm2 = float(yv[0] * yv[0] + yv[1] * yv[1] + yv[2] * yv[2])
        if nrm2 == 0.0:
            raise SingularDirection("zero direction")
        _, num_lin, den = self._parts(yv)
        if np.any(den <= self.guard * nrm2 * self.den_scale):
            raise SingularDirection("denominator vanished at this direction")
        return float(np.sum(num_lin**2 / den))

    def value_many(self, ys):
        p = np.einsum("gis,ni->gns", self.frames, ys)
        num = np.sum(self.sigma[:, None, :] * p, axis=0) ** 2
        den = np.sum(self.alphas[:, None, :] * p * p, axis=0)
        bad = np.any(den <= self.guard * self.den_scale, axis=1)
        den = np.where(den == 0.0, 1.0, den)
        vals = np.sum(num / den, axis=1)
        vals[bad] = -np.inf
        return vals

    def _guarded_parts(self, y):
        yv = np.asarray(y, dtype=float)
        p, num_lin, den = self._parts(yv)
        nrm2 = float(yv[0] * yv[0] + yv[1] * yv[1] + yv[2] * yv[2])
        if np.any(den <= self.guard * nrm2 * self.den_scale):
            raise SingularDirection("denominator vanished at this direction")
        return p, num_lin, den

    def grad(self, y):
        p, num_lin, den = self._guarded_parts(y)
        num_dir = np.einsum("gs,gis->is", self.sigma, self.frames)
        den_dir = 2.0 * np.einsum("gs,gs,gis->is", self.alphas, p, self.frames)
        grad = np.zeros(3)
        for s in range(3):
            grad += (
                2.0 * num_lin[s] * num_dir[:, s] * den[s]
                - num_lin[s] ** 2 * den_dir[:, s]
            ) / den[s] ** 2
        return grad

    def hess(self, y):
        # term s of eta is N^2 / D with N = n.y, D = y.M y and m = M y:
        # its Hessian is (2 / D) v v^T - 2 q^2 M, q = N / D, v = n - 2 q m
        p, num_lin, den = self._guarded_parts(y)
        num_dir = np.einsum("gs,gis->is", self.sigma, self.frames)
        half_den_dir = np.einsum("gs,gs,gis->is", self.alphas, p, self.frames)
        # M = sum_g alpha (w_i w_j), symmetric bit for bit
        ww = np.einsum("gis,gjs->gijs", self.frames, self.frames)
        den_mat = np.einsum("gs,gijs->sij", self.alphas, ww)
        hess = np.zeros((3, 3))
        for s in range(3):
            q = num_lin[s] / den[s]
            v = num_dir[:, s] - (2.0 * q) * half_den_dir[:, s]
            hess += (2.0 / den[s]) * np.einsum("i,j->ij", v, v) - (q * den_mat[s]) * (2.0 * q)
        return hess


def rotation(gen):
    q, r = np.linalg.qr(gen.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def rotated(dec, gen):
    left, right = rotation(gen), rotation(gen)
    return el.StructuredDecomposition(dec.alphas.copy(), left @ dec.mats @ right.T)


def outcome(fn, y):
    try:
        return fn(y)
    except SingularDirection as exc:
        return type(exc)


def same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b)


def same_bits(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a.tobytes() == b.tobytes()


def near_lines(lines, gen, per_line=100, max_exp=-6):
    """Points exactly on each line and 1e-16 to 10^max_exp rad off it."""
    pts = []
    for d in lines:
        u1, u2 = map(np.array, cases._orthonormal_complement(d / np.linalg.norm(d)))
        pts.append(d)
        for theta in np.logspace(-16, max_exp, per_line):
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
    ref = EinsumRatioForm(form.alphas, form.frames, form.sigma)
    assert (len(lines) == 3) == (kind == "case2")

    ys = gen.standard_normal((5000, 3))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    extra = near_lines(lines, gen) if lines else np.empty((0, 3))
    for y in np.vstack([ys, extra, np.zeros((1, 3))]):
        for name in ("value", "grad", "hess"):
            got, want = outcome(getattr(form, name), y), outcome(getattr(ref, name), y)
            assert same(got, want), (name, y, got, want)
    # the guard is exercised: the zero vector and points on the lines
    assert outcome(form.value, np.zeros(3)) is SingularDirection
    for d in lines:
        assert outcome(form.grad, d) is SingularDirection

    for batch in (fibonacci_hemisphere(20000), ys, extra / np.linalg.norm(extra, axis=1)[:, None]):
        assert np.array_equal(form.value_many(batch), ref.value_many(batch))

    # the Hessian is the derivative of the gradient: central differences
    # with step 1e-6 agree within 1e-6 of max(1, |H|) (within 1e-8 on these
    # forms)
    h = 1e-6
    for y in ys[:500]:
        hess = form.hess(y)
        diff = np.column_stack(
            [(form.grad(y + h * e) - form.grad(y - h * e)) / (2.0 * h) for e in E3]
        )
        assert np.max(np.abs(diff - hess)) <= 1e-6 * max(1.0, np.max(np.abs(hess))), y


@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("kind", ["case2", "case3"])
def test_value_many_matches_einsum_reference_at_block_edges(monkeypatch, kind, block_rows):
    # value_many reuses one set of buffers for all its blocks; batches around
    # a block edge and the cached lattice must keep the reference's bytes,
    # with guarded rows (near a singular line, and y = 0) among them
    gen = np.random.default_rng([59, int(kind[-1])])
    if kind == "case2":
        dec, check = el.choi_lam_case2_decomposition(1.2), el.check_case2
    else:
        dec, check = case3_dec(1.3), el.check_case3
    form, lines = built_form(monkeypatch, check, rotated(dec, gen))
    ref = EinsumRatioForm(form.alphas, form.frames, form.sigma)
    if block_rows is not None:
        monkeypatch.setattr(cases, "_BLOCK_ROWS", block_rows)
    b = cases._BLOCK_ROWS
    ys = gen.standard_normal((b + 1, 3))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    guarded = np.zeros((1, 3))
    if lines:
        guarded = np.vstack([near_lines(lines, gen, per_line=10, max_exp=-8), guarded])
    ys[1::4] = np.resize(guarded, ys[1::4].shape)
    assert b < 2 or np.isneginf(ref.value_many(ys)).any()
    for count in (0, 1, b - 1, b, b + 1):
        got = form.value_many(ys[:count])
        assert got.shape == (count,)
        assert got.tobytes() == ref.value_many(ys[:count]).tobytes(), count

    grid = fibonacci_hemisphere(cases.GRID_N)
    before = grid.copy()
    first, second = form.value_many(grid), form.value_many(grid)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes() == ref.value_many(grid).tobytes()
    assert not grid.flags.writeable and grid.tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", ["case2", "case3"])
@pytest.mark.parametrize("alpha_scale, mat_scale",[(1e160, 1.0), (1.0, 1e80), (1e-300, 1.0)])
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
    assert_checker_matches_einsum_reference(monkeypatch, check, dec)


@pytest.mark.parametrize("kind", ["case2", "case3"])
def test_ratio_checkers_with_tiny_positive_alphas_match_einsum_reference(monkeypatch, kind):
    # The form's alphas are scaled to bring -alpha_neg into [1, 2), so a
    # common scale never underflows a squared denominator; positive alphas
    # 1e-300 times alpha_neg still do.
    if kind == "case2":
        base, check = el.choi_lam_case2_decomposition(1.0), el.check_case2
    else:
        base, check = case3_dec(0.5), el.check_case3
    alphas = base.alphas.copy()
    alphas[:-1] *= 1e-300
    assert_checker_matches_einsum_reference(
        monkeypatch, check, el.StructuredDecomposition(alphas, base.mats)
    )


def assert_checker_matches_einsum_reference(monkeypatch, check, dec):
    ys = np.random.default_rng(37).standard_normal((500, 3))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        form, _ = built_form(monkeypatch, check, dec)
        ref = EinsumRatioForm(form.alphas, form.frames, form.sigma)
        for y in ys:
            for name in ("grad", "hess"):
                got, want = outcome(getattr(form, name), y), outcome(getattr(ref, name), y)
                if name == "grad" and got is SingularDirection and want is not got:
                    # Python floats raise where numpy's give inf or nan
                    assert not np.all(np.isfinite(want)), (y, want)
                else:
                    # bit for bit, so that nan Hessians compare too
                    assert same_bits(got, want), (name, y, got, want)
        got = el.dumps_report(case_report_to_doc(check(dec)))
        monkeypatch.setattr(cases, "_RatioForm", EinsumRatioForm)
        want = el.dumps_report(case_report_to_doc(check(dec)))
    assert got == want


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("gamma", [0.8, 1.0, 1.6])
def test_guard_rejects_every_grid_point_near_a_singular_line(monkeypatch, gamma, rotate):
    # sup_eta drops grid points near a singular line through the -inf of
    # value_many alone. Within theta of a line d = w x w~, w.y and w~.y are
    # both at most sin(theta) |w| resp. |w~|, so at theta <= 1e-8 each
    # denominator term is below 1e-16 times its scale, far under the guard.
    gen = np.random.default_rng([43, int(10 * gamma), int(rotate)])
    dec = el.choi_lam_case2_decomposition(gamma)
    if rotate:
        dec = rotated(dec, gen)
    form, lines = built_form(monkeypatch, el.check_case2, dec)
    assert len(lines) == 3
    assert np.all(form.value_many(near_lines(lines, gen, max_exp=-8)) == -np.inf)


# ---------------------------------------------------------------------------
# limits on the case-2 singular lines


@pytest.mark.parametrize("gamma", [1.2, 1.6, 2.0])
def test_choi_lam_line_limits_are_one(gamma):
    # on the line e_{s+2}, term s tends to at most 1/2 (Cauchy-Schwarz), term
    # s + 2 is 1/2 and term s + 1 is 0; the limit 1 is the supremum
    rep = el.check_case2(el.choi_lam_case2_decomposition(gamma))
    limits = rep.diagnostics["line_limits"]
    assert len(limits) == 3
    assert all(abs(v - 1.0) <= 4 * math.ulp(1.0) for v in limits), limits
    assert (rep.verdict, rep.boundary, rep.diagnostics["sup_converged"]) == (
        el.CASE_MPSD, True, True
    )
    assert rep.eta_sup == max(limits)


@pytest.mark.parametrize("gamma", [0.8, 1.2, 1.6, 2.0])
def test_eta_near_a_singular_line_approaches_its_limit(monkeypatch, gamma):
    # eta on a ring of radius 1e-7 around each line, at 3600 directions,
    # stays below the limit and comes within 1e-6 of it; the reference
    # without a guard evaluates eta that close to the line
    gen = np.random.default_rng([71, int(10 * gamma)])
    form, lines = built_form(
        monkeypatch, el.check_case2, rotated(el.choi_lam_case2_decomposition(gamma), gen)
    )
    ref = EinsumRatioForm(form.alphas, form.frames, form.sigma, guard=0.0)
    phi = 2.0 * np.pi * np.arange(3600) / 3600
    for s, d in enumerate(lines):
        limit = cases._line_limit(form, s, d.tolist())
        u1, u2 = map(np.array, cases._orthonormal_complement(d.tolist()))
        off = np.cos(phi)[:, None] * u1 + np.sin(phi)[:, None] * u2
        vals = ref.value_many(np.cos(1e-7) * d + np.sin(1e-7) * off)
        assert np.max(vals) <= limit + 1e-6, s
        assert np.max(vals) >= limit - 1e-6, s


def ridge_case2(beta):
    """W = I, W_tilde[:, s] = cos(beta) e_s + sin(beta) e_{s+1}, every
    positive alpha 1, and the negative term sum_s e_s (e_s - W_tilde[:, s])^T
    with alpha -0.4 (threshold 2.5). Each line limit is 3, but term s peaks
    in a window only about beta wide around its line."""
    wt = [np.cos(beta) * E3[:, s] + np.sin(beta) * E3[:, (s + 1) % 3] for s in range(3)]
    mats = [axis_outer(s, s) for s in range(3)] + [np.outer(E3[:, s], wt[s]) for s in range(3)]
    mats.append(sum(np.outer(E3[:, s], E3[:, s] - wt[s]) for s in range(3)))
    return el.StructuredDecomposition(np.array([1.0] * 6 + [-0.4]), np.stack(mats))


def test_ridge_that_rings_of_probe_points_miss_is_refuted():
    # at beta = 1e-3 the peak of term s is 1e-3 rad wide around its line, so
    # a few sampled directions around the line see about 2, not 3
    rep = el.check_case2(ridge_case2(1e-3))
    assert rep.verdict == el.CASE_NOT_MPSD
    assert rep.threshold == 2.5
    assert all(abs(v - 3.0) < 1e-9 for v in rep.diagnostics["line_limits"])
    assert rep.eta_sup == max(rep.diagnostics["line_limits"])
    assert any(np.array_equal(rep.eta_argmax, d) for d in rep.diagnostics["singular_lines"])


def test_coincident_singular_lines_are_a_structure_mismatch():
    # pairs (e_1, e_2) and (e_2, e_1) share the line e_3, where the limit is
    # a maximum of two ratios over directions, which no closed form gives
    mats = [axis_outer(s, s) for s in range(3)]
    mats += [axis_outer(0, 1), axis_outer(1, 0), np.outer(E3[:, 2], E3[:, 0] + E3[:, 2])]
    mats.append(np.eye(3))
    rep = el.check_case2(el.StructuredDecomposition(np.array([1.0] * 6 + [-1.0]), np.stack(mats)))
    assert rep.verdict == el.CASE_MISMATCH
    assert rep.diagnostics["reason"] == "singular lines coincide"


def test_an_estimate_without_converged_ascents_decides_only_on_a_line_limit(monkeypatch):
    # with no ascent step, no ascent converges: case 3 has no line limit and
    # must not claim MPD; Choi-Lam 1.6 stays MPSD on its exact line limit
    monkeypatch.setattr(cases, "ASCENT_STEPS", 0)
    rep = el.check_case3(case3_dec(0.5))
    assert rep.verdict == el.CASE_MISMATCH
    assert rep.diagnostics["reason"] == "supremum estimate did not stabilize"
    rep = el.check_case2(el.choi_lam_case2_decomposition(1.6))
    assert (rep.verdict, rep.eta_sup, rep.diagnostics["sup_converged"]) == (el.CASE_MPSD, 1.0, True)


def case1_near_cancelling(seed):
    # positive alphas (1, 1, 1) and negative ones -(1 - 1e-9), -(1 - 1e-9), -1
    # on the same r_s r_s^T of a rotated frame: C = diag(1e-9, 1e-9, 0) in
    # exact arithmetic, an MPSD boundary form whose C cancels to rounding
    r = rotation(np.random.default_rng([47, seed]))
    mats = np.stack([np.outer(r[:, s], r[:, s]) for s in range(3)] * 2)
    alphas = np.array([1.0, 1.0, 1.0, -(1.0 - 1e-9), -(1.0 - 1e-9), -1.0])
    return el.StructuredDecomposition(alphas, mats)


def choi_lam_just_above(gamma, sup, gap):
    # Choi-Lam with -alpha_neg moved so that sup eta exceeds the threshold by gap
    dec = el.choi_lam_case2_decomposition(gamma)
    alphas = dec.alphas.copy()
    alphas[-1] = -1.0 / (sup - gap)
    return el.StructuredDecomposition(alphas, dec.mats)


CASE_EXAMPLES = {
    "case1-boundary": lambda: case1_example(-0.5),
    "case1-negative": lambda: case1_example(-1.5),
    "case1-near-cancelling": lambda: case1_near_cancelling(0),
    "case2-0.8": lambda: el.choi_lam_case2_decomposition(0.8),
    "case2-0.8-just-above": lambda: choi_lam_just_above(0.8, 15.0 / 14.0, 1e-6),
    "case2-1": lambda: el.choi_lam_case2_decomposition(1.0),
    "case2-1.3": lambda: el.choi_lam_case2_decomposition(1.3),
    "case3-0.5": lambda: case3_dec(0.5),
    "case3-1": lambda: case3_dec(1.0),
    "case3-2": lambda: case3_dec(2.0),
}


@pytest.mark.parametrize("name", list(CASE_EXAMPLES))
def test_case_verdicts_do_not_depend_on_the_alpha_scale(name):
    # scaling every alpha by c scales C (case 1), and eta and the threshold
    # (cases 2 and 3) by c resp. 1 / c, which no verdict test may see
    dec = CASE_EXAMPLES[name]()
    want = el.check_case(dec)
    assert want.structure_ok
    for c in [2.0**k for k in (-60, -30, 30, 60)] + [1e-9]:
        rep = el.check_case(el.StructuredDecomposition(c * dec.alphas, dec.mats))
        assert (rep.verdict, rep.boundary) == (want.verdict, want.boundary), c
        if want.eta_sup is not None and c != 1e-9:
            # the ratio cases estimate eta on the same numbers at every 2^k
            assert rep.eta_sup == want.eta_sup / c and rep.threshold == want.threshold / c


def test_case1_near_cancelling_c_is_an_mpsd_boundary():
    # the rounding in C is about eps times its terms, here eps times 1, not
    # eps times ||C|| = 1.4e-9, so every rotation must stay on the boundary
    for seed in range(20):
        rep = el.check_case1(case1_near_cancelling(seed))
        assert (rep.verdict, rep.boundary) == (el.CASE_MPSD, True), seed


def test_choi_lam_just_above_the_threshold_is_refuted():
    # sup eta = 15/14 at (1, 1, 1) / sqrt(3) for gamma = 0.8; the grid alone
    # reaches 1.0714232, below the threshold 15/14 - 1e-6, so only an ascent
    # that leaves its grid start refutes (the scale test repeats this at 2^k)
    rep = el.check_case2(choi_lam_just_above(0.8, 15.0 / 14.0, 1e-6))
    assert rep.verdict == el.CASE_NOT_MPSD
    assert abs(rep.eta_sup - 15.0 / 14.0) < 1e-12
    assert np.allclose(np.abs(rep.eta_argmax), np.full(3, 1.0 / np.sqrt(3.0)))


# eta_sup and eta_argmax at the default grid, as float.hex; the argmax of
# Choi-Lam 0.8 and 1 is one of (+-1, +-1, +-1) / sqrt(3), of Choi-Lam 1.6 the
# singular line e_3, whose limit 1 dominates, and eta is constant for these
# case-3 forms
PINNED = {
    "case2-0.8": (
        el.choi_lam_case2_decomposition(0.8),
        "0x1.124924924924ap+0",
        ["-0x1.279a7459fcc35p-1", "-0x1.279a745479988p-1", "0x1.279a745c93399p-1"],
    ),
    "case2-1": (
        el.choi_lam_case2_decomposition(1.0),
        "0x1.0000000000000p+0",
        ["0x1.279a7457b2636p-1", "-0x1.279a7459d30e7p-1", "0x1.279a745984238p-1"],
    ),
    "case2-1.6": (
        el.choi_lam_case2_decomposition(1.6),
        "0x1.0000000000000p+0",
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
    ),
    "case3-0.5": (
        case3_dec(0.5),
        "0x1.0000000000001p-2",
        ["-0x1.3bfbb710514a0p-2", "0x1.e702ef4927457p-1", "0x1.930be0ded288dp-9"],
    ),
    "case3-1.2": (
        case3_dec(1.2),
        "0x1.70a3d70a3d70cp+0",
        ["0x1.37854c130267ap-1", "0x1.9652d6095f6c1p-1", "0x1.6f0068db8bac7p-13"],
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_sup_eta_results_are_pinned(name):
    dec, eta_sup, eta_argmax = PINNED[name]
    rep = el.check_case(dec)
    assert rep.eta_sup.hex() == eta_sup
    assert [float(t).hex() for t in rep.eta_argmax] == eta_argmax
    # the checker scales the term matrices to a max |entry| in [0.5, 1), so
    # a 2^k multiple of them gives the same report, with frames times 2^k
    want = el.dumps_report(case_report_to_doc(rep))
    for k in (-600, -30, 1, 30, 600):
        got = el.check_case(el.StructuredDecomposition(dec.alphas, np.ldexp(dec.mats, k)))
        frames = {
            key: None if F is None else np.ldexp(F, -k)
            for key, F in vars(got.structure).items()
            if key != "V"
        }
        unscaled = replace(got, structure=replace(got.structure, **frames))
        assert el.dumps_report(case_report_to_doc(unscaled)) == want, k


def count_ascent_work(monkeypatch):
    """(gradient evaluations, near_line) per ascent; the gradients are counted
    through the callables handed to sup_eta."""
    grads, per_ascent = [0], []
    sup_eta, ascend = cases.sup_eta, cases._ascend

    def counting_sup_eta(eta_fn, lines, *, grad_fn, **kwargs):
        def grad(y):
            grads[0] += 1
            return grad_fn(y)

        return sup_eta(eta_fn, lines, grad_fn=grad, **kwargs)

    def counting_ascend(*args):
        before = grads[0]
        result = ascend(*args)
        per_ascent.append((grads[0] - before, result[3]))
        return result

    monkeypatch.setattr(cases, "sup_eta", counting_sup_eta)
    monkeypatch.setattr(cases, "_ascend", counting_ascend)
    return per_ascent


@pytest.mark.parametrize("gamma, most", [(0.8, 10), (1.6, cases.ASCENT_STEPS - 1)])
def test_ascents_take_newton_steps(monkeypatch, gamma, most):
    # gamma 0.8: interior maxima, where Newton steps converge in a few
    # gradients; gamma 1.6: the supremum lies on the singular lines, and
    # each ascent stops once it comes within LINE_STOP of one
    per_ascent = count_ascent_work(monkeypatch)
    rep = el.check_case2(el.choi_lam_case2_decomposition(gamma))
    assert rep.diagnostics["sup_converged"] and per_ascent
    assert max(grads for grads, _ in per_ascent) <= most, per_ascent
    assert all(near_line == (gamma > 1.0) for _, near_line in per_ascent), per_ascent


@pytest.mark.parametrize("scale", [1e160, 1e80, 1e-160])
@pytest.mark.parametrize("kind", ["case2", "case3"])
def test_ratio_checkers_with_extreme_term_matrices(kind, scale):
    # eta does not change when every term matrix is scaled, but unscaled
    # matrices overflowed the guard's den_scale at 1e160 and 1e80, and at
    # 1e-160 the pair sines underflowed to a mismatch
    if kind == "case2":
        base, want = el.choi_lam_case2_decomposition(1.0), (el.CASE_MPSD, True, 1.0)
    else:
        base, want = case3_dec(0.5), (el.CASE_MPD, False, 0.25)
    rep = el.check_case(el.StructuredDecomposition(base.alphas, scale * base.mats))
    assert (rep.verdict, rep.boundary) == want[:2]
    assert abs(rep.eta_sup - want[2]) < 1e-12


def test_choi_lam_with_tiny_alphas_is_mpsd():
    dec = el.choi_lam_case2_decomposition(1.0)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        tiny = el.StructuredDecomposition(1e-300 * dec.alphas, dec.mats)
        rep = el.check_case2(tiny)
    assert rep.verdict == el.CASE_MPSD and rep.boundary


@pytest.mark.parametrize("alpha_neg", [-1e-300, -1e-310])
def test_ratio_case_with_alphas_spread_past_the_float_range_is_mpsd(alpha_neg):
    # positives 1e10 against alpha_neg: eta ~ 1e-10, far under the threshold,
    # and no power of two brings alpha_neg near 1 with the positives finite
    dec = el.choi_lam_case2_decomposition(1.0)
    alphas = 1e10 * dec.alphas
    alphas[-1] = alpha_neg
    rep = el.check_case2(el.StructuredDecomposition(alphas, dec.mats))
    assert rep.verdict == el.CASE_MPSD and not rep.boundary
    assert rep.threshold == 1.0 / -alpha_neg and 0.0 < rep.eta_sup < 1e-9


def test_ratio_case_with_an_alpha_that_underflows_is_a_structure_mismatch():
    # -alpha_neg = 4 puts the alphas at 2^-2, where 5e-324 is 0: the line
    # limit divided by it, and the checker raised ZeroDivisionError
    dec = el.choi_lam_case2_decomposition(1.0)
    alphas = dec.alphas.copy()
    alphas[3], alphas[-1] = 5e-324, -4.0
    rep = el.check_case2(el.StructuredDecomposition(alphas, dec.mats))
    assert rep.verdict == el.CASE_MISMATCH
    assert rep.diagnostics["reason"] == "coefficients spread past the float range"


@pytest.mark.parametrize("alpha_0", [1.0, 1e-300])
def test_case1_with_c_past_the_float_range_is_a_structure_mismatch(alpha_0):
    # the positive right vectors 1e-100 e_s put sigma at 1e200, so C has
    # entries near -1e400: the checker warned of overflow in a norm, and
    # then eigvalsh of the overflowed C raised an untyped LinAlgError. At
    # alpha_0 = 1e-300 the diagonal test's m / sqrt(alpha) overflows first
    dec = el.StructuredDecomposition(
        np.array([alpha_0, 1.0, 1.0, -1.0]),
        np.stack([1e-100 * axis_outer(s, s) for s in range(3)] + [np.diag([1e100, 1e100, 0.0])]),
    )
    rep = el.check_case1(dec)
    assert rep.verdict == el.CASE_MISMATCH
    assert rep.diagnostics["reason"] == "coefficients spread past the float range"


def test_check_decides_tiny_alpha_decompositions_as_at_unit_scale():
    # case 1: alphas (1, 1, 1, -2) on e_s e_s^T and I, form minimum -5/3 at
    # x = y = (1, 1, 1) / sqrt(3); case 2: Choi-Lam, M-PSD with zeros
    case1 = el.StructuredDecomposition(
        1e-9 * np.array([1.0, 1.0, 1.0, -2.0]),
        np.stack([axis_outer(s, s) for s in range(3)] + [E3]),
    )
    choi = el.choi_lam_case2_decomposition(1.0)
    choi = el.StructuredDecomposition(1e-9 * choi.alphas, choi.mats)
    assert el.check_case1(case1).verdict == el.CASE_NOT_MPSD
    assert el.check_case2(choi).verdict == el.CASE_MPSD
    for dec, verdict in ((case1, "NotMPSD"), (choi, "MPSD")):
        rep = el.check(el.tensor_from_rank_one_terms(dec.alphas, dec.mats), dec)
        assert rep.verdict == verdict


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
    assert cases.check_case(dec) == want
    assert calls == ([] if want is None else [(want, {})])


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
    assert set(rep2.diagnostics) == common | {"pair_sines", "singular_lines", "line_limits"}
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
