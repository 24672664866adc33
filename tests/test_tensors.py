"""Core tensor plumbing: symmetries, unfolding, contractions, generators.

Expected values come from independent quadruple-loop evaluation or closed
forms, never from the functions under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ellipticity_lab as el
from ellipticity_lab.errors import AsymmetricInput, NonFiniteEntries, SymmetryViolation


def naive_biquadratic(a, x, y):
    acc = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    acc += a[i, j, k, l] * x[i] * x[j] * y[k] * y[l]
    return acc


def naive_unfold(a):
    m = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    m[3 * k + i, 3 * l + j] = a[i, j, k, l]
    return m


rng = np.random.default_rng(1234)


def random_raw():
    return rng.standard_normal((3, 3, 3, 3))


# ---------------------------------------------------------------------------
# symmetrization and constructors


def test_symmetrize_pairs_exact_invariance():
    for _ in range(20):
        raw = random_raw()
        s = el.symmetrize_pairs(raw)
        assert np.array_equal(s, s.transpose(1, 0, 2, 3))
        assert np.array_equal(s, s.transpose(0, 1, 3, 2))
        assert np.array_equal(s, s.transpose(1, 0, 3, 2))
        # idempotent to the bit
        assert np.array_equal(el.symmetrize_pairs(s), s)


def test_symmetrize_pairs_is_orbit_average():
    raw = random_raw()
    s = el.symmetrize_pairs(raw)
    orbit = 0.25 * (
        raw
        + raw.transpose(1, 0, 2, 3)
        + raw.transpose(0, 1, 3, 2)
        + raw.transpose(1, 0, 3, 2)
    )
    assert np.allclose(s, orbit, atol=1e-15)


def test_orbit_spread_zero_on_symmetric():
    s = el.symmetrize_pairs(random_raw())
    assert el.orbit_spread(s) == 0.0
    raw = np.zeros((3, 3, 3, 3))
    raw[0, 1, 0, 0] = 1.0
    assert el.orbit_spread(raw) == 1.0


def test_make_elast4_tolerance():
    raw = el.symmetrize_pairs(random_raw())
    raw2 = raw.copy()
    raw2[0, 1, 2, 2] += 1e-5
    with pytest.raises(SymmetryViolation):
        el.make_elast4(raw2, tol=1e-8)
    t = el.make_elast4(raw2, tol=1e-3)
    assert el.orbit_spread(t.a) == 0.0


def test_orbit_average_near_float_limit():
    # two entries of 1.5e308 in one orbit sum to inf; their mean is finite
    raw = np.zeros((3, 3, 3, 3))
    raw[0, 1, 0, 0] = raw[1, 0, 0, 0] = 1.5e308
    raw[0, 0, 1, 2] = raw[0, 0, 2, 1] = -1.5e308
    raw[2, 2, 2, 2] = 1.0
    t = el.make_elast4(raw)
    assert np.array_equal(t.a, raw)
    p = el.make_pair4(raw)
    assert np.array_equal(p.a, raw)
    # an orbit of opposite signs spreads to inf: rejected, without a warning
    raw[1, 0, 0, 0] = -1.5e308
    with pytest.raises(SymmetryViolation):
        el.make_elast4(raw)
    with pytest.raises(SymmetryViolation):
        el.make_pair4(raw)
    # entries that need no fallback keep the bytes of 0.5 * (a + b)
    small = random_raw()
    m = 0.5 * (small + small.transpose(1, 0, 2, 3))
    assert np.array_equal(el.symmetrize_pairs(small), 0.5 * (m + m.transpose(0, 1, 3, 2)))


def test_non_finite_entries_are_typed():
    raw = np.zeros((3, 3, 3, 3))
    raw[0, 0, 0, 0] = np.inf
    with pytest.raises(NonFiniteEntries):
        el.Elast4(raw)
    # a ValueError too, for callers that caught the untyped error
    with pytest.raises(ValueError):
        el.make_elast4(raw)
    # lambda + 2 mu = 3e308 overflows: a typed error, and no RuntimeWarning
    with pytest.raises(NonFiniteEntries):
        el.tensor_isotropic(1e308, 1e308)


def test_elast4_rejects_asymmetric_raw():
    raw = np.zeros((3, 3, 3, 3))
    raw[0, 1, 0, 0] = 1.0
    with pytest.raises(SymmetryViolation):
        el.Elast4(raw)


def test_elast4_array_is_readonly():
    t = el.tensor_e()
    with pytest.raises(ValueError):
        t.a[0, 0, 0, 0] = 5.0


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 3, 3, 3), elements=st.floats(-10, 10)))
def test_symmetrize_pairs_properties(raw):
    s = el.symmetrize_pairs(raw)
    assert np.array_equal(s, s.transpose(1, 0, 2, 3))
    assert np.array_equal(s, s.transpose(0, 1, 3, 2))
    assert np.array_equal(el.symmetrize_pairs(s), s)


# ---------------------------------------------------------------------------
# unfolding, folding, vec


def test_unfold_positions():
    for _ in range(5):
        t = el.random_tensor(rng)
        assert np.array_equal(el.unfold(t), naive_unfold(t.a))


def test_unfold_of_e_is_identity():
    assert np.array_equal(el.unfold(el.tensor_e()), np.eye(9))


def test_fold_unfold_roundtrip():
    for _ in range(5):
        t = el.random_tensor(rng)
        back = el.fold(el.unfold(t))
        assert np.array_equal(back.a, t.a)


def test_unfold_fold_roundtrip_symmetric_matrix():
    m = rng.standard_normal((9, 9))
    m = 0.5 * (m + m.T)
    assert np.allclose(el.unfold(el.fold(m)), m, atol=1e-15)


def test_fold_rejects_asymmetric():
    m = np.zeros((9, 9))
    m[0, 3] = 1.0
    with pytest.raises(AsymmetricInput):
        el.fold(m)


def test_fold_identity_gives_e():
    t = el.fold(np.eye(9))
    assert np.array_equal(t.a, el.tensor_e().a)


def test_pow2_rescale_is_exact():
    from ellipticity_lab.tensors import pow2_rescale

    a = el.tensor_isotropic(-3.0, 0.1).a
    for k in (-1000, -1, 0, 1, 1000):
        scaled, e = pow2_rescale(np.ldexp(a, k))
        assert 0.5 <= np.max(np.abs(scaled)) < 1.0
        assert np.array_equal(scaled, pow2_rescale(a)[0])
        assert np.array_equal(np.ldexp(scaled, e), np.ldexp(a, k))
    zero, e = pow2_rescale(np.zeros((3, 3, 3, 3)))
    assert e == 0 and not zero.any()


def test_vec_unvec():
    z = rng.standard_normal((3, 3))
    v = el.vec(z)
    for j in range(3):
        for l in range(3):
            assert v[3 * l + j] == z[j, l]
    assert np.array_equal(el.unvec(v), z)


def test_biquadratic_matches_unfold_quadratic_form():
    t = el.random_tensor(rng)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    z = el.vec(np.outer(x, y))
    m = el.unfold(t)
    assert np.isclose(el.biquadratic(t, x, y), z @ m @ z, atol=1e-12)


def test_unfold_quadratic_form_in_a_matrix():
    # vec(Z)^T unfold(t) vec(Z) = sum t[ijkl] Z[i,k] Z[j,l]
    t = el.random_tensor(rng)
    z = rng.standard_normal((3, 3))
    v = el.vec(z)
    assert np.isclose(v @ el.unfold(t) @ v, np.einsum("ijkl,ik,jl->", t.a, z, z), atol=1e-12)


# ---------------------------------------------------------------------------
# contractions


def test_contract_yy_quadratic_form():
    t = el.random_tensor(rng)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    m = el.contract_yy(t, y)
    assert np.allclose(m, m.T, atol=1e-15)
    assert np.isclose(x @ m @ x, naive_biquadratic(t.a, x, y), atol=1e-12)


def test_contract_xx_quadratic_form():
    t = el.random_tensor(rng)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    m = el.contract_xx(t, x)
    assert np.isclose(y @ m @ y, naive_biquadratic(t.a, x, y), atol=1e-12)


def test_biquadratic_naive_agreement():
    for _ in range(10):
        t = el.random_tensor(rng)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert np.isclose(
            el.biquadratic(t, x, y), naive_biquadratic(t.a, x, y), atol=1e-12
        )


# ---------------------------------------------------------------------------
# generators


def test_tensor_e_form_is_product_of_norms():
    t = el.tensor_e()
    for _ in range(5):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert np.isclose(el.biquadratic(t, x, y), (x @ x) * (y @ y), atol=1e-12)


def test_two_squares_closed_form():
    # form = 2 (x1 y1 + x2 y2)^2 + 2 x3^2 y3^2
    t = el.tensor_two_squares()
    assert np.linalg.norm(t.a) == 4.0
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        want = 2.0 * (x[0] * y[0] + x[1] * y[1]) ** 2 + 2.0 * x[2] ** 2 * y[2] ** 2
        assert np.isclose(el.biquadratic(t, x, y), want, atol=1e-12)


def test_two_squares_unfolding_spectrum():
    # hand-computed: eigenvalues {3, 2, 1, 1, -1, 0, 0, 0, 0}
    lam = np.linalg.eigvalsh(el.unfold(el.tensor_two_squares()))
    want = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
    assert np.allclose(lam, want, atol=1e-12)


def test_choi_lam_contracted_matrix():
    # A_g y^2 = diag(2y1^2+g y2^2, 2y2^2+g y3^2, 2y3^2+g y1^2) - y y^T
    for g in (1.0, 1.7):
        t = el.tensor_choi_lam(g)
        for _ in range(5):
            y = rng.standard_normal(3)
            want = np.diag(
                [
                    2 * y[0] ** 2 + g * y[1] ** 2,
                    2 * y[1] ** 2 + g * y[2] ** 2,
                    2 * y[2] ** 2 + g * y[0] ** 2,
                ]
            ) - np.outer(y, y)
            assert np.allclose(el.contract_yy(t, y), want, atol=1e-12)


def test_choi_lam_zero_at_diagonal_point():
    # substitution at x = y = (1,1,1): 3 + 3 - 6 = 0
    t = el.tensor_choi_lam(1.0)
    x = np.ones(3)
    assert abs(el.biquadratic(t, x, x)) < 1e-14
    # and at every sign pattern, since only squares enter the diagonal part
    for sx in ([1, 1, -1], [1, -1, 1], [-1, 1, 1]):
        v = np.asarray(sx, dtype=float)
        assert abs(el.biquadratic(t, v, v)) < 1e-14


def test_choi_lam_warns_below_one():
    with pytest.warns(UserWarning):
        el.tensor_choi_lam(0.5)


def test_isotropic_closed_form():
    # form = mu |x|^2 |y|^2 + (lam+mu) (x.y)^2
    for lam, mu in ((-1.9, 1.0), (3.0, 0.1), (0.0, 1.0)):
        t = el.tensor_isotropic(lam, mu)
        for _ in range(5):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            want = mu * (x @ x) * (y @ y) + (lam + mu) * (x @ y) ** 2
            assert np.isclose(el.biquadratic(t, x, y), want, atol=1e-12)


def test_isotropic_unfolding_spectrum():
    # eigenvalues: 2 lam + 3 mu (x1), mu + (lam+mu)/2 (x5), mu - (lam+mu)/2 (x3)
    lam, mu = 0.0, 1.0
    eigs = np.linalg.eigvalsh(el.unfold(el.tensor_isotropic(lam, mu)))
    want = np.sort([2 * lam + 3 * mu] + [mu + (lam + mu) / 2] * 5 + [mu - (lam + mu) / 2] * 3)
    assert np.allclose(eigs, want, atol=1e-12)


def test_rank_one_terms_form():
    # induced form is sum_s alpha_s (x^T U_s y)^2
    alphas = rng.standard_normal(4)
    mats = rng.standard_normal((4, 3, 3))
    t = el.tensor_from_rank_one_terms(alphas, mats)
    for _ in range(5):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        want = sum(a * float(x @ u @ y) ** 2 for a, u in zip(alphas, mats))
        assert np.isclose(el.biquadratic(t, x, y), want, atol=1e-12)


def test_random_spd_tensor_is_spd():
    for seed in range(5):
        t = el.random_spd_tensor(np.random.default_rng(seed))
        lam = np.linalg.eigvalsh(el.unfold(t))
        assert lam[0] >= 1e-3 * np.linalg.norm(el.unfold(t)) - 1e-15


def test_random_tensor_unit_norm():
    t = el.random_tensor(np.random.default_rng(0))
    assert np.isclose(np.linalg.norm(t.a), 1.0, atol=1e-12)
