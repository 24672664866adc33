"""Symmetric eigensolver wrapper and the PSD cone projection."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ellipticity_lab as el
from ellipticity_lab import oracle, spectral
from ellipticity_lab.errors import AsymmetricInput, EigensolverFailure, eigensolver_errors
from ellipticity_lab.spectral import (
    SYMMETRY_TOL,
    _eigh,
    _psd_clamp,
    _require_symmetric,
    eigenvalue_bounds,
)

rng = np.random.default_rng(99)

# The message of the one range rule of _require_symmetric.
OUT_OF_RANGE = r"symmetric eigensolver failed: the matrix is not finite or n \* max\|entry\|"


def rand_sym(n=9):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def test_sym_eig_ascending_and_reconstructs():
    m = rand_sym()
    pair = el.sym_eig(m)
    assert np.all(np.diff(pair.values) >= 0)
    rec = (pair.vectors * pair.values) @ pair.vectors.T
    assert np.allclose(rec, m, atol=1e-12)


def test_sym_eig_sign_convention():
    # each eigenvector's largest-magnitude entry is positive
    for _ in range(10):
        pair = el.sym_eig(rand_sym())
        for col in pair.vectors.T:
            assert col[np.argmax(np.abs(col))] > 0


def test_sym_eig_known_2x2_block():
    m = np.diag([4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -2.0])
    pair = el.sym_eig(m)
    assert pair.values[0] == -2.0
    assert pair.values[-1] == 4.0
    assert pair.vectors[8, 0] == 1.0  # sign fixed


def test_sym_eig_rejects_asymmetric():
    m = np.zeros((9, 9))
    m[0, 1] = 1.0
    with pytest.raises(AsymmetricInput):
        el.sym_eig(m)


def test_min_eigenvalue():
    m = rand_sym()
    assert np.isclose(el.min_eigenvalue(m), np.linalg.eigvalsh(m)[0], atol=1e-12)


def test_psd_project_clamps_at_zero():
    m = np.diag([-1.0, 2.0, 0.0, 3.0, -5.0, 1.0, 1.0, 1.0, 1.0])
    p = el.psd_project(m)
    assert np.allclose(p, np.diag([0.0, 2.0, 0.0, 3.0, 0.0, 1.0, 1.0, 1.0, 1.0]), atol=1e-14)


def test_psd_project_output_psd_and_symmetric():
    for _ in range(10):
        p = el.psd_project(rand_sym())
        assert np.array_equal(p, p.T)
        assert np.linalg.eigvalsh(p)[0] >= -1e-13


def test_psd_project_matches_gauged_reconstruction():
    # without the sign gauge the projection is the same bits as with it
    for _ in range(50):
        m = rand_sym()
        pair = el.sym_eig(m)
        rebuilt = (pair.vectors * np.maximum(pair.values, 0.0)) @ pair.vectors.T
        assert np.array_equal(el.psd_project(m), 0.5 * (rebuilt + rebuilt.T))


def test_psd_project_idempotent():
    p = el.psd_project(rand_sym())
    assert np.allclose(el.psd_project(p), p, atol=1e-12)


def test_psd_project_nearest_point():
    # no PSD sample may be closer in Frobenius norm
    m = rand_sym()
    p = el.psd_project(m)
    d = np.linalg.norm(m - p)
    for _ in range(200):
        g = rng.standard_normal((9, 4))
        s = g @ g.T * rng.uniform(0, 2)
        assert d <= np.linalg.norm(m - s) + 1e-12


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (5, 5), elements=st.floats(-5, 5)))
def test_psd_project_properties(raw):
    m = 0.5 * (raw + raw.T)
    p = el.psd_project(m)
    assert np.linalg.eigvalsh(p)[0] >= -1e-12
    # projection difference is orthogonal to the result: <m - p, p> = 0
    assert abs(np.sum((m - p) * p)) < 1e-9


# ---------------------------------------------------------------------------
# the symmetry check in front of every eigensolve


def _psd_project_of_symmetric_part(m):
    """psd_project as it runs on 0.5 * (m + m.T), spelled out."""
    values, vectors = np.linalg.eigh(0.5 * (m + m.T))
    rebuilt = (vectors * np.maximum(values, 0.0)) @ vectors.T
    return 0.5 * (rebuilt + rebuilt.T)


def test_psd_project_exactly_symmetric_input_same_bits():
    for scale in (1.0, 2.0**-600, 2.0**600, 1e-310):
        m = scale * rand_sym()
        m[3, 5] = m[5, 3] = 0.0
        assert np.array_equal(0.5 * (m + m.T), m)
        want = _psd_project_of_symmetric_part(m)
        assert el.psd_project(m).tobytes() == want.tobytes()


def test_psd_project_is_the_kernel_on_the_validated_matrix():
    # psd_project is _require_symmetric followed by the clamp kernel that
    # run_pocs calls on each sweep
    for m in (rand_sym(), np.ldexp(rand_sym(), -900), rand_sym() + 1e-15 * np.eye(9, k=1)):
        valid = _require_symmetric(m)
        assert el.psd_project(m).tobytes() == _psd_clamp(valid).tobytes()


def test_bit_symmetric_finite_input_takes_the_fast_path():
    for m in (rand_sym(), np.ldexp(rand_sym(), 1000), np.zeros((0, 0))):
        assert _require_symmetric(m) is m


def test_mirrored_signed_zeros_take_the_slow_path():
    # -0.0 == 0.0, but the bits differ: symmetrized to +0 as before
    m = rand_sym()
    m[1, 4], m[4, 1] = -0.0, 0.0
    got = _require_symmetric(m)
    assert got is not m
    assert got.tobytes() == (0.5 * (m + m.T)).tobytes()
    assert not np.signbit(got[[1, 4], [4, 1]]).any()


@pytest.mark.parametrize("peak", [2.0**1023, -(2.0**1023), np.nan])
def test_nan_and_entries_at_two_to_the_1023_take_the_slow_path(peak):
    # bit-symmetric, but NaN or past the range rule: refused before the
    # symmetry test
    for i, j in ((0, 0), (2, 3)):
        m = rand_sym()
        m[i, j] = m[j, i] = peak
        assert m.tobytes() == m.T.tobytes()
        with pytest.raises(EigensolverFailure, match=OUT_OF_RANGE):
            _require_symmetric(m)


def test_psd_project_rejects_asymmetry_above_tolerance():
    m = rand_sym()
    m[0, 1] += 10.0 * SYMMETRY_TOL * max(1.0, float(np.max(np.abs(m))))
    with pytest.raises(AsymmetricInput):
        el.psd_project(m)


def test_psd_project_symmetrizes_within_tolerance():
    for gap in (1e-15, 0.5 * SYMMETRY_TOL):
        m = rand_sym()
        m[2, 7] += gap
        assert not np.array_equal(m, m.T)
        want = _psd_project_of_symmetric_part(m)
        assert el.psd_project(m).tobytes() == want.tobytes()
    # opposite zeros are equal but not the same bits: symmetrized to +0
    m = rand_sym()
    m[1, 4], m[4, 1] = -0.0, 0.0
    want = _psd_project_of_symmetric_part(m)
    assert el.psd_project(m).tobytes() == want.tobytes()


def test_psd_project_nan_input_as_before():
    # NaN never equals itself, so it takes the tolerance path as it always
    # did; its symmetric part is not finite, a typed error on either place
    on_diagonal, off_diagonal = np.eye(9), rand_sym()
    on_diagonal[0, 0] = np.nan
    off_diagonal[0, 1] = off_diagonal[1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _psd_project_of_symmetric_part(off_diagonal)
    for m in (on_diagonal, off_diagonal):
        with pytest.raises(EigensolverFailure, match="not finite"):
            el.psd_project(m)


def test_psd_project_entries_beyond_half_the_float_limit():
    # m + m.T would overflow: a typed error, with no warning and no NaN projection
    m = rand_sym()
    m[2, 3] = m[3, 2] = 2.0**1023
    with pytest.raises(EigensolverFailure, match=OUT_OF_RANGE):
        el.psd_project(m)


@pytest.mark.parametrize(
    "make",
    [
        lambda: el.tensor_choi_lam(1.0),
        lambda: el.tensor_isotropic(-3.0, 0.1),
        lambda: el.tensor_isotropic(-1.0, 1.0),
        el.tensor_e,
    ],
    ids=["choi-lam", "isotropic(-3,0.1)", "isotropic(-1,1)", "E"],
)
def test_overflowing_symmetric_part_is_a_typed_error(make):
    # at max|entry| = 1.7e308 the unfolding is bit-symmetric, but beyond
    # 2**1023, so its symmetric part overflows; eigh of that returns NaN
    m = el.unfold(make())
    m = m / np.abs(m).max() * 1.7e308
    for solve in (el.sym_eig, el.psd_project, el.min_eigenvalue, eigenvalue_bounds):
        with pytest.raises(EigensolverFailure, match="symmetric eigensolver failed"):
            solve(m)


@pytest.mark.parametrize("scale", [8e307, 2.0**1022, 2e307, -8e307])
def test_a_spectrum_past_the_float_range_is_a_typed_error(scale):
    # finite and bit-symmetric, but 9 |scale| is past the range rule (the
    # eigenvalue 9 scale passes the float range): refused before any solve
    m = np.full((9, 9), scale)
    for solve in (el.sym_eig, el.min_eigenvalue, eigenvalue_bounds, el.psd_project):
        with pytest.raises(EigensolverFailure, match=OUT_OF_RANGE):
            solve(m)


def _largest_accepted(n):
    """The largest float p with n * p < 2**1020 in float arithmetic."""
    p = np.ldexp(1.0, 1020) / n
    while n * p >= 2.0**1020:
        p = np.nextafter(p, 0.0)
    while n * np.nextafter(p, np.inf) < 2.0**1020:
        p = np.nextafter(p, np.inf)
    return float(p)


def test_a_spectrum_just_inside_the_float_range_is_solved():
    # the largest input the range rule accepts is solved by every public
    # function and by fold, with finite output; the next float up is refused
    p = _largest_accepted(9)
    for sign in (1.0, -1.0):
        m = np.full((9, 9), sign * p)  # eigenvalues 0 and 9 sign p, about 2**1020
        pair = el.sym_eig(m)
        assert np.isfinite(pair.values).all() and np.isfinite(pair.vectors).all()
        assert max(abs(pair.values[0]), abs(pair.values[-1])) == pytest.approx(9 * p)
        assert abs(el.min_eigenvalue(m) - min(0.0, sign * 9 * p)) < 1e-12 * 9 * p
        lower, upper = eigenvalue_bounds(m)
        assert np.isfinite(lower).all() and np.isfinite(upper).all()
        assert np.all(lower <= pair.values) and np.all(pair.values <= upper)
        projection = el.psd_project(m)
        assert np.isfinite(projection).all()
        assert np.array_equal(projection, _psd_clamp(m))
        assert np.array_equal(el.unfold(el.fold(m)), m)
        m_next = np.full((9, 9), sign * np.nextafter(p, np.inf))
        for solve in (el.sym_eig, el.min_eigenvalue, eigenvalue_bounds, el.psd_project, el.fold):
            with pytest.raises(EigensolverFailure, match=OUT_OF_RANGE):
                solve(m_next)


def test_a_projection_that_overflows_its_reconstruction_is_a_typed_error():
    # the spectrum, +-1.13e308, is finite, but the projection's diagonal
    # 9.7e307 would pass the float range when the rebuilt matrix is
    # symmetrized, and the residual sums of eigenvalue_bounds overflowed
    # with a RuntimeWarning (an error in this suite): 2 * 8e307 is past the
    # range rule, so none of them is solved
    m = np.array([[8e307, 8e307], [8e307, -8e307]])
    for solve in (el.sym_eig, el.psd_project, eigenvalue_bounds):
        with pytest.raises(EigensolverFailure, match=OUT_OF_RANGE):
            solve(m)


def test_callers_of_an_overflowing_spectrum_raise_the_typed_error():
    # the unfolding of the all-8e307 tensor has the spectrum above: check
    # solves it at unit scale and certifies it M-PSD at its first stage, and
    # spectral_decomposition, which solves it as given, gets the typed error;
    # so it does on 8e307 E, whose ||A||_F = 2.4e308 was an OverflowError
    ones = el.make_elast4(np.full((3, 3, 3, 3), 8e307))
    rep = el.check(ones)
    assert (rep.verdict, rep.certified_mpsd_by) == ("MPSD", "spsd-eigen")
    for t in (ones, el.make_elast4(el.tensor_e().a * 8e307)):
        with pytest.raises(EigensolverFailure, match=OUT_OF_RANGE):
            el.spectral_decomposition(t)


# ---------------------------------------------------------------------------
# the direct LAPACK calls: numpy's public solvers bit for bit, and typed
# failures from every entry point


def _bit_identity_matrices(n):
    if n == 9:
        tensors = [
            el.tensor_e(),
            el.tensor_two_squares(),
            el.tensor_choi_lam(1.0),
            el.tensor_choi_lam(1.5),
            el.tensor_isotropic(1.0, 1.0),
            el.tensor_isotropic(-1.9, 1.0),
            el.tensor_isotropic(-3.0, 0.1),
            el.random_spd_tensor(np.random.default_rng(0)),
        ]
        yield from (el.unfold(t) for t in tensors)
    yield np.zeros((n, n))
    for c in (1.0, -2.5, 1e-300, 3e300):
        yield c * np.eye(n)
    draws = np.random.default_rng(n)
    for _ in range(200):
        g = draws.standard_normal((n, n))
        yield g + g.T


@pytest.mark.parametrize("n", [9, 3])
def test_the_kernels_are_numpys_solvers_bit_for_bit(n):
    # spectral._eigh calls numpy's private LAPACK gufuncs, and
    # oracle._eigh_pairs calls it on a nested tuple of Python floats; a
    # numpy whose eigh or eigvalsh differs from them fails here
    count = 0
    for m in _bit_identity_matrices(n):
        w, v = np.linalg.eigh(m)
        with eigensolver_errors():
            kw, kv = _eigh(m)
            kvals = _eigh(m, vectors=False)
        assert (kw.tobytes(), kv.tobytes()) == (w.tobytes(), v.tobytes())
        assert kvals.tobytes() == np.linalg.eigvalsh(m).tobytes()
        if n == 3:
            pairs = [m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2]]
            with eigensolver_errors():
                lam, vecs = oracle._eigh_pairs(pairs)
            assert np.array(lam).tobytes() == w.tobytes()
            assert np.array(vecs).T.tobytes() == v.tobytes()
        count += 1
    assert count == 205 + 8 * (n == 9)


def _nan_solve(m, vectors=True):
    """A solve that LAPACK does not converge on: the kernel on NaN."""
    return _eigh(np.full_like(m, np.nan), vectors)


@pytest.mark.parametrize(
    "solve",
    [el.sym_eig, el.min_eigenvalue, eigenvalue_bounds, el.psd_project],
    ids=["sym_eig", "min_eigenvalue", "eigenvalue_bounds", "psd_project"],
)
def test_each_public_solve_holds_the_error_state(solve, monkeypatch):
    # without the state, the failed solve would be a RuntimeWarning (an
    # error under this suite's filter) and a NaN result
    monkeypatch.setattr(spectral, "_eigh", _nan_solve)
    with pytest.raises(EigensolverFailure, match="symmetric eigensolver failed: .*did not converge"):
        solve(np.eye(9))


def test_an_unheld_failed_solve_is_a_warning():
    with pytest.warns(RuntimeWarning, match="invalid value"):
        _nan_solve(np.eye(9))


# ---------------------------------------------------------------------------
# proved eigenvalue enclosures, checked in exact rational arithmetic


def _negative_pivots(m, shift: Fraction) -> int:
    """Negative eigenvalues of m - shift I: the pivot signs of its exact LDL^T.

    Without pivoting, so a zero pivot (probability zero here) fails the test.
    """
    n = m.shape[0]
    a = [[Fraction(float(m[i, j])) - (shift if i == j else 0) for j in range(n)] for i in range(n)]
    negatives = 0
    for k in range(n):
        pivot = a[k][k]
        assert pivot != 0
        negatives += pivot < 0
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
    return negatives


def _test_matrices():
    q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    clustered = (q * np.array([-1.0, -1.0 + 2e-16, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0 + 1e-15])) @ q.T
    g = rng.standard_normal((9, 3))
    yield "random", rand_sym()
    yield "clustered", 0.5 * (clustered + clustered.T)
    gram = g @ g.T
    gram = 0.5 * (gram + gram.T)
    yield "rank-deficient", gram
    yield "negative-definite", -gram - np.eye(9)
    yield "diagonal", np.diag(np.arange(9.0))
    for k in (-1000, -300, -60, 60, 300, 1000):
        yield f"random-2^{k}", np.ldexp(rand_sym(), k)


def test_eigenvalue_bounds_enclose_every_eigenvalue_exactly():
    for label, m in _test_matrices():
        assert np.array_equal(m, m.T), label  # the bounds are for m itself
        lower, upper = eigenvalue_bounds(m)
        assert np.all(lower <= upper), label
        for k in range(9):
            # lambda_k < upper[k]: at least k + 1 eigenvalues lie below upper[k]
            assert _negative_pivots(m, Fraction(float(upper[k]))) >= k + 1, (label, k)
            # lambda_k >= lower[k]: at most k eigenvalues lie below lower[k]
            assert _negative_pivots(m, Fraction(float(lower[k]))) <= k, (label, k)
        # the enclosures are tight, within a few hundred units of the spectrum
        width = float(np.max(upper - lower))
        assert width <= 1e-12 * max(float(np.max(np.abs(m))), 1e-300), label
