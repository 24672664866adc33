"""Symmetric eigensolver wrapper and the PSD cone projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ellipticity_lab as el
from ellipticity_lab.errors import AsymmetricInput

rng = np.random.default_rng(99)


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
