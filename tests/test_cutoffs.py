"""The symmetry cutoffs of make_elast4, make_pair4 and fold scale with
their data: a 2^k multiple of an input is accepted or rejected as the input
itself, from k = -1000 to 1000."""

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab.errors import AsymmetricInput, SymmetryViolation

SCALES = range(-1000, 1001, 100)


def _elast_raw():
    return el.symmetrize_pairs(np.random.default_rng(5).standard_normal((3, 3, 3, 3)))


def _pair_raw():
    raw = np.random.default_rng(6).standard_normal((3, 3, 3, 3))
    return 0.5 * (raw + raw.transpose(1, 0, 3, 2))


def _sym_matrix():
    m = np.random.default_rng(7).standard_normal((9, 9))
    return 0.5 * (m + m.T)


# (constructor, exact input, entry whose orbit partner is left alone, error)
CASES = {
    "make_elast4": (el.make_elast4, _elast_raw, (0, 1, 2, 2), SymmetryViolation),
    "make_pair4": (el.make_pair4, _pair_raw, (0, 1, 2, 0), SymmetryViolation),
    "fold": (el.fold, _sym_matrix, (0, 3), AsymmetricInput),
}


def _spread(base, idx, k, ulp):
    """base times 2^k with entry idx moved one ulp up, or by 1e-3 max|base|."""
    arr = np.ldexp(base, k)
    if ulp:
        arr[idx] = np.nextafter(arr[idx], np.inf)
    else:
        arr[idx] += 1e-3 * np.max(np.abs(arr))
    return arr


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("k", SCALES)
def test_one_ulp_spread_is_accepted_at_every_scale(name, k):
    build, make, idx, _ = CASES[name]
    base = make()
    want = build(_spread(base, idx, 0, ulp=True)).a
    got = build(_spread(base, idx, k, ulp=True)).a
    assert np.array_equal(got, np.ldexp(want, k))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("k", SCALES)
def test_relative_spread_of_1e3_is_rejected_at_every_scale(name, k):
    build, make, idx, error = CASES[name]
    base = make()
    with pytest.raises(error):
        build(_spread(base, idx, 0, ulp=False))
    with pytest.raises(error):
        build(_spread(base, idx, k, ulp=False))


def test_fold_of_an_overflowing_symmetric_part_is_typed():
    m = _sym_matrix()
    m[2, 5] = m[5, 2] = 2.0**1023
    with pytest.raises(el.EigensolverFailure):
        el.fold(m)
