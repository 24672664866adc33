"""Brute-force minimization: lattices, grid scan, alternating refinement."""

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab.oracle import oracle_report_to_doc, oracle_verdict_to_doc
from ellipticity_lab.spheres import fibonacci_hemisphere, fibonacci_sphere


# ---------------------------------------------------------------------------
# lattices


def test_fibonacci_sphere_unit_points():
    pts = fibonacci_sphere(777)
    assert pts.shape == (777, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_fibonacci_sphere_deterministic():
    assert np.array_equal(fibonacci_sphere(500), fibonacci_sphere(500))


def test_fibonacci_sphere_covers_both_poles():
    z = fibonacci_sphere(1000)[:, 2]
    assert z.max() > 0.99 and z.min() < -0.99


def test_fibonacci_hemisphere_upper():
    pts = fibonacci_hemisphere(400)
    assert pts.shape == (400, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.all(pts[:, 2] > 0.0)


def test_fibonacci_hemisphere_cached_read_only():
    pts = fibonacci_hemisphere(321)
    assert fibonacci_hemisphere(321) is pts
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    i = np.arange(321, dtype=float)
    z = (i + 0.5) / 321
    r = np.sqrt(1.0 - z * z)
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    assert np.array_equal(pts, np.column_stack((r * np.cos(phi), r * np.sin(phi), z)))


def test_lattice_rejects_empty():
    with pytest.raises(ValueError):
        fibonacci_sphere(0)
    with pytest.raises(ValueError):
        fibonacci_hemisphere(0)


# ---------------------------------------------------------------------------
# grid scan


def test_grid_min_identity_tensor():
    # the identity-unfolding tensor evaluates to |x|^2 |y|^2 = 1 on unit pairs
    rep = el.grid_min_biquadratic(el.tensor_e(), n=500)
    assert abs(rep.min_value - 1.0) < 1e-12
    assert rep.grid_n == 500 and not rep.refined


def test_grid_min_two_squares_nonnegative():
    # sum-of-squares form: every lattice value is >= 0
    rep = el.grid_min_biquadratic(el.tensor_two_squares(), n=1000)
    assert rep.min_value >= -1e-15
    # an exact zero exists off-lattice: x = e3, y = e1 by direct substitution
    t = el.tensor_two_squares()
    assert el.biquadratic(t, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])) == 0.0


def test_grid_rejects_tiny_lattice():
    with pytest.raises(ValueError):
        el.grid_min_biquadratic(el.tensor_e(), n=50)


def test_grid_top_candidates_sorted_and_deterministic():
    t = el.tensor_choi_lam(1.0)
    cands = el.grid_top_candidates(t, n=500, keep=5)
    vals = [c[0] for c in cands]
    assert vals == sorted(vals)
    again = el.grid_top_candidates(t, n=500, keep=5)
    for (v1, x1, y1), (v2, x2, y2) in zip(cands, again):
        assert v1 == v2
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def _lattice_order(t, n):
    """Every lattice value and its flat index y_index * n + x_index, computed
    over the same 256-row chunks as the scan, in (value, index) order."""
    pts = fibonacci_sphere(n)
    vals = []
    for start in range(0, n, 256):
        ys = pts[start : start + 256]
        t_mats = np.einsum("ijkl,mk,ml->mij", t.a, ys, ys)
        t_mats = 0.5 * (t_mats + t_mats.transpose(0, 2, 1))
        vals.append(np.einsum("xi,mij,xj->mx", pts, t_mats, pts, optimize=True))
    flat_vals = np.concatenate(vals).reshape(-1)
    order = np.lexsort((np.arange(flat_vals.size), flat_vals))
    return pts, flat_vals, order


@pytest.mark.parametrize("n, keep", [(300, 10), (600, 1), (257, 25)])
def test_grid_top_candidates_exact_tie_order(n, keep):
    # the keep best pairs are exactly the first keep of the full
    # lexicographic (value, lattice index) order, ties at the cut included
    rng = np.random.default_rng(17)
    tensors = [
        el.tensor_e(),
        el.tensor_isotropic(-3.0, 0.1),
        el.tensor_choi_lam(1.0),
        el.tensor_two_squares(),
    ] + [el.random_tensor(rng) for _ in range(3)]
    for t in tensors:
        pts, flat_vals, order = _lattice_order(t, n)
        cands = el.grid_top_candidates(t, n=n, keep=keep)
        assert len(cands) == keep
        for (_, x, y), idx in zip(cands, order[:keep]):
            assert np.array_equal(x, pts[idx % n])
            assert np.array_equal(y, pts[idx // n])


@pytest.mark.parametrize(
    "t", [el.tensor_choi_lam(1.0), el.tensor_isotropic(-3.0, 0.1)], ids=["choi_lam", "isotropic"]
)
def test_grid_top_candidates_near_float_limit(t):
    # scaled by a power of two to max|a| in [2^1023, 2^1024), the lattice
    # values would overflow to inf/NaN; the scan must still pick the same
    # pairs in the same order as for the unscaled tensor
    big = el.Elast4(np.ldexp(t.a, 1024 - np.frexp(np.max(np.abs(t.a)))[1]))
    assert np.max(np.abs(big.a)) >= 2.0**1023
    want = el.grid_top_candidates(t, n=200, keep=10)
    got = el.grid_top_candidates(big, n=200, keep=10)
    assert len(got) == len(want) == 10
    for (_, x1, y1), (_, x2, y2) in zip(want, got):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# refinement


def test_refine_min_monotone_trace():
    t = el.tensor_isotropic(-3.0, 0.1)
    grid = el.grid_min_biquadratic(t, n=500)
    rep = el.refine_min(t, grid.argmin_x, grid.argmin_y)
    trace = np.asarray(rep.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert rep.refined
    assert rep.min_value == trace[-1]
    # sphere minimum is min(mu, lambda + 2 mu) = -2.8 in closed form
    assert abs(rep.min_value - (-2.8)) < 1e-10


def test_refine_min_identity_is_stationary():
    t = el.tensor_e()
    rep = el.refine_min(t, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert abs(rep.min_value - 1.0) < 1e-12


def test_refine_choi_lam_reaches_zero():
    # the form has zeros; from the n = 1000 grid argmin the alternating
    # eigenvector steps land on one to high accuracy
    t = el.tensor_choi_lam(1.0)
    grid = el.grid_min_biquadratic(t, n=1000)
    rep = el.refine_min(t, grid.argmin_x, grid.argmin_y)
    assert 0.0 <= grid.min_value
    assert abs(rep.min_value) <= 1e-10


def test_refine_normalizes_inputs():
    t = el.tensor_e()
    rep = el.refine_min(t, np.array([2.0, 0.0, 0.0]), np.array([0.0, 3.0, 0.0]))
    assert abs(np.linalg.norm(rep.argmin_x) - 1.0) < 1e-12
    assert abs(np.linalg.norm(rep.argmin_y) - 1.0) < 1e-12


def _refine_with_sym_eig(t, x, y, tol=1e-12, max_sweeps=200):
    """The alternating minimization written with the gauged sym_eig."""
    x = np.asarray(x, dtype=float) / np.linalg.norm(x)
    y = np.asarray(y, dtype=float) / np.linalg.norm(y)
    val = el.biquadratic(t, x, y)
    trace = [val]
    for _ in range(max_sweeps):
        improved = False
        cand_x = el.sym_eig(el.contract_yy(t, y)).vectors[:, 0]
        cand = el.biquadratic(t, cand_x, y)
        if cand < val:
            x, val, improved = cand_x, cand, True
        cand_y = el.sym_eig(el.contract_xx(t, x)).vectors[:, 0]
        cand = el.biquadratic(t, x, cand_y)
        if cand < val:
            y, val, improved = cand_y, cand, True
        if improved:
            trace.append(val)
        if not improved or (len(trace) > 1 and trace[-2] - trace[-1] < tol):
            break
    return val, x, y, tuple(trace)


def _refine_starts():
    rng = np.random.default_rng(23)
    for t in (el.tensor_isotropic(-3.0, 0.1), el.tensor_choi_lam(1.0)):
        for _, x, y in el.grid_top_candidates(t, n=400, keep=5):
            yield t, x, y
    for _ in range(6):
        t = el.random_tensor(rng)
        yield t, rng.standard_normal(3), rng.standard_normal(3)


def test_refine_min_matches_sym_eig_reference():
    # the private eigenvector helper reproduces the sym_eig trajectory bit for bit
    for t, x, y in _refine_starts():
        rep = el.refine_min(t, x, y)
        val, rx, ry, trace = _refine_with_sym_eig(t, x, y)
        assert rep.min_value == val
        assert np.array_equal(rep.argmin_x, rx) and np.array_equal(rep.argmin_y, ry)
        assert np.array_equal(rep.objective_trace, trace)


def test_refine_min_replaced_vectors_are_gauged():
    # a vector that refinement replaced has its largest-magnitude entry positive
    replaced = 0
    for t, x, y in _refine_starts():
        rep = el.refine_min(t, x, y)
        for got, start in ((rep.argmin_x, x), (rep.argmin_y, y)):
            if not np.array_equal(got, start / np.linalg.norm(start)):
                replaced += 1
                assert got[np.argmax(np.abs(got))] > 0.0
    assert replaced > 0


# ---------------------------------------------------------------------------
# verdicts


def test_oracle_verdict_refutes_isotropic():
    v = el.oracle_verdict(el.tensor_isotropic(-3.0, 0.1), n=500)
    assert v.verdict == el.ORACLE_NOT_MPSD
    assert v.witness_value is not None and v.witness_value < 0.0
    # the witness re-evaluates the form at the reported pair
    t = el.tensor_isotropic(-3.0, 0.1)
    direct = el.biquadratic(t, v.report.argmin_x, v.report.argmin_y)
    assert v.witness_value == direct


def test_oracle_verdict_strict_is_hedged():
    v = el.oracle_verdict(el.tensor_e(), n=500)
    assert v.verdict == el.ORACLE_MPD_LIKELY
    assert v.witness_value is None
    assert abs(v.report.min_value - 1.0) < 1e-12


def test_oracle_verdict_boundary():
    v = el.oracle_verdict(el.tensor_choi_lam(1.0), n=1000)
    assert v.verdict == el.ORACLE_BOUNDARY
    assert abs(v.report.min_value) <= 1e-8 * v.scale


def test_oracle_docs_serializable_and_stable():
    v1 = el.oracle_verdict(el.tensor_isotropic(-3.0, 0.1), n=500)
    v2 = el.oracle_verdict(el.tensor_isotropic(-3.0, 0.1), n=500)
    s1 = el.dumps_report(oracle_verdict_to_doc(v1))
    s2 = el.dumps_report(oracle_verdict_to_doc(v2))
    assert s1 == s2
    doc = oracle_report_to_doc(v1.report)
    assert doc["refined"] is True
    assert doc["min_value"] == v1.report.min_value
