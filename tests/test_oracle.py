"""Brute-force minimization: lattices, grid scan, Newton refinement, basins."""

from fractions import Fraction

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cli, oracle
from ellipticity_lab.errors import EigensolverFailure
from ellipticity_lab.oracle import oracle_report_to_doc, oracle_verdict_to_doc
from ellipticity_lab.spheres import fibonacci_hemisphere, fibonacci_sphere
from ellipticity_lab.tensors import pow2_rescale


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


@pytest.mark.parametrize("n", [100, 257, 600, 2000])
def test_scan_lattice_is_the_upper_half(n):
    # the scan takes the first (n + 1) // 2 points of the n-point lattice,
    # all in the closed upper hemisphere, for x and for y alike
    pts, xx = oracle._lattice(n)
    assert np.array_equal(pts, fibonacci_sphere(n)[: (n + 1) // 2])
    assert np.all(pts[:, 2] >= 0.0)
    assert np.array_equal(xx, _half_lattice(n)[1])


def test_half_lattice_minimum_matches_full_lattice_refinement():
    # the form is even in x and in y, so nothing below the half lattice's
    # minimum is lost: refining from the argmin of the full n x n lattice
    # ends no lower than the oracle, up to rounding
    n = 2000
    full = fibonacci_sphere(n)
    full_xx = _outer9(full)
    rng = np.random.default_rng(41)
    for _ in range(100):
        t = el.random_tensor(rng)
        vals = _row_mats(t.a, full) @ full_xx.T
        iy, ix = np.unravel_index(np.argmin(vals), vals.shape)
        ref = el.refine_min(t, full[ix], full[iy])
        got = el.oracle_verdict(t, n=n).report.min_value
        assert got <= ref.min_value + 1e-9 * np.max(np.abs(t.a))


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


def _outer9(pts):
    """The outer products x x^T of the points, flattened to 9 entries."""
    return (pts[:, :, None] * pts[:, None, :]).reshape(len(pts), 9)


def _row_mats(a, pts):
    """The row matrices A y^2 at the points, as the scan computes them: one
    product of the outer products y y^T with the 9x9 a[ij, kl], symmetrised
    and flattened to 9 entries."""
    t_mats = (_outer9(pts) @ a.reshape(9, 9).T).reshape(len(pts), 3, 3)
    return (0.5 * (t_mats + t_mats.transpose(0, 2, 1))).reshape(len(pts), 9)


def _half_lattice(n):
    """The upper half of the n-point sphere lattice, as the scan takes it,
    and its outer products."""
    pts = fibonacci_sphere(n)[: (n + 1) // 2]
    return pts, _outer9(pts)


def _lattice_order(t, n, keep):
    """The flat indices y_index * m + x_index of the first keep pairs of the
    m-point half lattice in (value, index) order: the exhaustive reference
    for the pruned scan.

    Values come from one product t9 @ xx.T of every row matrix A y^2 of the
    rescaled tensor with every outer product x x^T, the scan's arithmetic,
    which the scan evaluates a block of rows at a time; the pruned scan
    must reproduce them bit for bit. Only the values up to the keep-th
    smallest are sorted, which gives the same first keep entries, ties
    included."""
    pts, xx = _half_lattice(n)
    flat_vals = (_scan_rows(t, n) @ xx.T).reshape(-1)
    near = np.flatnonzero(flat_vals <= np.partition(flat_vals, keep - 1)[keep - 1])
    order = near[np.lexsort((near, flat_vals[near]))][:keep]
    return pts, order


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _rotated_choi_lam(seed=11):
    # Choi-Lam (gamma = 1) in seeded rotated x and y frames: a boundary form
    # whose row bounds lie above its best lattice pairs on all but a few rows
    rng = np.random.default_rng(seed)
    p, q = _rotation(rng), _rotation(rng)
    a = np.einsum("ijkl,ai,bj,ck,dl->abcd", el.tensor_choi_lam(1.0).a, p, p, q, q)
    return el.make_elast4(a)


def _scan_tensors():
    rng = np.random.default_rng(17)
    return [
        el.tensor_e(),
        el.tensor_isotropic(-3.0, 0.1),
        el.tensor_choi_lam(1.0),
        el.tensor_two_squares(),
    ] + [el.random_tensor(rng) for _ in range(3)] + [
        _rotated_choi_lam(),
        el.random_spd_tensor(np.random.default_rng(19)),
    ]


@pytest.mark.parametrize("n, keep", [(300, 10), (600, 1), (257, 25), (2000, 10)])
def test_grid_top_candidates_exact_tie_order(n, keep):
    # the keep best pairs are exactly the first keep of the full
    # lexicographic (value, lattice index) order, ties at the cut included,
    # whether the scan prunes almost every row or none
    for t in _scan_tensors():
        pts, order = _lattice_order(t, n, keep)
        cands = el.grid_top_candidates(t, n=n, keep=keep)
        assert len(cands) == keep
        m = len(pts)
        for (_, x, y), idx in zip(cands, order):
            assert np.array_equal(x, pts[idx % m])
            assert np.array_equal(y, pts[idx // m])


@pytest.mark.parametrize("n, keep", [(2000, 5), (500, 1), (400, 10)])
def test_grid_top_candidates_do_not_depend_on_row_order(monkeypatch, n, keep):
    # the estimate only orders the rows; whichever order the scan takes them
    # in, the skip test and the block padding must leave the same values
    # and vectors, bit for bit
    rng = np.random.default_rng(43)
    tensors = [
        el.tensor_e(),
        el.tensor_two_squares(),
        el.tensor_isotropic(-3.0, 0.1),
        _rotated_choi_lam(),
        el.random_tensor(rng),
        el.random_spd_tensor(rng),
    ]

    def bits(t):
        return [(v.hex(), x.tobytes(), y.tobytes()) for v, x, y in el.grid_top_candidates(t, n, keep)]

    want = [bits(t) for t in tensors]
    estimate, keys = oracle._lambda_min_estimate, np.random.default_rng(47)
    for order in (
        lambda t9: -estimate(t9),
        lambda t9: keys.standard_normal(len(t9)),
        lambda t9: np.zeros(len(t9)),
    ):
        monkeypatch.setattr(oracle, "_lambda_min_estimate", order)
        assert [bits(t) for t in tensors] == want


def _pow2_copy(t, e):
    """t scaled by a power of two to max|a| in [2**(e - 1), 2**e)."""
    return el.Elast4(np.ldexp(t.a, e - np.frexp(np.max(np.abs(t.a)))[1]))


def _positive_definite(row, shift):
    """Whether the symmetric 3x3 matrix row (9 floats) less shift I is
    positive definite, by its leading minors in exact arithmetic."""
    (a, b, c), (_, d, e), (_, _, f) = (
        [Fraction(float(v)) for v in row[i : i + 3]] for i in (0, 3, 6)
    )
    a, d, f = a - shift, d - shift, f - shift
    det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    return a > 0 and a * d - b * b > 0 and det > 0


def _unproved_skips(skips, t9, levels):
    """The rows that skips(t9, levels) drops although lambda_min <= level -
    1e-13, in exact arithmetic, and the number of rows it drops. With level
    = cut + _BOUND_SLACK a row with lambda_min > level - 1e-13 has every
    lattice value, which rounding moves by less than 1e-13, above the cut."""
    levels = np.broadcast_to(levels, len(t9))
    dropped = np.flatnonzero(skips(t9, levels))
    bad = [
        m for m in dropped
        if not _positive_definite(t9[m], Fraction(float(levels[m])) - Fraction(1e-13))
    ]
    return bad, dropped.size


def _scan_rows(t, n):
    """The (m, 9) row matrices A y^2 of the scan over the m-point half
    lattice, on the rescaled tensor."""
    return _row_mats(pow2_rescale(t.a)[0], _half_lattice(n)[0])


def _rows_near_level(rng, level, count):
    """Symmetric rows with lambda_min within 1e-12 of level, the next
    eigenvalue from 0 to 1 above it, so near-double minima included."""
    gaps = np.concatenate(([0.0, 1e-16, 1e-14, 1e-12], 10.0 ** rng.uniform(-10, 0, count - 4)))
    rows = []
    for gap in gaps:
        q = _rotation(rng)
        low = level + rng.uniform(-1e-12, 1e-12)
        m = q @ np.diag([low, low + gap, low + gap + rng.uniform(0, 2)]) @ q.T
        rows.append((0.5 * (m + m.T)).reshape(9))
    return np.array(rows)


def _skip_test_cases():
    rng = np.random.default_rng(29)
    m = rng.uniform(-3, 3, (400, 3, 3))
    yield (0.5 * (m + m.transpose(0, 2, 1))).reshape(400, 9), rng.uniform(-9, 9, 400)
    tensors = _scan_tensors() + [el.random_tensor(rng) for _ in range(3)]
    for t in tensors + [_pow2_copy(t, 1024) for t in tensors]:
        t9 = _scan_rows(t, 200)
        lam = np.linalg.eigvalsh(t9.reshape(-1, 3, 3))[:, 0]
        # the level of the scan's cut, and levels within 1e-12 of each row's
        # smallest eigenvalue, where the test has to be exact
        yield t9, np.quantile(lam, 0.02) + oracle._BOUND_SLACK
        yield t9, lam + rng.uniform(-1e-12, 1e-12, lam.size)
    for level in (-9.0, -2.5, 0.0, 1e-13, 0.7, 3.0, 9.0):
        yield _rows_near_level(rng, level, 150), level


def test_skipped_rows_are_proved_above_the_cut():
    # _min_pivot drops a row at level c only where T - (c - 1e-13) I is
    # positive definite in exact arithmetic, the margin the 1e-12 slack needs
    def skips(t9, levels):
        return oracle._min_pivot(t9, levels) > 0.0

    total = 0
    for t9, levels in _skip_test_cases():
        bad, dropped = _unproved_skips(skips, t9, levels)
        assert bad == []
        total += dropped
    assert total > 1000


def test_skip_test_bites():
    # a copy that also accepts slightly negative pivots drops rows whose
    # smallest eigenvalue lies below the level, and the check above sees it
    def loose(t9, levels):
        return oracle._min_pivot(t9, levels) > -1e-12

    rng = np.random.default_rng(37)
    for level in (-2.5, 0.0, 0.7):
        bad, _ = _unproved_skips(loose, _rows_near_level(rng, level, 150), level)
        assert bad


def test_scan_prunes_rows_only_where_bounds_allow(monkeypatch):
    # rows evaluated at n = 2000, 1000 rows of the half lattice: one block
    # where the bound of all but a few rows lies above the best pairs, every
    # row where lambda_min(A y^2) is the same for every y, as for an
    # isotropic tensor
    scan_block = oracle._scan_block
    evaluated = []

    def recording_scan_block(t9, xx, rows, keep, cut):
        evaluated.append(len(rows))
        return scan_block(t9, xx, rows, keep, cut)

    monkeypatch.setattr(oracle, "_scan_block", recording_scan_block)
    rng = np.random.default_rng(31)
    for t, most in [
        (_rotated_choi_lam(), 64),
        (el.random_spd_tensor(rng), 64),
        (el.tensor_isotropic(-3.0, 0.1), 1000),
    ]:
        evaluated.clear()
        el.grid_top_candidates(t, n=2000, keep=10)
        assert sum(evaluated) <= most
        assert min(evaluated) >= oracle._SCAN_BLOCK
    assert sum(evaluated) == 1000


def test_grid_min_is_first_lattice_pair():
    for t in (_rotated_choi_lam(), el.tensor_isotropic(-3.0, 0.1)):
        pts, order = _lattice_order(t, 600, 1)
        rep = el.grid_min_biquadratic(t, n=600)
        assert np.array_equal(rep.argmin_x, pts[order[0] % len(pts)])
        assert np.array_equal(rep.argmin_y, pts[order[0] // len(pts)])
        assert rep.min_value == el.biquadratic(t, rep.argmin_x, rep.argmin_y)


@pytest.mark.parametrize(
    "t", [el.tensor_choi_lam(1.0), el.tensor_isotropic(-3.0, 0.1)], ids=["choi_lam", "isotropic"]
)
def test_grid_top_candidates_near_float_limit(t):
    # scaled by a power of two to max|a| in [2^1023, 2^1024), the lattice
    # values would overflow to inf/NaN; the scan must still pick the same
    # pairs in the same order as for the unscaled tensor
    big = _pow2_copy(t, 1024)
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


def _refine_starts():
    rng = np.random.default_rng(23)
    for t in (el.tensor_isotropic(-3.0, 0.1), el.tensor_choi_lam(1.0)):
        for _, x, y in el.grid_top_candidates(t, n=400, keep=5):
            yield t, x, y
    for _ in range(6):
        t = el.random_tensor(rng)
        yield t, rng.standard_normal(3), rng.standard_normal(3)


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


def test_a_refinement_eigensolver_failure_is_typed(monkeypatch, tmp_path, capsys):
    # the 3rd 3x3 solve of refine_min gets a NaN matrix, on which LAPACK
    # does not converge: the error state that refine_min holds around its
    # steps raises the typed error, which check reports on its error line
    eigh, calls = oracle._eigh, []

    def flaky(m):
        calls.append(m)
        if len(calls) == 3:
            m = np.full((3, 3), np.nan)
        return eigh(m)

    t = el.tensor_choi_lam(1.0)
    path = tmp_path / "t.json"
    el.save_tensor(path, t)
    monkeypatch.setattr(oracle, "_eigh", flaky)
    x, y = np.array([1.0, 0.2, 0.1]), np.array([0.3, 1.0, 0.2])
    with pytest.raises(EigensolverFailure, match="did not converge"):
        oracle.refine_min(t, x, y)
    assert len(calls) == 3
    calls.clear()
    assert cli.main(["check", "-i", str(path)]) == cli.EXIT_INPUT
    assert "error: symmetric eigensolver failed" in capsys.readouterr().err
    assert len(calls) == 3


def test_refine_work_is_bounded():
    # from the n = 1000 grid argmin of a boundary Choi-Lam form, Newton steps
    # reach the zero in a few steps; the alternating crawl hit its 200-sweep
    # cap here at a minimum of ~3e-7
    t = el.tensor_choi_lam(1.5)
    grid = el.grid_min_biquadratic(t, n=1000)
    rep = el.refine_min(t, grid.argmin_x, grid.argmin_y)
    assert len(rep.objective_trace) <= 30
    assert abs(rep.min_value) <= 1e-12 * np.max(np.abs(t.a))


@pytest.mark.parametrize("gamma", [1.2, 1.5, 1.6, 2.0])
@pytest.mark.parametrize("n", [1000, 2000])
def test_refine_lands_on_degenerate_zeros_in_a_few_steps(gamma, n):
    # g(y) = lambda_min(A y^2) of a Choi-Lam form vanishes to fourth order
    # at its zeros, where plain Newton steps shrink the value only by
    # (2/3)^4 each (14-15 steps to 1e-15); the step at the multiplicity
    # estimated from consecutive steps lands there in a few
    t = el.tensor_choi_lam(gamma)
    grid = el.grid_min_biquadratic(t, n=n)
    rep = el.refine_min(t, grid.argmin_x, grid.argmin_y)
    assert len(rep.objective_trace) <= 7
    assert abs(rep.min_value) <= 1e-16 * np.max(np.abs(t.a))


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


def _rotated(t, rng):
    """t with x rotated by one seeded orthogonal matrix and y by another."""
    p, q = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    return el.make_elast4(np.einsum("ia,jb,kc,ld,abcd->ijkl", p, p, q, q, t.a))


def _boundary_forms():
    rng = np.random.default_rng(29)
    for gamma in (1.0, 1.5, 2.0):
        t = el.tensor_choi_lam(gamma)
        yield f"choi-lam({gamma})", t
        for r in range(2):
            yield f"choi-lam({gamma}) rotated {r}", _rotated(t, rng)


def test_oracle_verdict_boundary_choi_lam_family():
    # nonnegative forms with exact zeros: the refined minimum is zero to
    # rounding, not the ~3e-7 at which the alternating crawl stopped
    for label, t in _boundary_forms():
        v = el.oracle_verdict(t, n=2000)
        assert v.verdict == el.ORACLE_BOUNDARY, label
        assert abs(v.report.min_value) <= 1e-12 * np.max(np.abs(t.a)), label


SCALED_FORMS = {
    "two-squares": el.tensor_two_squares(),
    "isotropic(-3,0.1)": el.tensor_isotropic(-3.0, 0.1),
    "choi-lam(1.5)": el.tensor_choi_lam(1.5),
}


@pytest.mark.parametrize("name", SCALED_FORMS)
def test_oracle_verdict_scale_equivariant(name):
    # scan and refinement run on the same power-of-two rescale for every
    # 2**k multiple, so they take the same path, the basins are compared
    # there, and the re-evaluated minimum scales exactly; at 2**-1010 a
    # boundary minimum underflows to 0 and the verdict cut is subnormal
    t = SCALED_FORMS[name]
    want = el.oracle_verdict(t)
    for k in (-1010, -600, -1, 1, 600):
        got = el.oracle_verdict(el.Elast4(np.ldexp(t.a, k)))
        assert got.verdict == want.verdict, k
        assert np.array_equal(got.report.argmin_x, want.report.argmin_x), k
        assert np.array_equal(got.report.argmin_y, want.report.argmin_y), k
        assert got.report.min_value == np.ldexp(want.report.min_value, k), k


def test_oracle_verdict_cut_has_no_absolute_floor():
    # the form minimum of isotropic(1, 1) - 1.0000005 E is about -5e-7; at
    # 2**-1022 it is -1.1e-314, below the cut TOL * max|a| but above the
    # 1e-308 that a floor of 1e-300 on max|a| put there
    t = el.Elast4(el.tensor_isotropic(1.0, 1.0).a - 1.0000005 * el.tensor_e().a)
    for k in (0, -1022):
        v = el.oracle_verdict(el.Elast4(np.ldexp(t.a, k)))
        assert v.verdict == el.ORACLE_NOT_MPSD, k
        assert v.witness_value == pytest.approx(np.ldexp(-5e-7, k), rel=1e-3)
    assert el.oracle_verdict(el.Elast4(np.zeros((3, 3, 3, 3)))).verdict == el.ORACLE_BOUNDARY


@pytest.mark.parametrize("name", SCALED_FORMS)
def test_oracle_verdict_decimal_extreme_scales(name):
    # the Hessian terms of the Newton step are squares of form derivatives,
    # which overflow at 1e160 unless the refinement runs on the rescale
    for s in (1e-160, 1e-150, 1e150, 1e160):
        v = el.oracle_verdict(el.Elast4(s * SCALED_FORMS[name].a))
        assert v.verdict in (el.ORACLE_NOT_MPSD, el.ORACLE_MPD_LIKELY, el.ORACLE_BOUNDARY)
        assert np.isfinite(v.report.min_value)


def test_oracle_verdict_refines_one_start_per_basin(monkeypatch):
    # _TOP_K lattice candidates, but starts within a few lattice spacings of
    # an earlier one (up to sign) share its basin, and some form has fewer
    # basins than candidates, so the dedup is seen to drop a start
    calls = []
    refine = oracle.refine_min

    def recording(*args, **kwargs):
        calls.append(args)
        return refine(*args, **kwargs)

    monkeypatch.setattr(oracle, "refine_min", recording)
    forms = [
        el.tensor_e(),
        el.tensor_two_squares(),
        el.tensor_isotropic(-3.0, 0.1),
    ] + [el.tensor_choi_lam(g) for g in (1.0, 1.5, 2.0)]
    starts = []
    for t in forms:
        calls.clear()
        el.oracle_verdict(t)
        assert 1 <= len(calls) <= 6
        starts.append(len(calls))
    assert min(starts) < oracle._TOP_K


def _refined_bits(rep):
    return (
        rep.min_value.hex(),
        rep.argmin_x.tobytes(),
        rep.argmin_y.tobytes(),
        [v.hex() for v in rep.objective_trace],
    )


def test_refine_min_from_a_cold_cache_is_its_refinement_in_oracle_verdict(monkeypatch):
    # the refinements of one oracle_verdict share the tensor's preparation;
    # each of them, run again with nothing prepared, gives the same bits
    calls = []
    refine = oracle.refine_min

    def recording(*args):
        rep = refine(*args)
        calls.append((args, _refined_bits(rep)))
        return rep

    monkeypatch.setattr(oracle, "refine_min", recording)
    for t in (el.tensor_choi_lam(1.0), el.tensor_isotropic(-3.0, 0.1), el.tensor_two_squares()):
        calls.clear()
        el.oracle_verdict(t)
        assert len(calls) >= 2
        for args, bits in calls:
            oracle._prepare.cache_clear()
            assert _refined_bits(refine(*args)) == bits


def test_alternating_tensors_never_share_a_preparation():
    # t and 4 t have the same unit-scale rows and differ in the exponent
    # only: a preparation kept for one would scale the other's trace wrongly
    t = el.tensor_choi_lam(1.5)
    tensors = [t, el.Elast4(4.0 * t.a), el.tensor_isotropic(-3.0, 0.1)]
    x, y = np.array([1.0, 0.2, -0.3]), np.array([0.1, 1.0, 0.4])
    cold = []
    for u in tensors:
        oracle._prepare.cache_clear()
        cold.append(_refined_bits(oracle.refine_min(u, x, y)))
        a, e = pow2_rescale(u.a)
        prep = oracle._prepared(u)
        assert prep.e == e and prep.unit.a.tobytes() == a.tobytes()
        assert prep.rows_m == oracle._pair_rows(a.reshape(9, 9))
        assert prep.rows_n == oracle._pair_rows(a.reshape(9, 9).T)
    assert cold[1][3] == [(4.0 * float.fromhex(v)).hex() for v in cold[0][3]]
    for u, want in [*zip(tensors, cold), *zip(reversed(tensors), reversed(cold))] * 2:
        assert _refined_bits(oracle.refine_min(u, x, y)) == want


# oracle_verdict's verdict and min_value.hex() on the gallery of
# scripts/certify_gallery.py and on random tensors R + c E, c frozen within
# 2e-3 of the shift that puts the form on its boundary, recorded before the
# refinement took multiplicity steps on Python floats.
PARITY_GALLERY = {
    "E": el.tensor_e,
    "two-squares": el.tensor_two_squares,
    "choi-lam(1.0)": lambda: el.tensor_choi_lam(1.0),
    "choi-lam(1.5)": lambda: el.tensor_choi_lam(1.5),
    "isotropic(1,1)": lambda: el.tensor_isotropic(1.0, 1.0),
    "isotropic(-1.9,1)": lambda: el.tensor_isotropic(-1.9, 1.0),
    "isotropic(-3,0.1)": lambda: el.tensor_isotropic(-3.0, 0.1),
    "random-spd(0)": lambda: el.random_spd_tensor(np.random.default_rng(0)),
}
PARITY_RECORD = {
    "E": ("MPD_likely", "0x1.0000000000000p+0"),
    "two-squares": ("MPSD_boundary", "-0x1.0000000000000p-54"),
    "choi-lam(1.0)": ("MPSD_boundary", "-0x1.0000000000000p-54"),
    "choi-lam(1.5)": ("MPSD_boundary", "0x1.2b1cb79000000p-50"),
    "isotropic(1,1)": ("MPD_likely", "0x1.ffffffffffff8p-1"),
    "isotropic(-1.9,1)": ("MPD_likely", "0x1.9999999999995p-4"),
    "isotropic(-3,0.1)": ("NotMPSD", "-0x1.666666666666cp+1"),
    "random-spd(0)": ("MPD_likely", "0x1.270a7a2dd2ae1p-3"),
}
# (seed of R, c.hex()): (verdict, min_value.hex())
PARITY_SHIFTED = {
    (0, "0x1.1f51363999ff9p-1"): ("NotMPSD", "-0x1.50a9479a34fc0p-10"),
    (1, "0x1.f5f8d3d7e07a9p-2"): ("MPD_likely", "0x1.256b4f12a64b0p-11"),
    (2, "0x1.c3bbf8645a229p-2"): ("NotMPSD", "-0x1.129292c4ec600p-13"),
    (3, "0x1.0aec547594832p-1"): ("NotMPSD", "-0x1.0f948007899d8p-11"),
    (4, "0x1.1d7a982ee3882p-1"): ("NotMPSD", "-0x1.3042a9bd49da0p-11"),
    (5, "0x1.da5c4d32cdf3dp-2"): ("MPD_likely", "0x1.30a165d659cd0p-10"),
    (6, "0x1.0723f33938a6dp-1"): ("MPD_likely", "0x1.a8d2f87592a40p-10"),
    (7, "0x1.09699f70f749ap-1"): ("NotMPSD", "-0x1.5251d7d4162a0p-10"),
    (8, "0x1.e67c47e450947p-2"): ("MPD_likely", "0x1.4069b76331240p-11"),
    (9, "0x1.f6deed6d66a91p-2"): ("NotMPSD", "-0x1.a6fd6092a5600p-11"),
    (10, "0x1.385bc71924b76p-1"): ("MPD_likely", "0x1.e9a5360cf7ec0p-10"),
    (11, "0x1.0adeaa1f3d2dep-1"): ("MPD_likely", "0x1.b83eab56f32c0p-10"),
    (12, "0x1.40bdf0a58665fp-2"): ("MPD_likely", "0x1.1cf1152109440p-11"),
    (13, "0x1.3e10e94c4bb8bp-2"): ("MPD_likely", "0x1.090241773653fp-10"),
    (14, "0x1.ec701b21f801ep-2"): ("MPD_likely", "0x1.fc79429ed6560p-15"),
    (15, "0x1.08760533bc151p-1"): ("MPD_likely", "0x1.55b9d7a056400p-10"),
    (16, "0x1.efe7e75810963p-2"): ("NotMPSD", "-0x1.b103ef46a7480p-13"),
    (17, "0x1.d86102f0e5832p-2"): ("NotMPSD", "-0x1.5208e7bab2380p-11"),
    (18, "0x1.c4c692e73f407p-2"): ("NotMPSD", "-0x1.d1c773630efe0p-11"),
    (19, "0x1.c9395fef9a5d7p-2"): ("NotMPSD", "-0x1.1ef5e92237c80p-10"),
    (20, "0x1.0cb4bacb0c620p-1"): ("MPD_likely", "0x1.b1227f7361970p-14"),
    (21, "0x1.c50fd328d75afp-2"): ("NotMPSD", "-0x1.21c69c2773054p-12"),
    (22, "0x1.0c644a304b797p-1"): ("MPD_likely", "0x1.5636edb465aa0p-11"),
    (23, "0x1.71332b1858febp-2"): ("NotMPSD", "-0x1.fed2e32382700p-10"),
    (24, "0x1.a8b2b307dcb65p-2"): ("NotMPSD", "-0x1.b6b54faf33000p-13"),
    (25, "0x1.b3dd61a593bb5p-2"): ("NotMPSD", "-0x1.1abc8199ad500p-11"),
    (26, "0x1.c0023b87933dap-2"): ("NotMPSD", "-0x1.3f66158ca2420p-10"),
    (27, "0x1.bd9295d4610a9p-2"): ("MPD_likely", "0x1.8de5741005400p-12"),
    (28, "0x1.c89dc5d0b5e69p-2"): ("NotMPSD", "-0x1.0f50f84c90af0p-12"),
    (29, "0x1.f41b03eaff12fp-2"): ("NotMPSD", "-0x1.a372be6928550p-11"),
}


def _parity_cases():
    for name, make in PARITY_GALLERY.items():
        yield name, make(), PARITY_RECORD[name]
    for (seed, c), record in PARITY_SHIFTED.items():
        r = el.random_tensor(np.random.default_rng(seed))
        yield f"shifted({seed})", el.Elast4(r.a + float.fromhex(c) * el.tensor_e().a), record


def test_oracle_verdicts_keep_their_record():
    # every verdict as recorded, and no minimum higher than the recorded one
    # by more than 1e-12 of the scale
    for label, t, (verdict, value) in _parity_cases():
        v = el.oracle_verdict(t)
        assert v.verdict == verdict, label
        assert v.report.min_value <= float.fromhex(value) + 1e-12 * v.scale, label
