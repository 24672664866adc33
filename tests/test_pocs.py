"""Alternating projections: the two projections and the certification loop."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import pocs
from ellipticity_lab.errors import InvalidEpsilon
from ellipticity_lab.pocs import STALL_WINDOW, TOL_STALL, project_S, project_T
from ellipticity_lab.spectral import eigenvalue_bounds
from ellipticity_lab.tensors import fold_array, pow2_rescale

rng = np.random.default_rng(4321)


# ---------------------------------------------------------------------------
# projections


def test_project_t_membership_exact():
    # pair-sum constraint t_ijkl + t_jikl = 2 a_ijkl holds to the bit
    for _ in range(20):
        a = el.random_tensor(rng)
        scale = float(rng.uniform(0.5, 3.0))
        b = el.Elast4(scale * el.random_tensor(rng).a)
        p = project_T(a, b)
        assert np.array_equal(p.a + p.a.transpose(1, 0, 2, 3), 2.0 * a.a)
        # weak symmetry of the result is the Pair4 invariant, checked on build
        assert np.array_equal(p.a, p.a.transpose(1, 0, 3, 2))


def test_project_t_idempotent_exact():
    a = el.random_tensor(rng)
    b = el.random_tensor(rng)
    p = project_T(a, b)
    p2 = project_T(a, p)
    assert np.array_equal(p2.a, p.a)


def test_project_t_fixes_members():
    a = el.random_tensor(rng)
    assert np.array_equal(project_T(a, a).a, a.a)


def test_project_t_nearest_point():
    a = el.random_tensor(rng)
    b = el.random_tensor(rng)
    p = project_T(a, b)
    d = np.linalg.norm(b.a - p.a)
    for _ in range(50):
        other = project_T(a, el.Elast4(2.0 * el.random_tensor(rng).a))
        assert d <= np.linalg.norm(b.a - other.a) + 1e-12


def test_project_t_requires_elast4_reference():
    b = el.random_tensor(rng)
    with pytest.raises(TypeError):
        project_T(b.a, b)


def test_project_s_unfolds_psd():
    for _ in range(10):
        b = el.random_tensor(rng)
        s = project_S(b)
        assert np.linalg.eigvalsh(el.unfold(s))[0] >= -1e-12


def test_project_s_matches_matrix_projection():
    b = el.random_tensor(rng)
    s = project_S(b)
    want = el.psd_project(el.unfold(b))
    assert np.allclose(el.unfold(s), want, atol=1e-13)
    # folding the exactly symmetric clamp through the checked fold is the same
    assert np.array_equal(s.a, el.fold(want).a)


def _public_sweeps(t, shift, sweeps):
    """The iterates (cur, b) and gaps of `sweeps` sweeps of project_S / project_T."""
    ref = el.Elast4(t.a - shift * el.tensor_e().a) if shift else t
    cur, out = ref, []
    for _ in range(sweeps):
        b = project_S(cur)
        cur = project_T(ref, b)
        out.append((cur, b, float(np.linalg.norm(cur.a - b.a))))
    return ref, out


# (tensor, max_iter, verdict, sweeps) at each shift: whole runs to either
# end, and runs cut at max_iter; None leaves the field unchecked
WHOLE_RUNS = {
    0.0: [
        (el.tensor_two_squares(), 20000, el.VERDICT_FOUND, 76),
        (el.tensor_choi_lam(1.0), 20000, el.VERDICT_GAP, None),
        (el.random_tensor(rng), 7, None, None),
    ],
    1e-6: [
        (el.tensor_isotropic(1.0, 1.0), 20000, el.VERDICT_FOUND, None),
        (el.tensor_choi_lam(1.0), 20000, el.VERDICT_GAP, None),
        (el.tensor_two_squares(), 7, el.VERDICT_INCONCLUSIVE, 7),
        (el.random_tensor(rng), 7, None, None),
    ],
}


@pytest.mark.parametrize("shift", [0.0, 1e-6])
def test_run_pocs_sweeps_are_the_public_projections(shift):
    # the sweep on the unfolding gives the numbers of project_S / project_T,
    # bit for bit, over whole runs
    for t, max_iter, verdict, sweeps in WHOLE_RUNS[shift]:
        rep = el.run_pocs(t, el.PocsOptions(max_iter=max_iter, epsilon_shift=shift))
        assert verdict is None or rep.verdict == verdict
        assert sweeps is None or rep.iterations == sweeps
        _, run = _public_sweeps(t, shift, rep.iterations)
        cur, b, _ = run[-1]
        assert np.array_equal(rep.limit_B.a, b.a)
        assert np.array_equal(rep.limit_A.a, cur.a)
        assert np.array_equal(rep.gap_trace, [gap for _, _, gap in run])


# ---------------------------------------------------------------------------
# options


def test_options_validation():
    with pytest.raises(ValueError):
        el.PocsOptions(max_iter=0)
    with pytest.raises(ValueError):
        el.PocsOptions(tol_converge=-1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["max_iter", "tol_converge", "epsilon_shift"])
def test_options_reject_non_finite_values(name, value):
    # an infinite tolerance would certify isotropic(-3, 0.1), whose form has
    # minimum -2.8, and a NaN slips past every range check
    with pytest.raises(ValueError):
        el.PocsOptions(**{name: value})


# ---------------------------------------------------------------------------
# runs on known tensors


def test_run_pocs_e_converges_immediately():
    rep = el.run_pocs(el.tensor_e(), el.PocsOptions())
    assert rep.verdict == el.VERDICT_FOUND
    assert rep.iterations == 1
    assert rep.final_gap == 0.0


def test_two_squares_certifies_mpsd():
    t = el.tensor_two_squares()
    res = el.certify_mpsd(t)
    assert res.certified
    rep = res.report
    assert rep.verdict == el.VERDICT_FOUND
    # the S-PSD limit really is S-PSD and lies in the affine set of t
    assert np.linalg.eigvalsh(el.unfold(rep.limit_B))[0] >= -1e-9
    assert np.allclose(
        rep.limit_A.a + rep.limit_A.a.transpose(1, 0, 2, 3), 2.0 * t.a, atol=1e-12
    )


def test_two_squares_gap_trace_monotone():
    rep = el.certify_mpsd(el.tensor_two_squares()).report
    g = rep.gap_trace
    assert np.all(np.diff(g) <= 1e-12)


def test_choi_lam_gap_positive():
    rep = el.run_pocs(el.tensor_choi_lam(1.0), el.PocsOptions())
    assert rep.verdict == el.VERDICT_GAP
    assert rep.final_gap > 1e-3
    assert 0.0 < rep.separation_margin <= rep.final_gap


# ---------------------------------------------------------------------------
# the separation certificate behind GapPositive


def _gap_positive_runs():
    with pytest.warns(UserWarning):
        tensors = [el.tensor_choi_lam(0.9)]
    tensors += [el.tensor_choi_lam(gamma) for gamma in (1.0, 1.3, 2.0)]
    tensors += [el.tensor_isotropic(lam, mu) for lam, mu in ((-3.0, 0.1), (-1.0, 1.0), (-2.5, 1.0))]
    local = np.random.default_rng(17)
    return tensors + [el.random_tensor(local) for _ in range(20)]


def test_gap_positive_runs_carry_a_margin_below_the_gap():
    seen = 0
    for t in _gap_positive_runs():
        for scale in (1.0, 2.0**-20, 1e100):
            for shift in (0.0, 1e-6):
                rep = el.run_pocs(el.Elast4(scale * t.a), el.PocsOptions(epsilon_shift=shift))
                assert rep.verdict != el.VERDICT_INCONCLUSIVE
                if rep.verdict == el.VERDICT_GAP:
                    seen += 1
                    assert 0.0 < rep.separation_margin <= rep.final_gap
                    assert rep.iterations < STALL_WINDOW
                else:
                    assert rep.separation_margin is None
    assert seen >= 150


def test_gap_positive_margin_scales_with_the_tensor():
    rep = el.run_pocs(el.tensor_choi_lam(1.0))
    # k keeps the gap above the absolute convergence floor and its norm
    # finite; beyond that, runs end on those before any certificate
    for k in (-20, -1, 1, 20, 400):
        scaled = el.run_pocs(el.Elast4(np.ldexp(el.tensor_choi_lam(1.0).a, k)))
        assert scaled.verdict == el.VERDICT_GAP
        assert scaled.separation_margin == math.ldexp(rep.separation_margin, k)


def _runs_where_the_slice_meets_the_cone():
    found = el.VERDICT_FOUND
    yield el.tensor_e(), el.PocsOptions(), found
    yield el.tensor_two_squares(), el.PocsOptions(), found
    yield el.tensor_isotropic(1.0, 1.0), el.PocsOptions(), found
    yield el.tensor_isotropic(1.0, 1.0), el.PocsOptions(epsilon_shift=1e-6), found
    local = np.random.default_rng(23)
    for _ in range(20):
        yield el.random_spd_tensor(local), el.PocsOptions(epsilon_shift=1e-6), found
    # run on past its convergence floor, two-squares stalls without a proof
    opts = el.PocsOptions(max_iter=400, tol_converge=1e-16)
    yield el.tensor_two_squares(), opts, el.VERDICT_INCONCLUSIVE


def test_no_certificate_verifies_where_the_slice_meets_the_cone():
    # a verified separator at any sweep of these runs would be a false proof
    for t, opts, verdict in _runs_where_the_slice_meets_the_cone():
        rep = el.run_pocs(t, opts)
        assert rep.verdict == verdict
        ref, run = _public_sweeps(t, opts.epsilon_shift, rep.iterations)
        a9 = el.unfold(ref).reshape(81)
        for cur, b, _ in run:
            z = el.unfold(el.Pair4(cur.a - b.a)).reshape(81)
            assert pocs._separation_margin(a9, z) is None


@pytest.mark.parametrize("offset", [0.0, 1e-6])
def test_separation_margin_holds_in_exact_arithmetic(offset):
    # Separators whose value <Z', a> is zero up to rounding (offset 0), or
    # just above it: a granted margin must hold in rational arithmetic,
    # whichever way the floating-point sum rounds.
    local = np.random.default_rng(31)
    eye = np.eye(9).reshape(81)
    granted = 0
    for _ in range(100):
        z = el.unfold(el.random_tensor(local)).reshape(81)
        a0 = el.unfold(el.random_tensor(local)).reshape(81)
        zs, _ = pow2_rescale(z)  # the separator the helper builds from z
        delta = max(float(eigenvalue_bounds(zs.reshape(9, 9))[1][-1]), 0.0)
        sep = zs - delta * eye
        a9 = a0 + (offset - float(sep @ a0)) / float(sep @ eye) * eye
        margin = pocs._separation_margin(a9, z)
        if margin is None:
            continue
        granted += 1
        # Z' = zs - delta E exactly: delta comes off the unfolding's diagonal
        exact_sep = [
            Fraction(float(v)) - (Fraction(delta) if k % 10 == 0 else 0)
            for k, v in enumerate(zs)
        ]
        value = sum(p * Fraction(float(q)) for p, q in zip(exact_sep, a9))
        assert value > 0
        assert Fraction(margin) ** 2 * sum(p * p for p in exact_sep) <= value**2
    assert granted == (0 if offset == 0.0 else 100)


def test_stall_without_a_proof_is_inconclusive(monkeypatch):
    monkeypatch.setattr(pocs, "_separation_margin", lambda a9, z: None)
    rep = el.run_pocs(el.tensor_choi_lam(1.0))
    assert rep.verdict == el.VERDICT_INCONCLUSIVE
    assert rep.separation_margin is None
    assert rep.iterations > STALL_WINDOW
    prev, gaps = rep.gap_trace[-STALL_WINDOW - 1 : -1], rep.gap_trace[-STALL_WINDOW:]
    assert np.all(prev - gaps < TOL_STALL * prev)


def test_certify_mpsd_ignores_shift_option():
    t = el.tensor_two_squares()
    res = el.certify_mpsd(t, el.PocsOptions(epsilon_shift=0.5))
    assert res.report.epsilon_shift == 0.0
    assert res.certified


def test_certify_mpd_e_large_shift():
    res = el.certify_mpd(el.tensor_e(), el.PocsOptions(epsilon_shift=0.5))
    assert res.certified
    assert res.report.iterations == 1


def test_certify_mpd_rejects_nonpositive_epsilon():
    with pytest.raises(InvalidEpsilon):
        el.certify_mpd(el.tensor_e(), el.PocsOptions(epsilon_shift=0.0))


def test_certify_mpd_boundary_tensor_not_certified():
    # two-squares is on the boundary: nonnegative but with zeros, so the
    # shifted run must not certify strict positivity
    res = el.certify_mpd(el.tensor_two_squares())
    assert not res.certified


def test_certify_mpd_interior_isotropic():
    # min(mu, lam+2mu) = 1 > 0 but the unfolding has a zero eigenvalue,
    # so this exercises the genuinely M-PD-but-not-S-PD regime
    res = el.certify_mpd(el.tensor_isotropic(1.0, 1.0))
    assert res.certified


def pair4_with_pair_antisymmetric_part(gen):
    """P = Q + K: Q weakly symmetric with a positive definite unfolding, K
    antisymmetric in (i, j) and in (k, l), exactly. K adds nothing to the
    form, so Q lies in the slice of P's form and in the cone."""
    m = gen.standard_normal((9, 9))
    q = fold_array(m @ m.T + np.eye(9))
    r = gen.standard_normal((3, 3, 3, 3))
    r = r - r.transpose(1, 0, 2, 3)
    k = r - r.transpose(0, 1, 3, 2)
    return el.make_pair4(q + k)


def test_run_pocs_projects_a_pair4_onto_the_slice_of_its_form():
    # the affine step a + (b - b^ij) / 2 is the projection onto T_a only for
    # a pair-symmetric a, so the run must start from the form's tensor
    gen = np.random.default_rng(59)
    for _ in range(20):
        p = pair4_with_pair_antisymmetric_part(gen)
        assert not np.array_equal(p.a, p.a.transpose(1, 0, 2, 3))
        got = pocs.pocs_report_to_doc(el.run_pocs(p))
        want = pocs.pocs_report_to_doc(el.run_pocs(el.Elast4(el.symmetrize_pairs(p.a))))
        assert el.dumps_report(got) == el.dumps_report(want)
        assert got["verdict"] == el.VERDICT_FOUND


def test_fejer_monotone_random_instances():
    for k in range(25):
        a = el.random_tensor(np.random.default_rng(k))
        rep = el.run_pocs(a, el.PocsOptions(max_iter=500))
        g = rep.gap_trace
        if len(g) > 1:
            assert float(np.max(np.diff(g))) <= 1e-12


def test_report_doc_serializable_and_decimated():
    from ellipticity_lab.pocs import pocs_report_to_doc

    rep = el.run_pocs(el.tensor_choi_lam(1.0), el.PocsOptions())
    doc = pocs_report_to_doc(rep)
    assert len(doc["gap_trace"]) <= 1000
    assert doc["gap_trace_length"] == rep.iterations
    assert doc["separation_margin"] == rep.separation_margin
    el.dumps_report(doc)
    found = pocs_report_to_doc(el.run_pocs(el.tensor_two_squares()))
    assert "separation_margin" not in found
