"""Alternating projections: the two projections and the certification loop."""

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab.errors import InvalidEpsilon
from ellipticity_lab.pocs import project_S, project_T

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


@pytest.mark.parametrize("shift", [0.0, 1e-6])
def test_run_pocs_sweeps_are_the_public_projections(shift):
    # the sweep runs the same kernels as project_S / project_T, bit for bit
    for t in (el.tensor_two_squares(), el.tensor_choi_lam(1.0), el.random_tensor(rng)):
        rep = el.run_pocs(t, el.PocsOptions(max_iter=7, epsilon_shift=shift))
        ref = el.Elast4(t.a - shift * el.tensor_e().a) if shift else t
        cur, gaps = ref, []
        for _ in range(rep.iterations):
            b = project_S(cur)
            cur = project_T(ref, b)
            gaps.append(float(np.linalg.norm(cur.a - b.a)))
        assert np.array_equal(rep.limit_B.a, b.a)
        assert np.array_equal(rep.limit_A.a, cur.a)
        assert np.array_equal(rep.gap_trace, gaps)


# ---------------------------------------------------------------------------
# options


def test_options_validation():
    with pytest.raises(ValueError):
        el.PocsOptions(max_iter=0)
    with pytest.raises(ValueError):
        el.PocsOptions(tol_converge=-1.0)


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
    el.dumps_report(doc)
