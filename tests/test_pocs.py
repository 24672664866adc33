"""Alternating projections: the two projections and the certification loop."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cli, pocs, spectral
from ellipticity_lab.errors import (
    EigensolverFailure,
    EllipticityError,
    InvalidEpsilon,
    NonFiniteEntries,
)
from ellipticity_lab.pocs import STALL_WINDOW, TOL_STALL, project_S, project_T
from ellipticity_lab.spectral import eigenvalue_bounds
from ellipticity_lab.tensors import fold_array, unfold_array

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


# (tensor, budget, verdict, sweeps) at each shift: whole runs to either
# end, and runs cut at a budget of 7 sweeps; None leaves the field unchecked
WHOLE_RUNS = {
    0.0: [
        (el.tensor_two_squares(), pocs.MAX_SWEEPS, el.VERDICT_FOUND, 76),
        (el.tensor_choi_lam(1.0), pocs.MAX_SWEEPS, el.VERDICT_GAP, None),
        (el.random_tensor(rng), 7, None, None),
    ],
    1e-6: [
        (el.tensor_isotropic(1.0, 1.0), pocs.MAX_SWEEPS, el.VERDICT_MARGIN, 3),
        (el.tensor_choi_lam(1.0), pocs.MAX_SWEEPS, el.VERDICT_GAP, None),
        (el.tensor_two_squares(), 7, el.VERDICT_INCONCLUSIVE, 7),
        (el.random_tensor(rng), 7, None, None),
    ],
}


@pytest.mark.parametrize("shift", [0.0, 1e-6])
def test_run_pocs_sweeps_are_the_public_projections(shift, monkeypatch):
    # the sweep on the unfolding gives the numbers of project_S / project_T,
    # bit for bit, over whole runs
    for t, budget, verdict, sweeps in WHOLE_RUNS[shift]:
        monkeypatch.setattr(pocs, "MAX_SWEEPS", budget)
        rep = el.run_pocs(t, el.PocsOptions(epsilon_shift=shift))
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
    # the tolerance may only be tightened: at 0.3 Choi-Lam gamma = 0.5,
    # which the oracle refutes, ended IntersectionFound after one sweep
    for tol in (-1.0, 0.0, 1e-9, 0.3):
        with pytest.raises(ValueError):
            el.PocsOptions(tol_converge=tol)
    assert el.PocsOptions(tol_converge=2.5e-11).tol_converge == 2.5e-11
    assert el.PocsOptions().tol_converge == pocs.TOL_CONVERGE
    # the sweep budget is pocs.MAX_SWEEPS, not an option
    with pytest.raises(TypeError):
        el.PocsOptions(max_iter=5)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["max_iter", "tol_converge", "epsilon_shift"])
def test_options_reject_non_finite_values(name, value):
    # an infinite tolerance would certify isotropic(-3, 0.1), whose form has
    # minimum -2.8, and a NaN slips past every range check; max_iter is no
    # option at all
    with pytest.raises(TypeError if name == "max_iter" else ValueError):
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
    for k in (-20, -1, 1, 20, 400):
        scaled = el.run_pocs(el.Elast4(np.ldexp(el.tensor_choi_lam(1.0).a, k)))
        assert scaled.verdict == el.VERDICT_GAP
        assert scaled.separation_margin == math.ldexp(rep.separation_margin, k)


def _scaled_report_numbers(rep, k):
    """Every number of a POCS report times 2**k, margins None as they are."""
    return (
        rep.verdict,
        rep.iterations,
        np.ldexp(rep.gap_trace, k).tolist(),
        math.ldexp(rep.final_gap, k),
        np.ldexp(rep.limit_A.a, k).tolist(),
        np.ldexp(rep.limit_B.a, k).tolist(),
        math.ldexp(rep.reference_norm, k),
        math.ldexp(rep.converge_threshold, k),
        None if rep.separation_margin is None else math.ldexp(rep.separation_margin, k),
        None if rep.form_lower_bound is None else math.ldexp(rep.form_lower_bound, k),
    )


@pytest.mark.parametrize("shift", [0.0, 1e-6])
def test_runs_scale_with_the_tensor_bit_for_bit(shift):
    # run_pocs iterates on the power-of-two rescale of its shifted reference,
    # so a 2^k multiple of the input, with its shift, runs the same numbers:
    # no square under- or overflows and no threshold is absolute
    local = np.random.default_rng(8)
    tensors = [
        el.tensor_e(),
        el.tensor_two_squares(),
        el.tensor_choi_lam(1.0),
        el.tensor_isotropic(-3.0, 0.1),
    ] + [el.random_tensor(local) for _ in range(3)]
    for t in tensors:
        want = el.run_pocs(t, el.PocsOptions(epsilon_shift=shift))
        for k in range(-900, 901, 100):
            opts = el.PocsOptions(epsilon_shift=math.ldexp(shift, k))
            rep = el.run_pocs(el.Elast4(np.ldexp(t.a, k)), opts)
            assert rep.epsilon_shift == opts.epsilon_shift
            assert _scaled_report_numbers(rep, 0) == _scaled_report_numbers(want, k), k


def _runs_where_the_slice_meets_the_cone():
    found = el.VERDICT_FOUND
    yield el.tensor_e(), el.PocsOptions(), found
    yield el.tensor_two_squares(), el.PocsOptions(), found
    yield el.tensor_isotropic(1.0, 1.0), el.PocsOptions(), found
    yield el.tensor_isotropic(1.0, 1.0), el.PocsOptions(epsilon_shift=1e-6), el.VERDICT_MARGIN
    local = np.random.default_rng(23)
    for _ in range(20):
        yield el.random_spd_tensor(local), el.PocsOptions(epsilon_shift=1e-6), found
    # run on past its convergence floor, two-squares stalls without a proof
    # (after 174 sweeps)
    opts = el.PocsOptions(tol_converge=1e-16)
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
        zs = 0.5 * (z + z[pocs._SWAP])  # the separator the helper builds from z
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


# ---------------------------------------------------------------------------
# the form lower bound behind MarginProved


def _pair_antisymmetric(gen):
    """K antisymmetric in (i, j) and in (k, l), exactly: a direction of every
    slice, and weakly symmetric, so its unfolding is symmetric."""
    r = gen.standard_normal((3, 3, 3, 3))
    r = r - r.transpose(1, 0, 2, 3)
    return r - r.transpose(0, 1, 3, 2)


def _psd_exactly(rows) -> bool:
    """Whether a symmetric matrix of Fractions is PSD, by its exact LDL^T: a
    negative pivot refutes, and a zero pivot needs a zero column below it."""
    a = [list(row) for row in rows]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            if any(a[i][k] != 0 for i in range(k + 1, n)):
                return False
            continue
        if pivot < 0:
            return False
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
    return True


def _margin_holds_exactly(a, eps, cur, margin) -> bool:
    """form(a) >= margin on unit x, y, in rational arithmetic.

    a_ref = sym(a) - eps E is taken exactly, so t* = a_ref + (cur - cur^(i<->j)) / 2
    lies exactly in its slice, and form(a) = eps + form(t*) >= margin once
    unfold(t*) + (eps - margin) I is PSD."""
    exact = np.vectorize(Fraction, otypes=[object])
    c, s = exact(cur), exact(a)
    s = s + s.transpose(1, 0, 2, 3)
    a_ref = (s + s.transpose(0, 1, 3, 2)) / 4 - Fraction(eps) * exact(el.tensor_e().a)
    m = unfold_array(a_ref + (c - c.transpose(1, 0, 2, 3)) / 2)
    shift = Fraction(eps) - Fraction(margin)
    return _psd_exactly([[m[i, j] + (shift if i == j else 0) for j in range(9)] for i in range(9)])


@pytest.mark.parametrize("offset", [0.0, 1e-6])
@pytest.mark.parametrize(
    "skew, drift", [(0.0, 0.0), (1e3, 0.0), (0.0, 1e-9)], ids=["plain", "pair4", "off-slice"]
)
def test_mpd_margin_holds_in_exact_arithmetic(offset, skew, drift):
    # Iterates cur whose least unfolding eigenvalue, plus eps, is zero up to
    # rounding (offset 0) or just above it: a granted margin must hold in
    # rational arithmetic. The reference sym(a) - eps E and cur are computed
    # in floating point as run_pocs computes them. A pair-antisymmetric part
    # of size `skew` in a drops out of its form, and out of sym(a), whose
    # rounding must not grow with it; `drift` moves cur off the slice by a
    # pair-symmetric part, which the bound must take off.
    local = np.random.default_rng(37)
    eps, e = 1e-6, el.tensor_e().a
    granted = 0
    for _ in range(100):
        q, k = el.random_tensor(local).a, _pair_antisymmetric(local)
        p = drift * el.random_tensor(local).a
        q = q + (offset - el.min_eigenvalue(unfold_array(q + k + p))) * e
        a = q + skew * _pair_antisymmetric(local)
        a_ref = el.symmetrize_pairs(a) - eps * e
        cur = a_ref + k + p
        margin = pocs._mpd_margin(
            unfold_array(a_ref).reshape(81), unfold_array(cur).reshape(81), eps
        )
        if margin is None:
            continue
        granted += 1
        assert _margin_holds_exactly(a, eps, cur, margin)
    assert granted == (0 if offset == 0.0 else 100)


# The oracle's form minima of the random tensors of seeds 1, 5 and 9, frozen,
# so that the POCS runs on the gap tensors below do not move with the last
# bits of the oracle's refinement.
GAP_MINIMA = {
    1: float.fromhex("-0x1.f5661e3057279p-2"),
    5: float.fromhex("-0x1.d92babccf79abp-2"),
    9: float.fromhex("-0x1.f7b26c1daffc3p-2"),
}


def test_gap_minima_are_the_oracles():
    for seed, value in GAP_MINIMA.items():
        r = el.random_tensor(np.random.default_rng(seed))
        assert abs(el.oracle_verdict(r).report.min_value - value) <= 1e-12


def _gap_tensor(seed):
    """R + c E with c halfway across (c_M, c_S) of a random R, the way the
    benchmark's gap tensors are built: -c_M is the oracle's form minimum
    (frozen in GAP_MINIMA) and -c_S the least unfolding eigenvalue of R, so
    the form is positive while the unfolding is indefinite."""
    r = el.random_tensor(np.random.default_rng(seed))
    c_m = -GAP_MINIMA[seed]
    c_s = -el.min_eigenvalue(el.unfold(r))
    return el.Elast4(r.a + 0.5 * (c_m + c_s) * el.tensor_e().a)


MARGIN_RUNS = {
    "isotropic(1,1)": lambda: el.tensor_isotropic(1.0, 1.0),
    "isotropic(-1.9,1)": lambda: el.tensor_isotropic(-1.9, 1.0),
    "gap-5": lambda: _gap_tensor(5),
    "gap-1": lambda: _gap_tensor(1),
}


@pytest.mark.parametrize("name", sorted(MARGIN_RUNS))
def test_margin_proved_runs_hold_in_exact_arithmetic(name):
    t = MARGIN_RUNS[name]()
    assert el.min_eigenvalue(el.unfold(t)) <= 0.0  # only POCS can certify these
    rep = el.run_pocs(t, el.PocsOptions(epsilon_shift=1e-6))
    assert rep.verdict == el.VERDICT_MARGIN
    assert rep.final_gap < 1e-6
    assert 0.0 < rep.form_lower_bound < 1e-6
    assert _margin_holds_exactly(t.a, 1e-6, rep.limit_A.a, rep.form_lower_bound)


def _not_positive():
    yield el.tensor_two_squares()
    yield el.tensor_choi_lam(1.0)
    # min(mu, lambda + 2 mu) is 0, 0, -2.8 and -1
    for lam, mu in ((-2.0, 1.0), (1.0, 0.0), (-3.0, 0.1), (0.0, -0.5)):
        yield el.tensor_isotropic(lam, mu)


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
def test_margin_never_certifies_a_form_that_is_not_positive(eps):
    for t in _not_positive():
        rep = el.certify_mpd(t, el.PocsOptions(epsilon_shift=eps)).report
        assert rep.verdict != el.VERDICT_MARGIN
        assert rep.form_lower_bound is None


def test_margin_stays_below_the_isotropic_form_minimum():
    # the form of isotropic(lambda, mu) has minimum min(mu, lambda + 2 mu)
    # over unit x and y; shifts up to 0.9 of it push the bound towards it
    proved = 0
    for lam in np.linspace(-2.5, 2.0, 7):
        for mu in (0.05, 0.3, 1.0, 2.0):
            low = min(mu, lam + 2.0 * mu)
            t = el.tensor_isotropic(lam, mu)
            for eps in (1e-6, 0.5 * abs(low), 0.9 * abs(low)):
                rep = el.run_pocs(t, el.PocsOptions(epsilon_shift=eps))
                if rep.verdict == el.VERDICT_MARGIN:
                    proved += 1
                    assert 0.0 < rep.form_lower_bound <= low
                else:
                    assert rep.form_lower_bound is None
    assert proved >= 30


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_margin_at_extreme_scales_warns_nothing(scale):
    # tier-1 turns every warning into an error. The shift and the threshold
    # scale with the tensor, so the run reaches a proof attempt there.
    for lam, mu in ((1.0, 1.0), (-1.9, 1.0)):
        t = el.Elast4(scale * el.tensor_isotropic(lam, mu).a)
        opts = el.PocsOptions(epsilon_shift=1e-6 * scale, tol_converge=1e-10 * min(1.0, scale))
        rep = el.run_pocs(t, opts)
        assert rep.verdict == el.VERDICT_MARGIN
        assert 0.0 < rep.form_lower_bound <= scale * min(mu, lam + 2.0 * mu)


def test_unshifted_reports_keep_their_bytes(monkeypatch):
    # sha256 over the canonical certify_mpsd reports, recorded (numpy 2.4,
    # OpenBLAS 0.3.31, x86_64) before shifted runs could prove a margin:
    # unshifted runs never try one. The threshold has no floor, so two of
    # the unit-norm random tensors (||A|| = 1 - 2**-53) hold
    # converge_threshold 9.999999999999999e-11
    monkeypatch.setattr(pocs, "_mpd_margin", None)
    local = np.random.default_rng(2024)
    tensors = [
        el.tensor_two_squares(),
        el.tensor_choi_lam(1.0),
        el.tensor_isotropic(1.0, 1.0),
        el.tensor_isotropic(-1.9, 1.0),
    ]
    tensors += [el.random_tensor(local) for _ in range(6)]
    tensors += [el.random_spd_tensor(local) for _ in range(6)]
    digest = hashlib.sha256()
    for t in tensors:
        digest.update(el.dumps_report(pocs.pocs_report_to_doc(el.certify_mpsd(t).report)).encode())
    assert digest.hexdigest() == "ae4aa2c6faa0ce6c1645d193e02b9a8bcb4ee4add74c9bffcbc3e5a3f353118b"


def _report_digest(certify, tensors, verdict):
    digest = hashlib.sha256()
    for t in tensors:
        rep = certify(t).report
        assert rep.verdict == verdict
        digest.update(el.dumps_report(pocs.pocs_report_to_doc(rep)).encode())
    return digest.hexdigest()


def test_margin_proved_reports_keep_their_bytes():
    # sha256 over the canonical certify_mpd reports, recorded (numpy 2.4,
    # OpenBLAS 0.3.31, x86_64) while every sweep still validated its iterate
    tensors = [
        el.tensor_isotropic(lam, mu)
        for lam, mu in ((1.0, 1.0), (-1.9, 1.0), (0.5, 0.3), (-0.5, 0.3), (2.0, 0.2))
    ]
    tensors += [_gap_tensor(seed) for seed in (1, 5, 9)]
    assert _report_digest(el.certify_mpd, tensors, el.VERDICT_MARGIN) == (
        "31ba536cfc013ac8a35f829227fb192c90d0ac9cd40bc6b1104c464ecb325615"
    )


def test_gap_positive_reports_keep_their_bytes():
    # recorded as above, over certify_mpsd reports that prove a separation
    local = np.random.default_rng(2026)
    tensors = [el.tensor_choi_lam(gamma) for gamma in (1.0, 1.3, 1.6, 2.0)]
    tensors += [el.tensor_isotropic(-3.0, 0.1), el.tensor_isotropic(-2.5, 1.0)]
    tensors += [el.random_tensor(local) for _ in range(2)]
    assert _report_digest(el.certify_mpsd, tensors, el.VERDICT_GAP) == (
        "ca0f26f4e670a5922ed3500517c4689b7c69ce1fad55d8b1d93800183b4888f7"
    )


# ---------------------------------------------------------------------------
# the sweep: one validation per run, then the clamp kernel alone


def _sweep_runs():
    """(tensor, options) over shifted and unshifted runs, a Pair4 with a large
    pair-antisymmetric part, and the scales 2**-900, 1 and 2**900."""
    gen = np.random.default_rng(67)
    skewed = el.make_pair4(el.random_tensor(gen).a + 1e3 * _pair_antisymmetric(gen))
    tensors = [el.tensor_two_squares(), el.tensor_choi_lam(1.0), el.tensor_isotropic(-1.9, 1.0)]
    for t in tensors + [skewed, el.random_tensor(gen)]:
        for k in (-900, 0, 900):
            scaled = type(t)(np.ldexp(t.a, k))
            for shift in (0.0, 1e-6):
                yield scaled, el.PocsOptions(epsilon_shift=math.ldexp(shift, k))


def test_every_sweep_hands_the_kernel_a_symmetric_finite_matrix(monkeypatch):
    # the invariant that lets run_pocs skip the check psd_project makes
    kernel, seen = pocs._psd_clamp, []

    def checked(mat):
        assert mat.tobytes() == mat.T.tobytes()
        assert np.isfinite(mat).all()
        seen.append(mat)
        return kernel(mat)

    monkeypatch.setattr(pocs, "_psd_clamp", checked)
    sweeps = 0
    for t, opts in _sweep_runs():
        sweeps += el.run_pocs(t, opts).iterations
    assert len(seen) == sweeps > 500


def test_the_reference_is_validated_once_per_run(monkeypatch):
    # _require_symmetric runs once at entry and once per proof attempt (each
    # eigenvalue_bounds call), never once per sweep
    validated, attempts = [], []
    require, bounds = spectral._require_symmetric, pocs.eigenvalue_bounds

    def counted_require(m):
        validated.append(m)
        return require(m)

    def counted_bounds(m):
        attempts.append(m)
        return bounds(m)

    monkeypatch.setattr(spectral, "_require_symmetric", counted_require)
    monkeypatch.setattr(pocs, "_require_symmetric", counted_require)
    monkeypatch.setattr(pocs, "eigenvalue_bounds", counted_bounds)
    iterations = []
    for t, opts in _sweep_runs():
        validated.clear()
        attempts.clear()
        iterations.append(el.run_pocs(t, opts).iterations)
        assert 1 <= len(validated) <= 1 + len(attempts)
    assert max(iterations) > 50


def test_a_sweep_eigensolver_failure_is_typed(monkeypatch, tmp_path, capsys):
    # two-squares takes 76 sweeps, so the 5th eigensolve is a sweep's. It
    # gets a NaN matrix, on which LAPACK does not converge: the error state
    # that run_pocs holds around its sweeps turns that into the typed error
    eigh, calls = spectral._eigh, []

    def flaky(m, vectors=True):
        calls.append(m)
        if len(calls) == 5:
            m = np.full_like(m, np.nan)
        return eigh(m, vectors)

    t = el.tensor_two_squares()
    path = tmp_path / "t.json"
    el.save_tensor(path, t)
    monkeypatch.setattr(spectral, "_eigh", flaky)
    with pytest.raises(EigensolverFailure, match="did not converge"):
        el.run_pocs(t)
    assert len(calls) == 5
    calls.clear()
    assert cli.main(["pocs", "-i", str(path)]) == cli.EXIT_INPUT
    assert "error: symmetric eigensolver failed" in capsys.readouterr().err
    assert len(calls) == 5


@pytest.mark.parametrize("proofs", ["hold", "fail"])
def test_proof_attempts_are_bounded(proofs, monkeypatch):
    # Every pocs.eigenvalue_bounds call of a run without a stalled sweep is
    # a proof attempt. A run tries once its gap falls below eps and, after
    # each failed try, below half the last target: a proof that holds ends
    # the run at its first try, and failing ones take at most
    # 1 + log2(eps / threshold) tries before the run converges as it did
    # without them.
    calls = []
    bounds = pocs.eigenvalue_bounds

    def counted(m):
        calls.append(m)
        lower, upper = bounds(m)
        return (lower if proofs == "hold" else np.full_like(lower, -np.inf)), upper

    monkeypatch.setattr(pocs, "eigenvalue_bounds", counted)
    for name in sorted(MARGIN_RUNS):
        t = MARGIN_RUNS[name]()
        calls.clear()
        rep = el.run_pocs(t, el.PocsOptions(epsilon_shift=1e-6))
        prev, gaps = rep.gap_trace[:-1], rep.gap_trace[1:]
        assert np.all(prev - gaps >= TOL_STALL * prev), name
        if proofs == "hold":
            assert rep.verdict == el.VERDICT_MARGIN
            assert len(calls) == 1, name
        else:
            assert rep.verdict == el.VERDICT_FOUND
            assert 1 <= len(calls) <= 1 + math.log2(1e-6 / rep.converge_threshold), name


def test_eigensolver_failure_is_typed():
    # at max|a| = 1.7e308 the symmetric part overflows and eigh does not
    # converge; this tests the error type, so the overflow warnings before
    # it are silenced. run_pocs iterates at unit scale, where eigh converges,
    # and only its reference norm does not fit a float when scaled back
    t = el.tensor_choi_lam(1.0)
    huge = el.Elast4(t.a / np.abs(t.a).max() * 1.7e308)
    assert issubclass(EigensolverFailure, EllipticityError)
    assert issubclass(NonFiniteEntries, EllipticityError)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EigensolverFailure):
            el.psd_project(el.unfold(huge))
        with pytest.raises(EigensolverFailure):
            el.min_eigenvalue(el.unfold(huge))
    with pytest.raises(NonFiniteEntries, match="POCS report value overflows"):
        el.run_pocs(huge)


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
    return el.make_pair4(q + _pair_antisymmetric(gen))


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
        rep = el.run_pocs(a)
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
