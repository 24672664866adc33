"""Acceptance gate: the seven headline checks, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the summary lines;
each test also passes or fails on its own, so the plain pytest exit status is
the gate. Every tolerance here is load-bearing: loosening one would certify
behavior the library does not have.
"""

from contextlib import contextmanager

import numpy as np

import ellipticity_lab as el


@contextmanager
def reported(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_acceptance_1_two_squares_certification():
    # A nonnegative form whose unfolding is indefinite: the eigenvalue route
    # must say "not S-PSD" while alternating projections still certify M-PSD.
    with reported(1, "two-squares certification"):
        t = el.tensor_two_squares()
        assert el.min_eigenvalue(el.unfold(t)) < 0.0

        # The stop rule is relative to ||A|| = 4, so request 2.5e-11 to land
        # the absolute gap under 1e-10.
        res = el.certify_mpsd(t, el.PocsOptions(tol_converge=2.5e-11))
        assert res.certified
        assert res.report.final_gap <= 1e-10
        assert res.report.iterations <= 20000

        grid = el.grid_min_biquadratic(t, n=2000)
        assert grid.min_value >= -1e-9


def test_acceptance_2_choi_lam_boundary():
    # The classic boundary form: M-PSD, yet no S-PSD representative exists in
    # its affine slice, so the projection gap stays bounded away from zero.
    with reported(2, "choi-lam boundary behavior"):
        t = el.tensor_choi_lam(1.0)
        rep = el.run_pocs(t, el.PocsOptions())
        assert rep.verdict == el.VERDICT_GAP
        assert rep.final_gap > 1e-3

        case = el.check_case2(el.choi_lam_case2_decomposition(1.0))
        assert case.verdict == el.CASE_MPSD
        assert 1.0 - 1e-6 <= case.eta_sup <= 1.0 + 1e-6

        # The form vanishes at x = y = S(1,1,1)/sqrt(3) for every diagonal
        # sign matrix S, and near the coordinate-axis pairs. Which zero a
        # lattice argmin lands on depends on n; from the n = 1000 lattice the
        # refinement converges into the zero at +-(1,1,1)/sqrt(3). The angle
        # test below ignores only the overall sign of each vector, so it
        # accepts that basin alone: the other three sign patterns lie
        # 1.231 rad from (1,1,1)/sqrt(3).
        grid = el.grid_min_biquadratic(t, n=1000)
        ref = el.refine_min(t, grid.argmin_x, grid.argmin_y)
        assert abs(ref.min_value) <= 1e-6
        u = np.ones(3) / np.sqrt(3)
        for v in (ref.argmin_x, ref.argmin_y):
            angle = np.arccos(np.clip(abs(float(v @ u)), 0.0, 1.0))
            assert angle <= 1e-3


def test_acceptance_3_identity_strictness():
    with reported(3, "identity-form strictness"):
        t = el.tensor_e()
        res = el.certify_mpd(t, el.PocsOptions(epsilon_shift=0.5))
        assert res.certified
        ov = el.oracle_verdict(t, n=2000)
        assert abs(ov.report.min_value - 1.0) <= 1e-12


def test_acceptance_4_isotropic_sweep():
    # closed form: min over unit sphere pairs is min(mu, lambda + 2 mu)
    with reported(4, "isotropic moduli sweep"):
        for lam in (-3.0, -1.9, -1.0, 0.0, 1.0, 3.0):
            for mu in (0.1, 1.0):
                t = el.tensor_isotropic(lam, mu)
                theory = min(mu, lam + 2.0 * mu)
                ov = el.oracle_verdict(t, n=2000)
                if theory < -1e-8:
                    assert ov.verdict == el.ORACLE_NOT_MPSD, (lam, mu)
                elif theory > 1e-8:
                    assert ov.verdict == el.ORACLE_MPD_LIKELY, (lam, mu)
                assert abs(ov.report.min_value - theory) <= 1e-6, (lam, mu)


def test_acceptance_5_projection_properties():
    with reported(5, "projection property suite"):
        rng = np.random.default_rng(5)
        worst_membership = 0.0
        worst_idem = 0.0
        worst_near_t = 0.0
        worst_near_s = 0.0
        worst_fejer = 0.0
        for k in range(1000):
            # affine-slice projection: membership, idempotence, nearest point
            ref = el.random_tensor(rng)
            raw = rng.standard_normal((3, 3, 3, 3))
            b = el.make_pair4(0.5 * (raw + raw.transpose(1, 0, 3, 2)))
            p = el.project_T(ref, b)
            sums = p.a + p.a.transpose(1, 0, 2, 3)
            worst_membership = max(
                worst_membership, float(np.max(np.abs(sums - 2.0 * ref.a)))
            )
            p2 = el.project_T(ref, p)
            worst_idem = max(worst_idem, float(np.max(np.abs(p2.a - p.a))))
            for _ in range(3):
                q = rng.standard_normal((3, 3, 3, 3))
                other = el.project_T(
                    ref, el.make_pair4(0.5 * (q + q.transpose(1, 0, 3, 2)))
                )
                gap = np.linalg.norm(b.a - p.a) - np.linalg.norm(b.a - other.a)
                worst_near_t = max(worst_near_t, float(gap))

            # cone projection: nearest point against 500 PSD samples, a mix
            # of far-away random Gram matrices and small bumps around the
            # projection itself
            m = rng.standard_normal((9, 9))
            m = 0.5 * (m + m.T)
            pm = el.psd_project(m)
            d0 = float(np.linalg.norm(m - pm))
            g = rng.standard_normal((480, 9, 9))
            samples = g @ g.transpose(0, 2, 1)
            for _ in range(20):
                v = rng.standard_normal(9)
                bump = pm + rng.uniform(0.0, 0.1) * np.outer(v, v)
                samples = np.concatenate([samples, bump[None]])
            dists = np.linalg.norm((m[None] - samples).reshape(500, -1), axis=1)
            worst_near_s = max(worst_near_s, d0 - float(dists.min()))

            # Fejer monotonicity of the alternating-projection gap trace,
            # over whole runs
            run = el.run_pocs(el.random_tensor(rng))
            if len(run.gap_trace) > 1:
                worst_fejer = max(worst_fejer, float(np.max(np.diff(run.gap_trace))))

        assert worst_membership <= 1e-12
        assert worst_idem <= 1e-12
        assert worst_near_t <= 1e-12
        assert worst_near_s <= 1e-12
        assert worst_fejer <= 1e-12


def test_acceptance_6_soundness_cross_validation():
    with reported(6, "positive-cone soundness"):
        rng = np.random.default_rng(6)
        certified = 0
        for _ in range(200):
            t = el.random_spd_tensor(rng)
            res = el.certify_mpsd(t)
            if res.certified:
                certified += 1
                ov = el.oracle_verdict(t, n=500)
                assert ov.verdict != el.ORACLE_NOT_MPSD
        assert certified >= 190


def test_acceptance_7_case1_end_to_end():
    with reported(7, "case-1 vs brute force"):
        rng = np.random.default_rng(7)

        def random_case1(n_neg):
            while True:
                V = rng.standard_normal((3, 3))
                W = rng.standard_normal((3, 3))
                if np.linalg.cond(V) < 10 and np.linalg.cond(W) < 10:
                    break
            alphas = [rng.uniform(0.5, 2.0) for _ in range(3)]
            mats = [np.outer(V[:, s], W[:, s]) for s in range(3)]
            for _ in range(n_neg):
                alphas.append(-rng.uniform(0.1, 2.0))
                mats.append(V @ np.diag(rng.standard_normal(3)) @ W.T)
            return el.StructuredDecomposition(np.asarray(alphas), np.stack(mats))

        checked = 0
        draws = 0
        while checked < 100:
            dec = random_case1(1 + draws % 2)
            draws += 1
            rep = el.check_case1(dec)
            assert rep.verdict in (el.CASE_MPSD, el.CASE_NOT_MPSD)
            # near-singular C: both routes sit on their tolerance edge, so
            # agreement is not a well-posed question there
            if abs(float(np.linalg.eigvalsh(rep.C_matrix)[0])) <= 1e-6:
                continue
            t = el.tensor_from_rank_one_terms(dec.alphas, dec.mats)
            ov = el.oracle_verdict(t, n=500)
            if rep.verdict == el.CASE_NOT_MPSD:
                assert ov.verdict == el.ORACLE_NOT_MPSD
            else:
                assert ov.verdict != el.ORACLE_NOT_MPSD
                red = el.case1_positive_redecomposition(dec)
                t2 = el.tensor_from_rank_one_terms(red.alphas, red.mats)
                assert el.certify_mpsd(t2).certified
            checked += 1
