"""Tests of the benchmark's own parts: references, pools, digests, tracing.

Run from the root of a checkout:  python3 -m pytest elbench/test_elbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import ops  # noqa: E402
import pools  # noqa: E402
import refs  # noqa: E402


def form(a, x, y):
    return refs.form_value(a, x, y)


# ---------------------------------------------------------------------------
# references


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (-1.9, 1.0), (-3.0, 0.1), (2.0, -0.5)])
def test_isotropic_closed_form_matches_scan(lam, mu):
    assert refs.sphere_min(refs.isotropic(lam, mu))[0] == pytest.approx(min(mu, lam + 2 * mu), abs=1e-9)


def test_two_squares_is_boundary_with_indefinite_unfolding():
    a = refs.two_squares()
    assert abs(refs.sphere_min(a)[0]) < 1e-12
    assert refs.unfolding_min_eig(a) == pytest.approx(-1.0)


@pytest.mark.parametrize("gamma", [0.6, 1.0, 1.7])
def test_choi_lam_terms_give_the_choi_lam_form(gamma):
    a = refs.rank_one_terms_tensor(*refs.choi_lam_terms(gamma))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        want = sum(x[s] ** 2 * y[s] ** 2 for s in range(3)) - 2 * (
            x[0] * x[1] * y[0] * y[1] + x[1] * x[2] * y[1] * y[2] + x[2] * x[0] * y[2] * y[0]
        ) + gamma * (x[0] ** 2 * y[1] ** 2 + x[1] ** 2 * y[2] ** 2 + x[2] ** 2 * y[0] ** 2)
        assert form(a, x, y) == pytest.approx(want, abs=1e-12)
    # zero at (e1, e3) for every gamma; negative somewhere iff gamma < 1
    assert form(a, np.eye(3)[0], np.eye(3)[2]) == pytest.approx(0.0, abs=1e-15)
    assert (refs.sphere_min(a)[0] < -1e-9) == (gamma < 1.0)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.3])
def test_case3_threshold(c):
    alphas, mats = refs.case3_terms(c)
    rng = np.random.default_rng(1)
    mats = refs.rotate_terms(mats, refs.rotation(rng), refs.rotation(rng))
    a = refs.rank_one_terms_tensor(alphas, mats)
    assert refs.sphere_min(a)[0] == pytest.approx(1.0 - c * c, abs=1e-9)


@pytest.mark.parametrize("f", [0.5, 1.5])
def test_case1_threshold(f):
    sigma = np.array([0.3, -1.2, 0.8])
    a = refs.rank_one_terms_tensor(*refs.case1_terms(sigma, -f / float(sigma @ sigma)))
    assert (refs.sphere_min(a)[0] < -1e-9) == (f > 1.0)


def test_rotation_keeps_the_minimum():
    rng = np.random.default_rng(2)
    a = pools.base_refuting(1)[0]
    b = refs.rotate(a, refs.rotation(rng), refs.rotation(rng))
    assert refs.sphere_min(b)[0] == pytest.approx(refs.sphere_min(a)[0], abs=1e-9)


def test_gap_tensor_is_mpd_but_not_spsd():
    a, margin = pools.gap_tensor(np.random.default_rng(3), pools.base_gap(1)[0], 0.5)
    assert refs.unfolding_min_eig(a) < 0.0
    assert refs.sphere_min(a)[0] == pytest.approx(margin, abs=1e-9)


def test_sphere_min_value_is_achieved():
    a = pools.base_refuting(1)[0]
    value, x, y = refs.sphere_min(a)
    assert np.linalg.norm(x) == pytest.approx(1.0) and np.linalg.norm(y) == pytest.approx(1.0)
    assert form(a, x, y) == value < -0.05


# ---------------------------------------------------------------------------
# pools


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_pools_are_seeded_and_stratified(workload):
    one, again, other = pools.build(workload, 7), pools.build(workload, 7), pools.build(workload, 8)
    assert [it.label for it in one] == [it.label for it in again] == [it.label for it in other]
    assert all(np.array_equal(x.a, y.a) for x, y in zip(one, again))
    assert not all(np.array_equal(x.a, y.a) for x, y in zip(one, other))
    assert [it.truth for it in one] == [it.truth for it in other]


def test_extreme_copies_keep_their_truth():
    items = pools.build("check-mix", 1)
    extreme = [it for it in items if it.extreme]
    assert len(extreme) == 2 * len(pools.EXTREME_SCALES)
    for it in extreme:
        assert it.truth == (refs.NOT_MPSD if it.label.startswith("iso-neg") else refs.MPSD)


# ---------------------------------------------------------------------------
# outcomes and digests


def test_judge():
    assert ops.judge(refs.MPSD, refs.MPD) == ops.DECIDED
    assert ops.judge(refs.MPD, refs.MPSD) == ops.FAILED
    assert ops.judge(refs.NOT_MPSD, refs.MPSD) == ops.FAILED
    assert ops.judge("Undecided", refs.NOT_MPSD) == ops.UNDECIDED


def test_check_reports_do_not_depend_on_the_directory(tmp_path, monkeypatch):
    import ellipticity_lab.cli as cli

    items = [it for it in pools.build("check-mix", 1) if it.label.startswith(("spd", "choi-lam-1"))][:2]
    outputs = []
    for sub in ("a", "b"):
        wd = tmp_path / sub
        wd.mkdir()
        argvs = ops.write_inputs(items, str(wd))
        monkeypatch.chdir(wd)
        outputs.append([ops.make_check(cli, argv, it.truth)() for argv, it in zip(argvs, items)])
    for first, second in zip(*outputs):
        assert first.status == ops.DECIDED
        assert first.output == second.output
        assert json.loads(first.output)["verdict"] == first.verdict


def test_case_digest_is_stable():
    import ellipticity_lab as el
    import run

    items = [it for it in pools.build("case-sup", 1) if it.kind in ("1", "3")]
    fns = run.build_ops(el, "case-sup", items, None)
    first, second = run.run_pass(fns, "case-sup"), run.run_pass(fns, "case-sup")
    assert run.digest(items, first) == run.digest(items, second)
    assert all(o.status == ops.DECIDED for o in first.outcomes)


# ---------------------------------------------------------------------------
# tracing


def test_tracing_counts_and_restores():
    import ellipticity_lab as el
    import ellipticity_lab.cli  # noqa: F401

    originals = (el.cases.sup_eta, el.oracle.sym_eig, el.pocs.run_pocs, el.io.dumps_report)
    items = [it for it in pools.build("case-sup", 1) if it.kind == "3"][:2]
    decs = [el.StructuredDecomposition(*it.dec) for it in items]
    tr = layers.Tracer()
    layers.install(tr, el)
    try:
        for dec in decs:
            el.cases.check_case3(dec)
            tr.commit(1.0)
    finally:
        tr.restore()
    assert (el.cases.sup_eta, el.oracle.sym_eig, el.pocs.run_pocs, el.io.dumps_report) == originals
    m = layers.layer_metrics(tr, passes=1, ops_per_pass=len(decs))
    assert m["cases.sup_eta.calls"] == 2
    assert m["cases.eta_grid_points"] == 2 * 20000
    assert m["cases.eta_evals"] > 0 and m["cases.grad_evals"] > 0
    assert set(tr.self_s) <= set(layers.LAYERS)
    assert 0.5 < m["cases.share"] < 1.0
    assert m["oracle.calls"] == 0 and m["pocs.runs"] == 0


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "case-sup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
