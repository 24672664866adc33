"""Smoke runs of the scripts in scripts/ as separate processes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ellipticity_lab as el

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = str(Path(el.__file__).resolve().parents[1])


def run_script(name, *argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_certify_gallery_prints_check_verdicts():
    path = SCRIPTS / "certify_gallery.py"
    spec = importlib.util.spec_from_file_location("certify_gallery", path)
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    rows = run_script("certify_gallery.py").splitlines()[2:]
    items = list(gallery.gallery())
    assert len(rows) == len(items)
    for row, (name, t, dec) in zip(rows, items):
        fields = row.split()
        assert fields[0] == name
        assert fields[-2] == el.check(t, dec).verdict


def test_isotropic_sweep_agrees_with_closed_form():
    out = run_script("isotropic_sweep.py", "--n-lam", "5", "--n-mu", "3")
    assert "disagreements with the closed form: 0" in out


def test_bench_layers_prints_one_json_object(monkeypatch):
    doc = json.loads(run_script("bench_layers.py", "--repeats", "1"))
    assert set(doc["us_per_call"]) == {"psd_project", "min_eigenvalue", "eigenvalue_bounds"}
    assert all(us > 0.0 for us in doc["us_per_call"].values())
    assert set(doc["pocs"]) == {"us_per_sweep", "us_per_run", "solves_per_run", "sweeps", "runs"}
    assert doc["pocs"]["us_per_sweep"] > 0.0 and doc["pocs"]["sweeps"] >= doc["pocs"]["runs"] == 16
    assert doc["pocs"]["us_per_run"] > doc["pocs"]["us_per_sweep"]
    # every kept sweep is one eigensolve, and a rejected extrapolation adds one
    assert doc["pocs"]["solves_per_run"] >= doc["pocs"]["sweeps"] / doc["pocs"]["runs"]
    cold = {"scan_cold_pruned_us", "scan_cold_full_us", "verdict_cold_us"}
    assert set(doc["oracle"]) == {
        "scan_us", "refine_us", "refine_steps", "refine_calls", "verdict_us"
    } | cold
    assert doc["oracle"]["scan_us"] > 0.0 and doc["oracle"]["refine_us"] > 0.0
    assert doc["oracle"]["verdict_us"] > 0.0
    assert all(doc["oracle"][key] > 0.0 for key in cold)
    assert doc["oracle"]["refine_steps"] >= 1.0 and doc["oracle"]["refine_calls"] >= 8
    evals = {f"ascent_{name}_evals" for name in ("eta", "grad", "hess")}
    assert set(doc["cases"]) == {
        "grid_us", "check_us", "checks", "structure_us", "ascent_us", "ascents"
    } | evals
    assert doc["cases"]["checks"] == 2 and doc["cases"]["ascents"] >= 3
    assert doc["cases"]["grid_us"] > 0.0 and doc["cases"]["check_us"] > 0.0
    assert 0.0 < doc["cases"]["structure_us"] < doc["cases"]["check_us"]
    assert doc["cases"]["ascent_us"] > 0.0
    # every ascent evaluates eta and the gradient at its start at least
    assert all(doc["cases"][key] >= 1.0 for key in evals - {"ascent_hess_evals"})
    assert doc["cases"]["ascent_hess_evals"] > 0.0
    assert set(doc["io"]) == {"load_us", "emit_us", "files"} and doc["io"]["files"] == 8
    assert doc["io"]["load_us"] > 0.0 and doc["io"]["emit_us"] > 0.0
    assert set(doc["check"]) == {"us"} and doc["check"]["us"] > 0.0
    margins = {"1e-2", "1e-3", "1e-4", "0", "-1e-3"}
    assert set(doc["boundary"]) == {"repeats", "tensors"} | margins
    assert doc["boundary"]["repeats"] == 1 and doc["boundary"]["tensors"] == 3
    for label in margins:
        assert set(doc["boundary"][label]) == {"us", "sweeps_per_run", "verdicts"}
        assert doc["boundary"][label]["us"] > 0.0 and doc["boundary"][label]["sweeps_per_run"] >= 1.0
    assert doc["boundary"]["1e-4"]["verdicts"] == ["MPD"] * 3
    assert doc["boundary"]["-1e-3"]["verdicts"] == ["NotMPSD"] * 3
    # --against compares the new figures; importing the script pins BLAS
    # to one thread unless the environment says otherwise
    monkeypatch.syspath_prepend(str(SCRIPTS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    figures = importlib.import_module("bench_layers").layer_figures(doc)
    assert {f"check.boundary_{label}_us" for label in margins} <= set(figures)
    assert {"pocs.us_per_run", "pocs.solves_per_run", "pocs.us_per_sweep"} <= set(figures)
    assert doc["numpy"] == np.__version__ and doc["blas"]["name"]
