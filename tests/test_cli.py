"""End-to-end command line runs through real subprocesses."""

import json
import subprocess
import sys

import numpy as np
import pytest

import ellipticity_lab as el


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ellipticity_lab", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def tensor_files(tmp_path_factory):
    """Generate the standard inputs once; later tests only read them."""
    root = tmp_path_factory.mktemp("tensors")
    files = {}
    specs = {
        "e": ("E",),
        "two-squares": ("counterexample-s2",),
        "choi": ("choi-lam", "--gamma", "1.0"),
        "iso-neg": ("isotropic", "--lambda", "-3", "--mu", "0.1"),
        "iso-pos": ("isotropic", "--lambda", "1", "--mu", "1"),
    }
    for key, argv in specs.items():
        path = root / f"{key}.json"
        proc = run_cli("gen", *argv, "-o", str(path))
        assert proc.returncode == 0, proc.stderr
        files[key] = str(path)
    dec_path = root / "choi-dec.json"
    proc = run_cli(
        "gen", "choi-lam", "--gamma", "1.0",
        "-o", str(root / "choi2.json"), "--decomp-output", str(dec_path),
    )
    assert proc.returncode == 0, proc.stderr
    files["choi-dec"] = str(dec_path)
    return files


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_loadable_tensor(tmp_path):
    path = tmp_path / "e.json"
    proc = run_cli("gen", "E", "-o", str(path))
    assert proc.returncode == 0
    assert "wrote E" in proc.stdout
    t, name = el.load_tensor(path)
    assert name == "E"
    assert np.array_equal(el.unfold(t), np.eye(9))


def test_gen_stdout_json():
    proc = run_cli("gen", "choi-lam", "--gamma", "1.5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["name"] == "choi-lam(gamma=1.5)"
    t, _ = el.doc_to_tensor(doc)
    assert np.allclose(t.a, el.tensor_choi_lam(1.5).a)


def test_gen_unknown_name_fails():
    proc = run_cli("gen", "nонsense")
    assert proc.returncode == 1
    assert "unknown generator" in proc.stderr


def test_gen_decomp_output(tensor_files):
    alphas, mats = el.load_decomposition(tensor_files["choi-dec"])
    dec = el.StructuredDecomposition(alphas, mats)
    assert (dec.r, dec.q) == (7, 6)
    want = el.choi_lam_case2_decomposition(1.0)
    assert np.array_equal(dec.alphas, want.alphas)
    assert np.array_equal(dec.mats, want.mats)


def test_gen_decomp_output_requires_choi_lam(tmp_path):
    proc = run_cli("gen", "E", "--decomp-output", str(tmp_path / "d.json"))
    assert proc.returncode == 1


def test_gen_random_is_seeded():
    a = run_cli("gen", "random", "--seed", "7")
    b = run_cli("gen", "random", "--seed", "7")
    c = run_cli("gen", "random", "--seed", "8")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


# ---------------------------------------------------------------------------
# check


def test_check_e_is_mpd(tensor_files):
    proc = run_cli("check", "-i", tensor_files["e"], "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "MPD"
    assert doc["certified_mpd_by"] == "spsd-eigen"
    assert doc["refuted_by"] is None
    assert doc["stages"][-1]["stage"] == "oracle"


def test_check_two_squares_is_mpsd(tensor_files):
    proc = run_cli("check", "-i", tensor_files["two-squares"], "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "MPSD"
    assert doc["certified_mpsd_by"] == "pocs-mpsd"
    assert doc["certified_mpd_by"] is None


def test_check_negative_isotropic_refuted(tensor_files):
    proc = run_cli("check", "-i", tensor_files["iso-neg"], "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "NotMPSD"
    assert doc["refuted_by"] == "oracle"
    oracle_stage = doc["stages"][-1]
    assert oracle_stage["witness_value"] < 0


def test_check_choi_lam_with_decomposition(tensor_files):
    proc = run_cli(
        "check", "-i", tensor_files["choi"], "--decomp", tensor_files["choi-dec"], "--json"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "MPSD"
    assert doc["certified_mpsd_by"] == "case2"


def test_check_human_output(tensor_files):
    proc = run_cli("check", "-i", tensor_files["e"])
    assert proc.returncode == 0
    assert "verdict: MPD" in proc.stdout
    assert "spsd-eigen" in proc.stdout


def test_check_human_output_at_extreme_scale(tmp_path):
    # the report of this check holds an inf, which the JSON encoder rejects;
    # human mode does not serialise it, so it prints its stage lines. The
    # verdict itself is not pinned: positivity is scale invariant, but the
    # certifiers' absolute floors are not yet
    path = tmp_path / "big.json"
    el.save_tensor(path, el.Elast4(1e160 * el.tensor_two_squares().a))
    proc = run_cli("check", "-i", str(path))
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("verdict: ") for line in proc.stdout.splitlines())
    assert "oracle (n=2000)" in proc.stdout


def test_check_json_deterministic(tensor_files):
    a = run_cli("check", "-i", tensor_files["iso-neg"], "--json")
    b = run_cli("check", "-i", tensor_files["iso-neg"], "--json")
    assert a.stdout == b.stdout


# ---------------------------------------------------------------------------
# pocs


def test_pocs_identity_tensor(tensor_files):
    proc = run_cli("pocs", "-i", tensor_files["e"], "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "IntersectionFound"
    assert doc["iterations"] == 1


def test_pocs_choi_lam_gap(tensor_files):
    proc = run_cli("pocs", "-i", tensor_files["choi"], "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "GapPositive"
    assert doc["final_gap"] > 1e-3


# ---------------------------------------------------------------------------
# case


def test_case_choi_lam_decomp(tensor_files):
    proc = run_cli(
        "case", "-i", tensor_files["choi"], "--decomp", tensor_files["choi-dec"], "--json"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "MPSD"
    assert doc["case_id"] == 2
    assert doc["boundary"] is True


def test_case_no_matching_shape(tensor_files):
    proc = run_cli("case", "-i", tensor_files["e"], "--json")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "NoMatchingShape"
    assert (doc["r"], doc["q"]) == (9, 9)


def test_case_structure_mismatch_is_undecided(tensor_files):
    # spectral terms of this tensor have q = 3 but are not rank-one
    proc = run_cli("case", "-i", tensor_files["iso-neg"], "--json")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "StructureMismatch"


def test_case_forcing_wrong_shape_is_input_error(tensor_files):
    proc = run_cli("case", "-i", tensor_files["e"], "--case", "2")
    assert proc.returncode == 1
    assert "expected (r, q)" in proc.stderr


# ---------------------------------------------------------------------------
# oracle


def test_oracle_refutation_decides(tensor_files):
    proc = run_cli("oracle", "-i", tensor_files["iso-neg"], "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "NotMPSD"
    assert doc["witness_value"] < 0


def test_oracle_positive_is_undecided(tensor_files):
    proc = run_cli("oracle", "-i", tensor_files["e"], "--json")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "MPD_likely"


# ---------------------------------------------------------------------------
# error handling and output plumbing


def test_missing_input_file(tmp_path):
    proc = run_cli("check", "-i", str(tmp_path / "absent.json"))
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_malformed_input_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "elast4-v1", "entries": [{"i": 9}]}')
    proc = run_cli("oracle", "-i", str(bad))
    assert proc.returncode == 1


def test_missing_required_flag():
    proc = run_cli("check")
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv, key",
    [
        (("check", "--grid-n", "50"), "two-squares"),
        (("oracle", "--grid-n", "50"), "two-squares"),
        (("case", "--grid-n", "0"), "choi"),
        (("pocs", "--tol", "0"), "two-squares"),
        (("pocs", "--epsilon", "-1"), "two-squares"),
        (("pocs", "--epsilon", "inf"), "two-squares"),
        (("pocs", "--max-iter", "0"), "two-squares"),
        (("check", "--max-iter", "0"), "two-squares"),
        (("oracle", "--tol", "-1"), "iso-pos"),
        (("check", "--tol", "-1"), "iso-pos"),
        (("oracle", "--tol", "nan"), "iso-neg"),
        (("check", "--tol", "nan"), "iso-pos"),
        (("check", "--epsilon", "-1"), "e"),
        (("check", "--epsilon", "inf"), "two-squares"),
        (("gen", "random", "--seed", "-1"), None),
        (("gen", "isotropic", "--lambda", "nan"), None),
        (("gen", "isotropic", "--mu=-inf"), None),
        (("gen", "choi-lam", "--gamma", "inf"), None),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_out_of_range_numbers_are_usage_errors(tensor_files, argv, key):
    proc = run_cli(*argv, *(("-i", tensor_files[key]) if key else ()))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: argument" in proc.stderr


def test_output_file_matches_stdout_json(tensor_files, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("oracle", "-i", tensor_files["iso-neg"], "--json", "-o", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout
