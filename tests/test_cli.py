"""End-to-end command line runs through real subprocesses."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cli, pocs, spectral


SRC = str(Path(el.__file__).resolve().parents[1])


def run_cli(*argv, cwd=None):
    # The package directory goes first on the child's path, so the CLI runs
    # from a plain checkout as well as from an install.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ellipticity_lab", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
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
    assert proc.stderr.endswith(f"choose from {', '.join(cli._GENERATORS)}\n")
    assert list(cli._GENERATORS) == [
        "E", "choi-lam", "isotropic", "counterexample-s2", "random-spd", "random"
    ]


def test_gen_every_generator_writes_a_tensor(capsys):
    for name in cli._GENERATORS:
        assert cli.main(["gen", name]) == cli.EXIT_DECIDED
        t, label = el.doc_to_tensor(json.loads(capsys.readouterr().out))
        assert isinstance(t, el.Elast4) and label.startswith(name)


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
    # human mode prints the stage lines without serialising the report. The
    # verdict itself is not pinned: positivity is scale invariant, but the
    # epsilon of certify_mpd is absolute, so this M-PSD tensor gets MPD
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
    assert 0.0 < doc["separation_margin"] <= doc["final_gap"]
    human = run_cli("pocs", "-i", tensor_files["choi"])
    assert "separation margin" in human.stdout


def test_pocs_shifted_run_proves_a_margin(tensor_files):
    # isotropic(1, 1): its unfolding has a zero eigenvalue, its form minimum 1
    proc = run_cli("pocs", "-i", tensor_files["iso-pos"], "--epsilon", "1e-6", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "MarginProved"
    assert 0.0 < doc["form_lower_bound"] <= 1.0
    assert "separation_margin" not in doc
    human = run_cli("pocs", "-i", tensor_files["iso-pos"], "--epsilon", "1e-6")
    assert human.returncode == 0
    assert "verdict: MarginProved" in human.stdout
    assert "form lower bound" in human.stdout
    check = run_cli("check", "-i", tensor_files["iso-pos"])
    assert check.returncode == 0
    stage = [line for line in check.stdout.splitlines() if line.startswith("pocs-mpd")]
    assert "MarginProved" in stage[0] and "form lower bound" in stage[0]
    assert "-> certified M-PD" in stage[0]


def test_pocs_inconclusive_is_undecided(tensor_files, monkeypatch, capsys):
    # a run cut at one sweep has neither converged nor proved a gap
    monkeypatch.setattr(pocs, "MAX_SWEEPS", 1)
    assert cli.main(["pocs", "-i", tensor_files["choi"], "--json"]) == cli.EXIT_UNDECIDED
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Inconclusive"
    assert doc["iterations"] == 1
    assert "separation_margin" not in doc


# sha256 of the canonical reports, recorded with numpy 2.4 and OpenBLAS 0.3.31
# on x86_64 (the check reports hold case digits, whose last bits follow the
# BLAS kernels, and oracle digits, which follow the float arithmetic of
# refine_min). The two-squares check holds one GapPositive stage, pocs-mpd,
# which ends at its separation proof after 7 sweeps; the isotropic check's
# pocs-mpd stage ends MarginProved after 3 sweeps.
PINNED_REPORTS = {
    ("E", "pocs"): "f348c7b0036963b8a09f85e72f1a415b514cbb9d43f817fc6ef1bdc8a995576e",
    ("E", "check"): "f8442beeaa038c8a47395af6cb3c110b08c7ab792ccc94fa446cec83908730c1",
    ("counterexample-s2", "pocs"): "7b6c578b036cac1dd5e9ddaa9df5d82103400bd72ad3af1824a7403c517c5942",
    ("counterexample-s2", "check"): "ad31972893f3ed6be7642557306f80efa8420e2fbb3d804861a16b8706f22d7c",
    ("isotropic", "pocs"): "ec51704720e12e59c6a455a1172a1b941f02ec61e6f8bd1cdab2a21505dfb1ee",
    ("isotropic", "check"): "61b6afb668e2341bab731c38b65fc6e9e18daa4d2497b97dc652259b3f95e69d",
    ("random", "check"): "2f4060c547519c7939d8fef7752a9ec7f057fe4de9bb1d90c5181d303d56e3f6",
    ("random", "oracle"): "9f7d5cb8f135c0de59610db5d66ad2ff4bdc12f846b1e240db7fe46365d1e30a",
    ("choi-lam", "check"): "0d68f0891bb724570acebb0d5372b9cf2f08d79d8fe0b25c283099df4a39bd6b",
    ("choi-lam", "oracle"): "532c4f0551cbab7a33cf35f54ea271a3b6555d113acf5a55d3b85ae60156e5f1",
    ("choi-lam-1.6", "case"): "f46c0293ba763513a592727f861621b59be5d04cbf3032b92e92aa81814d2cdf",
    ("choi-lam-1.6", "check"): "4eee3d886b8cf2e62b31c74f85fac27393386fc9a86ef9c11e1a321817782bd0",
}
# sha256 of each pinned check report without the oracle stage's report and
# witness_value: every other stage, and the verdict, which must not move
# when only the oracle's digits do.
PINNED_CHECK_STAGES = {
    "E": "971c45bdcfd2d515cd9c18938ed45d1b22feaa584c44927daf8621b0afef2267",
    "counterexample-s2": "e949c16c029344e5644e63ff7c6e242346c96b2f57e44fb914599b93456bbfb7",
    "isotropic": "5f2a3ecedf62d9c19edbc874b641e5cf30a96f45117c7530d52e453b3fcd1b07",
    "random": "33b91f7075111825ac6546929aac2a1fe4b7c8cbc29bf9f947fd6d2b2f38e9f2",
    "choi-lam": "f2dd99d4de5f58043095711001440c5a5346588ebdbbb3867cc1b1af34f94433",
    "choi-lam-1.6": "e068347268632a661af8d4db9f0de8ff630efa8d9373e9741fd8e78eca5bcb58",
}
# gen arguments of each pinned input, the arguments its commands add, and
# their exit code. E, two-squares and isotropic scan all lattice rows; the
# random tensor (NotMPSD, a refined witness) and Choi-Lam (MPSD_boundary,
# check Undecided) take the pruned scan. Choi-Lam 1.6 runs case 2 on its
# own decomposition, whose supremum is the limit 1 on the singular lines.
PIN_INPUTS = {
    "E": (("E",), (), cli.EXIT_DECIDED),
    "counterexample-s2": (("counterexample-s2",), (), cli.EXIT_DECIDED),
    "isotropic": (("isotropic", "--lambda", "1", "--mu", "1"), (), cli.EXIT_DECIDED),
    "random": (("random", "--seed", "0"), (), cli.EXIT_DECIDED),
    "choi-lam": (("choi-lam", "--gamma", "1"), (), cli.EXIT_UNDECIDED),
    "choi-lam-1.6": (
        ("choi-lam", "--gamma", "1.6", "--decomp-output", "d.json"),
        ("--decomp", "d.json"),
        cli.EXIT_DECIDED,
    ),
}


@pytest.mark.parametrize("name, command", sorted(PINNED_REPORTS))
def test_reports_are_pinned(name, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    gen, extra, exit_code = PIN_INPUTS[name]
    assert cli.main(["gen", *gen, "-o", "t.json"]) == cli.EXIT_DECIDED
    capsys.readouterr()
    assert cli.main([command, "-i", "t.json", *extra, "--json"]) == exit_code
    out = capsys.readouterr().out
    if command == "check":
        doc = json.loads(out)
        for stage in doc["stages"]:
            if stage["stage"] == "oracle":
                del stage["report"], stage["witness_value"]
        rest = hashlib.sha256(el.dumps_report(doc).encode()).hexdigest()
        assert rest == PINNED_CHECK_STAGES[name]
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[name, command]


def test_repeated_main_calls_share_one_parser(tensor_files, capsys):
    # the parser is built once per process; a second run prints the same
    # bytes, and a usage error after a successful run still exits 1
    assert cli._build_parser() is cli._build_parser()
    argv = ["check", "-i", tensor_files["iso-neg"], "--json"]
    assert cli.main(argv) == cli.EXIT_DECIDED
    first = capsys.readouterr().out
    assert cli.main(argv) == cli.EXIT_DECIDED
    assert capsys.readouterr().out == first
    with pytest.raises(SystemExit) as exc:
        cli.main(["pocs", "-i", tensor_files["iso-neg"], "--epsilon", "-1"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "error: argument --epsilon" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # every command line of the README's CLI block parses with the real
    # parser, so the docs cannot keep an option that is gone
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["ellipticity-lab"]]
    assert {argv[0] for argv in commands} == {"gen", "check", "pocs", "case", "oracle"}
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: ellipticity-lab {shlex.join(argv)}")


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


def spectral_decomp_file(tensor_file, directory):
    """Write the spectral decomposition of a tensor file; return its path."""
    t, _ = el.load_tensor(tensor_file)
    dec = el.spectral_decomposition(t)
    path = directory / "spectral-dec.json"
    el.save_decomposition(path, dec.alphas, dec.mats)
    return str(path)


def test_case_no_matching_shape(tensor_files, tmp_path):
    dec = spectral_decomp_file(tensor_files["e"], tmp_path)
    proc = run_cli("case", "-i", tensor_files["e"], "--decomp", dec, "--json")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "NoMatchingShape"
    assert (doc["r"], doc["q"]) == (9, 9)


def test_case_structure_mismatch_is_undecided(tensor_files, tmp_path):
    # spectral terms of this tensor have q = 3 but are not rank-one
    dec = spectral_decomp_file(tensor_files["iso-neg"], tmp_path)
    proc = run_cli("case", "-i", tensor_files["iso-neg"], "--decomp", dec, "--json")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "StructureMismatch"


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e-7, 2.0**-500])
def test_case1_near_diagonal_negative_term_is_no_certificate(s, tmp_path, capsys):
    # the negative term s (I + 0.01 (J - I)) is not diagonal in the frame at
    # any scale s; the form is about -0.01 at x = y = (1, 1, 1) / sqrt(3)
    neg = s * (np.eye(3) + 0.01 * (np.ones((3, 3)) - np.eye(3)))
    alphas = np.array([1.0, 1.0, 1.0, -0.33 / s**2])
    mats = np.stack([np.diag(np.eye(3)[i]) for i in range(3)] + [neg])
    el.save_tensor(tmp_path / "t.json", el.tensor_from_rank_one_terms(alphas, mats))
    el.save_decomposition(tmp_path / "d.json", alphas, mats)
    files = ["-i", str(tmp_path / "t.json"), "--decomp", str(tmp_path / "d.json"), "--json"]
    assert cli.main(["case", *files]) == cli.EXIT_UNDECIDED
    assert json.loads(capsys.readouterr().out)["verdict"] == "StructureMismatch"
    assert cli.main(["check", *files]) == cli.EXIT_DECIDED
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NotMPSD"
    assert (doc["certified_mpsd_by"], doc["refuted_by"]) == (None, "oracle")


@pytest.mark.parametrize(
    "command, code, verdict",
    [("check", cli.EXIT_DECIDED, "NotMPSD"), ("case", cli.EXIT_UNDECIDED, "StructureMismatch")],
    ids=["check", "case"],
)
def test_an_alpha_that_underflows_is_a_case_mismatch(command, code, verdict, tmp_path, capsys):
    # Choi-Lam 1 with alpha_neg -4 and one gamma term at 5e-324, which the
    # case-2 checker's 2^-2 rescale of the alphas underflows to 0; both
    # commands exited 1 with a ZeroDivisionError traceback
    dec = el.choi_lam_case2_decomposition(1.0)
    alphas = dec.alphas.copy()
    alphas[3], alphas[-1] = 5e-324, -4.0
    el.save_tensor(tmp_path / "t.json", el.tensor_from_rank_one_terms(alphas, dec.mats))
    el.save_decomposition(tmp_path / "d.json", alphas, dec.mats)
    files = ["-i", str(tmp_path / "t.json"), "--decomp", str(tmp_path / "d.json"), "--json"]
    assert cli.main([command, *files]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == verdict
    case = doc if command == "case" else next(s for s in doc["stages"] if s["stage"] == "case")
    assert case["verdict"] == "StructureMismatch"
    assert case["diagnostics"]["reason"] == "coefficients spread past the float range"


def test_case_requires_a_decomposition(tensor_files):
    proc = run_cli("case", "-i", tensor_files["e"], "--json")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "the following arguments are required: --decomp" in proc.stderr


@pytest.mark.parametrize("command", ["check", "case"])
def test_decomposition_of_another_tensor_is_input_error(tensor_files, command):
    # unchecked, case 2 certifies these Choi-Lam terms MPSD for a form with minimum -2.8
    proc = run_cli(
        command, "-i", tensor_files["iso-neg"], "--decomp", tensor_files["choi-dec"], "--json"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the decomposition builds a different tensor")
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "nested-100000"]
)
@pytest.mark.parametrize("loader", ["tensor", "decomposition"])
def test_unreadable_json_is_an_input_error(tensor_files, tmp_path, capsys, content, loader):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(el.ParseError):
        (el.load_tensor if loader == "tensor" else el.load_decomposition)(bad)
    if loader == "tensor":
        argv = ["check", "-i", str(bad)]
    else:
        argv = ["case", "-i", tensor_files["choi"], "--decomp", str(bad)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot read {loader} file")


def test_missing_required_flag():
    proc = run_cli("check")
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv, key",
    [
        (("pocs", "--epsilon", "-1"), "two-squares"),
        (("pocs", "--epsilon", "inf"), "two-squares"),
        (("pocs", "--tol", "0"), "two-squares"),
        (("pocs", "--max-iter", "0"), "two-squares"),
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
    if argv[1] in ("--tol", "--max-iter"):
        # pocs's tolerance and sweep budget are constants: no number is taken
        assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in proc.stderr
    else:
        assert "error: argument" in proc.stderr


@pytest.mark.parametrize("option", [("--epsilon", "1e-6"), ("--max-iter", "100")])
def test_check_takes_no_pocs_options(tensor_files, option):
    # check's POCS stages run at the certify defaults; use pocs to set them
    proc = run_cli("check", "-i", tensor_files["e"], *option)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"error: unrecognized arguments: {' '.join(option)}" in proc.stderr


@pytest.mark.parametrize("command", ["check", "pocs", "case", "oracle"])
def test_certifying_commands_take_no_tolerance(tensor_files, command):
    # their tolerances, lattice sizes and sweep budgets are constants of
    # each route
    decomp = ("--decomp", tensor_files["choi-dec"]) if command == "case" else ()
    for option in (("--tol", "1e-6"), ("--max-iter", "0"), ("--grid-n", "2000")):
        proc = run_cli(command, "-i", tensor_files["choi"], *decomp, *option)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"error: unrecognized arguments: {' '.join(option)}" in proc.stderr


def test_numeric_options_per_subcommand():
    # every option that takes a number, read off the parser: a new numeric
    # knob has to be added here on purpose
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    numeric = {
        command: {
            action.option_strings[0]
            for action in sub._actions
            if getattr(action.type, "__name__", None) in ("float", "int")
        }
        for command, sub in subparsers.choices.items()
    }
    assert numeric == {
        "gen": {"--gamma", "--lambda", "--mu", "--seed"},
        "check": set(),
        "pocs": {"--epsilon"},
        "case": set(),
        "oracle": set(),
    }


def test_tensor_near_float_limit_gets_a_verdict(tmp_path):
    # gamma = 1e308 is finite, but averaging its orbit as (a + b) / 2 ran
    # to inf and the loader ended in an untyped traceback
    path = tmp_path / "big.json"
    proc = run_cli("gen", "choi-lam", "--gamma", "1e308", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("oracle", "-i", str(path), "--json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "MPSD_boundary"


def test_overflowing_tensor_is_a_typed_error():
    # lambda + 2 mu = 3e308 is an entry beyond the float limit
    proc = run_cli("gen", "isotropic", "--lambda", "1e308", "--mu", "1e308")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: tensor entries must be finite")


def test_eigensolver_failure_is_an_input_error(tmp_path, monkeypatch, capsys):
    # at max|a| = 1.7e308 check solves its first stage at unit scale and
    # ends with a verdict, while pocs, which runs at unit scale too, has a
    # report whose norm does not fit a float: a typed error, exit 1
    t = el.tensor_choi_lam(1.0)
    path = tmp_path / "huge.json"
    el.save_tensor(path, el.Elast4(t.a / np.abs(t.a).max() * 1.7e308))
    proc = run_cli("check", "-i", str(path))
    assert proc.returncode == cli.EXIT_UNDECIDED
    assert "Traceback" not in proc.stderr
    assert "verdict: Undecided" in proc.stdout
    proc = run_cli("pocs", "-i", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: a POCS report value overflows" in proc.stderr
    # a stage-1 solve that does not converge is check's typed error, exit 1
    unit = tmp_path / "t.json"
    el.save_tensor(unit, t)
    kernels = spectral._umath_linalg

    def nan_eigvalsh(m, signature):
        return kernels.eigvalsh_lo(np.full_like(m, np.nan), signature=signature)

    monkeypatch.setattr(
        spectral, "_umath_linalg", SimpleNamespace(eigh_lo=kernels.eigh_lo, eigvalsh_lo=nan_eigvalsh)
    )
    assert cli.main(["check", "-i", str(unit)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: symmetric eigensolver failed: Eigenvalues did not converge\n"


@pytest.mark.parametrize("peak", [2e307, 8e307])
def test_check_of_an_unfolding_spectrum_past_the_float_range(peak, tmp_path):
    # the all-ones unfolding has the eigenvalues 0 and 9 peak: stage 1
    # solves it at unit scale and certifies M-PSD, where the solve as given
    # met the float range, exit 1
    path = tmp_path / "ones.json"
    el.save_tensor(path, el.make_elast4(np.full((3, 3, 3, 3), peak)))
    proc = run_cli("check", "-i", str(path), "--json")
    assert (proc.returncode, proc.stderr) == (cli.EXIT_DECIDED, "")
    doc = json.loads(proc.stdout)
    assert (doc["verdict"], doc["certified_mpsd_by"]) == ("MPSD", "spsd-eigen")
    assert abs(doc["stages"][0]["min_eigenvalue"]) < 1e-12 * peak


def test_oracle_of_a_minimum_past_the_float_range_is_an_input_error(tmp_path, capsys):
    # minus the all-ones tensor at 2e307 has the form minimum -9 * 2e307 at
    # x = y = (1, 1, 1) / sqrt(3): no report of it fits a float
    path = tmp_path / "ones.json"
    el.save_tensor(path, el.make_elast4(np.full((3, 3, 3, 3), -2e307)))
    assert cli.main(["oracle", "-i", str(path), "--json"]) == cli.EXIT_INPUT
    err = "error: a refined form value overflows when scaled back by 2**1021\n"
    assert capsys.readouterr() == ("", err)
    proc = run_cli("oracle", "-i", str(path), "--json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_INPUT, "", err)


@pytest.mark.parametrize(
    "make, verdict, code",
    [
        (lambda: el.tensor_isotropic(-3.0, 0.1), "NotMPSD", cli.EXIT_DECIDED),
        (lambda: el.tensor_choi_lam(1.0), "Undecided", cli.EXIT_UNDECIDED),
    ],
    ids=["iso-neg", "choi-lam"],
)
def test_check_near_the_float_limit_skips_the_pocs_stages(make, verdict, code, tmp_path, capsys):
    # from max|a| ~8e307 a POCS report overflows; check ends as at 4e307
    t = make()
    for peak in (4e307, 8e307):
        path = tmp_path / f"{peak:g}.json"
        el.save_tensor(path, el.Elast4(t.a / np.abs(t.a).max() * peak))
        assert cli.main(["check", "-i", str(path), "--json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == verdict
        skipped = [s.get("skipped") for s in doc["stages"][1:3]]
        assert skipped == ([None] * 2 if peak < 8e307 else ["report overflows the float range"] * 2)


def test_output_file_matches_stdout_json(tensor_files, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("oracle", "-i", tensor_files["iso-neg"], "--json", "-o", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout
