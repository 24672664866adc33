"""The check pipeline in-process: stage records, deciding stages, the tripwire."""

import json

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cases, cli, oracle


@pytest.mark.parametrize(
    "make, spsd, spd",
    [
        (el.tensor_e, True, True),
        # indefinite unfolding despite the form being nonnegative
        (el.tensor_two_squares, False, False),
        (lambda: el.Elast4(np.zeros((3, 3, 3, 3))), True, False),
    ],
    ids=["E", "two-squares", "zero"],
)
def test_spsd_eigen_stage_record(make, spsd, spd):
    record = el.check(make()).stages[0]
    assert record["stage"] == "spsd-eigen"
    assert (record["spsd"], record["spd"]) == (spsd, spd)


@pytest.mark.parametrize(
    "t, dec, verdict, field, tag",
    [
        (el.tensor_e(), None, "MPD", "certified_mpd_by", "spsd-eigen"),
        (el.tensor_isotropic(-1.9, 1.0), None, "MPD", "certified_mpd_by", "pocs-mpd"),
        (el.tensor_two_squares(), None, "MPSD", "certified_mpsd_by", "pocs-mpsd"),
        (
            el.tensor_choi_lam(1.0),
            el.choi_lam_case2_decomposition(1.0),
            "MPSD",
            "certified_mpsd_by",
            "case2",
        ),
        (el.tensor_isotropic(-3.0, 0.1), None, "NotMPSD", "refuted_by", "oracle"),
    ],
    ids=["spsd-eigen", "pocs-mpd", "pocs-mpsd", "case2", "oracle"],
)
def test_check_deciding_stage(t, dec, verdict, field, tag):
    rep = el.check(t, dec)
    assert rep.verdict == verdict
    assert getattr(rep, field) == tag
    assert [s["stage"] for s in rep.stages] == [
        "spsd-eigen", "pocs-mpd", "pocs-mpsd", "case", "oracle"
    ]


def test_pocs_mpd_stage_carries_the_proved_margin():
    # isotropic(-1.9, 1) has form minimum min(mu, lambda + 2 mu) = 0.1
    stage = el.check(el.tensor_isotropic(-1.9, 1.0)).stages[1]
    assert stage["stage"] == "pocs-mpd"
    assert (stage["verdict"], stage["certified"]) == (el.VERDICT_MARGIN, True)
    assert 0.0 < stage["form_lower_bound"] <= 0.1
    # a stage that proves no margin has no such field
    for s in el.check(el.tensor_two_squares()).stages:
        assert "form_lower_bound" not in s


E3 = np.eye(3)


def _check_cli(t, dec, tmp_path, capsys):
    """check --decomp on t and dec: (exit code, JSON report, human lines)."""
    el.save_tensor(tmp_path / "t.json", t)
    el.save_decomposition(tmp_path / "d.json", dec.alphas, dec.mats)
    argv = ["check", "-i", str(tmp_path / "t.json"), "--decomp", str(tmp_path / "d.json")]
    code = cli.main([*argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert cli.main(argv) == code
    return code, doc, capsys.readouterr().out.splitlines()


def test_case_stage_agreeing_with_an_earlier_certificate(tmp_path, capsys):
    # case 3 with eta = 0.5^2: the unfolding is already PD, and case 3 agrees
    mats = [np.outer(E3[s], E3[(s + k) % 3]) for k in range(3) for s in range(3)]
    dec = el.StructuredDecomposition(np.array([1.0] * 9 + [-1.0]), np.stack(mats + [0.5 * E3]))
    t = el.tensor_from_rank_one_terms(dec.alphas, dec.mats)
    rep = el.check(t, dec)
    assert (rep.verdict, rep.certified_mpd_by) == ("MPD", "spsd-eigen")
    assert (rep.stages[3]["case_id"], rep.stages[3]["verdict"]) == (3, "MPD")
    code, doc, lines = _check_cli(t, dec, tmp_path, capsys)
    assert code == cli.EXIT_DECIDED
    assert (doc["verdict"], doc["certified_mpd_by"]) == ("MPD", "spsd-eigen")
    assert doc["stages"][3]["verdict"] == "MPD"
    assert lines[4].startswith("case 3: MPD (sup eta ")


def test_case_stage_of_a_decomposition_of_no_case_shape(tmp_path, capsys):
    mats = [np.outer(E3[s], E3[s]) for s in range(3)]
    mats += [np.outer(E3[0], E3[1]), np.outer(E3[1], E3[2])]
    dec = el.StructuredDecomposition(np.ones(5), np.stack(mats))
    t = el.tensor_from_rank_one_terms(dec.alphas, dec.mats)
    record = {"stage": "case", "r": 5, "q": 5, "skipped": "no matching shape"}
    assert el.check(t, dec).stages[3] == record
    code, doc, lines = _check_cli(t, dec, tmp_path, capsys)
    assert code == cli.EXIT_DECIDED
    assert doc["stages"][3] == record
    assert lines[4] == "case: (r, q) = (5, 5) -> no matching shape"


def test_check_without_a_decomposition_runs_no_case_checker(monkeypatch):
    # the case conditions test a given decomposition; check makes none up
    def forbidden(*args, **kwargs):
        raise AssertionError("called without a decomposition")

    names = ("spectral_decomposition", "check_case", "check_case1", "check_case2", "check_case3")
    for name in names:
        monkeypatch.setattr(cases, name, forbidden)
    for t in (el.tensor_e(), el.tensor_two_squares(), el.tensor_isotropic(-3.0, 0.1)):
        record = el.check(t).stages[3]
        assert record == {"stage": "case", "skipped": "no decomposition given"}


@pytest.mark.parametrize(
    "t",
    [
        el.tensor_isotropic(-2.5, 0.5),
        el.tensor_isotropic(-3.0, 0.1),
        el.random_tensor(np.random.default_rng(0)),
    ],
    ids=["iso-neg", "isotropic(-3,0.1)", "random-neg"],
)
def test_refutation_holds_at_every_scale(t):
    # form values scale with the tensor, so the tolerances of stage 1 and of
    # pocs-mpsd must too: an absolute floor certifies M-PSD at small scales,
    # a Conflict with the oracle's witness
    for scale in [2.0**k for k in range(-500, 501, 50)] + [1e-160, 1e-150]:
        rep = el.check(el.Elast4(scale * t.a))
        assert (rep.verdict, rep.refuted_by) == ("NotMPSD", "oracle"), scale


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-165, 1e-160, 1e-150, 1e150, 1e160, 1e200, 1e300])
def test_extreme_scales_end_in_no_false_certificate(scale):
    # stage 1 compares, and POCS iterates, at unit scale: no norm or gap
    # under- or overflows into a false certificate or an inf in the report
    tensors = {
        "iso-neg": el.tensor_isotropic(-3.0, 0.1),
        "E": el.tensor_e(),
        "two-squares": el.tensor_two_squares(),
        "choi-lam": el.tensor_choi_lam(1.0),
    }
    reps = {name: el.check(el.Elast4(scale * t.a)) for name, t in tensors.items()}
    assert (reps["iso-neg"].verdict, reps["iso-neg"].refuted_by) == ("NotMPSD", "oracle")
    assert (reps["E"].verdict, reps["E"].certified_mpd_by) == ("MPD", "spsd-eigen")
    for rep in reps.values():
        assert rep.verdict != "Conflict"
        el.dumps_report(vars(rep))


GALLERY = {
    "E": el.tensor_e(),
    "two-squares": el.tensor_two_squares(),
    "choi-lam(1.0)": el.tensor_choi_lam(1.0),
    "choi-lam(1.5)": el.tensor_choi_lam(1.5),
    "isotropic(1,1)": el.tensor_isotropic(1.0, 1.0),
    "isotropic(-1.9,1)": el.tensor_isotropic(-1.9, 1.0),
    "isotropic(-3,0.1)": el.tensor_isotropic(-3.0, 0.1),
    "random-spd(0)": el.random_spd_tensor(np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", GALLERY)
def test_stage_one_record_scales_exactly(name):
    # stage 1 solves the power-of-two rescale of the unfolding, the same
    # matrix for every 2**k multiple, and scales its eigenvalue back exactly
    t = GALLERY[name]
    want = el.check(t).stages[0]
    for k in (-1000, -600, 600, 1000):
        got = el.check(el.Elast4(np.ldexp(t.a, k))).stages[0]
        assert got == {**want, "min_eigenvalue": float(np.ldexp(want["min_eigenvalue"], k))}, k


def test_a_smallest_eigenvalue_past_the_float_range_is_typed():
    # the unfolding of minus the all-ones tensor times 8e307 has the
    # smallest eigenvalue -7.2e308, which no float holds
    with pytest.raises(el.NonFiniteEntries, match="smallest eigenvalue of the unfolding overflows"):
        el.check(el.make_elast4(np.full((3, 3, 3, 3), -8e307)))


NEAR_THE_FLOAT_LIMIT = [
    (lambda: el.tensor_isotropic(-3.0, 0.1), "NotMPSD"),
    (lambda: el.tensor_choi_lam(1.0), "Undecided"),
]


@pytest.mark.parametrize("make, verdict", NEAR_THE_FLOAT_LIMIT, ids=["iso-neg", "choi-lam"])
def test_a_pocs_report_beyond_the_float_range_skips_its_stage(make, verdict):
    # at max|a| = 8e307 the reference norm of either POCS report does not
    # fit a float; stage 1 and the oracle decide as they do at 4e307
    t = make()
    reps = {peak: el.check(el.Elast4(t.a / np.abs(t.a).max() * peak)) for peak in (4e307, 8e307)}
    assert reps[4e307].verdict == reps[8e307].verdict == verdict
    for stage in reps[8e307].stages[1:3]:
        assert stage == {"stage": stage["stage"], "skipped": "report overflows the float range"}
    assert [s["stage"] for s in reps[4e307].stages[1:3]] == ["pocs-mpd", "pocs-mpsd"]
    assert "skipped" not in reps[4e307].stages[1]


def test_check_rejects_a_decomposition_of_another_tensor():
    with pytest.raises(el.DecompositionMismatch):
        el.check(el.tensor_isotropic(-3.0, 0.1), el.choi_lam_case2_decomposition(1.0))


def _fake_refutation(t, n=2000):
    x = y = np.array([1.0, 0.0, 0.0])
    report = oracle.OracleReport(
        min_value=-1.0, argmin_x=x, argmin_y=y, grid_n=n, refined=True,
        objective_trace=(-1.0,),
    )
    return oracle.OracleVerdict(
        verdict=oracle.ORACLE_NOT_MPSD, report=report, scale=1.0, witness_value=-1.0,
    )


def test_conflict_trips_the_tripwire(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(oracle, "oracle_verdict", _fake_refutation)
    rep = el.check(el.tensor_e())
    assert rep.verdict == "Conflict"
    assert rep.certified_mpd_by == "spsd-eigen"
    assert rep.refuted_by == "oracle"

    path = tmp_path / "e.json"
    el.save_tensor(path, el.tensor_e(), name="E")
    assert cli.main(["check", "-i", str(path), "--json"]) == cli.EXIT_TRIPWIRE
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["verdict"] == "Conflict"
    assert doc["exit_code"] == 3
    assert "soundness tripwire" in err

    assert cli.main(["check", "-i", str(path)]) == cli.EXIT_TRIPWIRE
    out, _ = capsys.readouterr()
    assert "CONFLICT: certified by spsd-eigen but refuted by oracle" in out
    assert out.rstrip().endswith("verdict: Conflict")
