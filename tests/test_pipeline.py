"""The check pipeline in-process: stage records, deciding stages, the tripwire."""

import json

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cli, oracle


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


def _fake_refutation(t, n=2000, tol=1e-8):
    x = y = np.array([1.0, 0.0, 0.0])
    report = oracle.OracleReport(
        min_value=-1.0, argmin_x=x, argmin_y=y, grid_n=n, refined=True,
        objective_trace=(-1.0,),
    )
    return oracle.OracleVerdict(
        verdict=oracle.ORACLE_NOT_MPSD, report=report, scale=1.0, tol=tol,
        witness_value=-1.0,
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
