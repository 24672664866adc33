"""One operation per pool item, through the library's public entry points.

Each operation returns an Outcome: its class (decided / undecided / failed),
the verdict it reached, and the verdict-bearing bytes that go into the
workload digest. An operation fails when it raises an untyped exception,
ends in Conflict or a SoundnessTripwire, or returns a verdict that
contradicts its reference.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
from dataclasses import dataclass

import numpy as np

from refs import MPD, MPSD, NOT_MPSD

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"

# Which truth classes each claimed verdict is consistent with: an M-PSD
# claim is true of an M-PD form, the converse is not.
CONSISTENT = {MPD: {MPD}, MPSD: {MPD, MPSD}, NOT_MPSD: {NOT_MPSD}}


@dataclass(frozen=True)
class Outcome:
    status: str
    verdict: str
    output: bytes


def judge(verdict: str, truth: str) -> str:
    if verdict in CONSISTENT:
        return DECIDED if truth in CONSISTENT[verdict] else FAILED
    return UNDECIDED


def _json_float(v) -> str:
    return "null" if v is None else repr(float(v))


# ---------------------------------------------------------------------------
# check-mix: the CLI entry point, in-process, on files written at set-up


def write_inputs(items, directory: str) -> list[list[str]]:
    """Write tensor (and decomposition) files; return the argv of each check.

    File names are relative, so the canonical report bytes do not depend on
    where the checkout lives. The writer is the benchmark's own, from the
    documented elast4-v1 and decomp-v1 formats.
    """
    argvs = []
    for it in items:
        entries = [
            {"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": float(it.a[i, j, k, l])}
            for i, j, k, l in np.ndindex(3, 3, 3, 3)
            if it.a[i, j, k, l] != 0.0
        ]
        name = f"{it.label}.json"
        with open(os.path.join(directory, name), "w") as fh:
            json.dump({"format": "elast4-v1", "name": it.label, "entries": entries}, fh)
        argv = ["check", "-i", name, "--json"]
        if it.dec is not None:
            alphas, mats = it.dec
            terms = [
                {"alpha": float(al), "U": [float(u) for u in m.reshape(9)]}
                for al, m in zip(alphas, mats)
            ]
            dname = f"{it.label}.decomp.json"
            with open(os.path.join(directory, dname), "w") as fh:
                json.dump({"format": "decomp-v1", "terms": terms}, fh)
            argv += ["--decomp", dname]
        argvs.append(argv)
    return argvs


def make_check(cli, argv, truth):
    def op() -> Outcome:
        out, err = _stdio.StringIO(), _stdio.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an untyped exception escaped the CLI
            return Outcome(FAILED, f"raised {type(exc).__name__}", type(exc).__name__.encode())
        text = out.getvalue()
        if code == 1:  # a typed EllipticityError, reported on stderr
            return Outcome(UNDECIDED, "InputError", err.getvalue().encode())
        verdict = json.loads(text)["verdict"]
        if verdict == "Conflict":
            return Outcome(FAILED, verdict, text.encode())
        return Outcome(judge(verdict, truth), verdict, text.encode())

    return op


# ---------------------------------------------------------------------------
# pocs-certify and case-sup: the Python API


def make_pocs(el, t, kind: str, truth: str):
    opts = el.PocsOptions(epsilon_shift=1e-6) if kind == "mpd" else None
    entry = f"certify_{kind}"

    def op() -> Outcome:
        try:
            # Looked up per call, so that a traced run sees its wrappers.
            res = getattr(el.pocs, entry)(t, opts)
        except el.EllipticityError as exc:
            return Outcome(UNDECIDED, type(exc).__name__, type(exc).__name__.encode())
        except Exception as exc:
            return Outcome(FAILED, f"raised {type(exc).__name__}", type(exc).__name__.encode())
        rep = res.report
        text = (
            f"{kind} {rep.verdict} {res.certified} {rep.iterations} "
            f"{_json_float(rep.final_gap)}"
        )
        if not res.certified:
            return Outcome(UNDECIDED, rep.verdict, text.encode())
        return Outcome(judge(MPD if kind == "mpd" else MPSD, truth), rep.verdict, text.encode())

    return op


def make_case(el, dec, kind: str, truth: str):
    entry = f"check_case{kind}"

    def op() -> Outcome:
        try:
            rep = getattr(el.cases, entry)(dec)
        except el.EllipticityError as exc:
            return Outcome(UNDECIDED, type(exc).__name__, type(exc).__name__.encode())
        except Exception as exc:
            return Outcome(FAILED, f"raised {type(exc).__name__}", type(exc).__name__.encode())
        text = f"case{kind} {rep.verdict} {_json_float(rep.eta_sup)} {rep.boundary}"
        return Outcome(judge(rep.verdict, truth), rep.verdict, text.encode())

    return op
