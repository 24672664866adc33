"""Command line front end.

Subcommands:

* gen     -- write one of the bundled example tensors as JSON
* check   -- full certification pipeline with an independent grid cross-check;
             its case stage runs only on a --decomp file
* pocs    -- raw alternating-projection run against the S-PSD cone
* case    -- structured-decomposition analysis of a --decomp file (required):
             the case 1, 2 or 3 checker whose shape (r, q) it has
* oracle  -- brute-force grid + refinement minimizer of the biquadratic form

A --decomp file must describe the --input tensor: a decomposition of
another tensor is bad input. check, case and oracle take no numeric option:
their lattices are oracle.GRID_N and cases.GRID_N points, and check's POCS
stages run at the defaults of certify_mpd and certify_mpsd. pocs takes one,
--epsilon, the shift of its run; its tolerance and sweep budget are
pocs.TOL_CONVERGE and pocs.MAX_SWEEPS.

Exit codes: 0 a definite verdict was reached, 1 bad input, 2 undecided,
3 internal contradiction between a certificate and the brute-force check
(which indicates a bug or a violated tolerance, never a valid state).

Reports are emitted as deterministic JSON (sorted keys, no timestamps), so
identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import cases, io, oracle, pipeline, pocs
from .errors import EllipticityError, SoundnessTripwire, UnknownGenerator
# Not called here; elbench/layers.py wraps these two names in cli.
from .spectral import min_eigenvalue  # noqa: F401
from .tensors import (
    tensor_choi_lam,
    tensor_e,
    tensor_isotropic,
    tensor_two_squares,
    random_spd_tensor,
    random_tensor,
    unfold,  # noqa: F401
)

EXIT_DECIDED = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2
EXIT_TRIPWIRE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _checked(convert, low=None):
    """An argparse type: convert the text, then require a finite value that is
    at least low. Failures reach _Parser.error."""

    def parse(text: str):
        value = convert(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not finite")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not >= {low}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_FINITE = _checked(float)
_NONNEGATIVE = _checked(float, 0.0)
_SEED = _checked(int, 0)

# Generator name -> builder of (tensor, label) from the parsed gen arguments.
_GENERATORS = {
    "E": lambda a: (tensor_e(), "E"),
    "choi-lam": lambda a: (tensor_choi_lam(a.gamma), f"choi-lam(gamma={a.gamma:g})"),
    "isotropic": lambda a: (
        tensor_isotropic(a.lam, a.mu),
        f"isotropic(lambda={a.lam:g},mu={a.mu:g})",
    ),
    "counterexample-s2": lambda a: (tensor_two_squares(), "counterexample-s2"),
    "random-spd": lambda a: (
        random_spd_tensor(np.random.default_rng(a.seed)),
        f"random-spd(seed={a.seed})",
    ),
    "random": lambda a: (
        random_tensor(np.random.default_rng(a.seed)),
        f"random(seed={a.seed})",
    ),
}


# Built once per process, so in-process callers of main do not rebuild it
# per call: parse_args leaves the parser unchanged and returns a fresh
# namespace every time.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ellipticity-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen",
        help="write a bundled example tensor as JSON",
        description=f"Generators: {', '.join(_GENERATORS)}.",
    )
    gen.add_argument("name", help="generator name")
    gen.add_argument("--gamma", type=_FINITE, default=1.0, help="choi-lam parameter")
    gen.add_argument(
        "--lambda", dest="lam", type=_FINITE, default=1.0, help="isotropic first modulus"
    )
    gen.add_argument("--mu", type=_FINITE, default=1.0, help="isotropic second modulus")
    gen.add_argument("--seed", type=_SEED, default=0, help="seed for random generators")
    gen.add_argument("--output", "-o", help="write the tensor JSON here")
    gen.add_argument(
        "--decomp-output",
        help="also write the closed-form case-2 decomposition (choi-lam only)",
    )
    gen.set_defaults(func=_cmd_gen)

    def common(p):
        p.add_argument("--input", "-i", required=True, help="tensor JSON file")
        p.add_argument("--output", "-o", help="write the JSON report here")
        p.add_argument("--json", action="store_true", help="print JSON to stdout")

    check = sub.add_parser("check", help="run the full certification pipeline")
    common(check)
    check.add_argument(
        "--decomp", help="decomposition JSON for the structured-case stage"
    )
    check.set_defaults(func=_cmd_check)

    pocs_p = sub.add_parser("pocs", help="raw alternating projection run")
    common(pocs_p)
    pocs_p.add_argument(
        "--epsilon", type=_NONNEGATIVE, default=0.0, help="strictness shift (0 tests M-PSD)"
    )
    pocs_p.set_defaults(func=_cmd_pocs)

    case = sub.add_parser("case", help="structured-decomposition analysis")
    common(case)
    case.add_argument("--decomp", required=True, help="decomposition JSON")
    case.set_defaults(func=_cmd_case)

    orc = sub.add_parser("oracle", help="brute-force minimization of the form")
    common(orc)
    orc.set_defaults(func=_cmd_oracle)

    return parser


def _emit(args, doc: dict, human_lines: list[str]) -> None:
    output, as_json = getattr(args, "output", None), getattr(args, "json", False)
    # Serialise only when asked to: a report the JSON encoder rejects (say
    # an inf) must not stop the human-readable lines.
    text = io.dumps_report(doc) if output or as_json else None
    if output:
        Path(output).write_text(text)
    if as_json:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


def _cmd_gen(args) -> int:
    name = args.name
    if name not in _GENERATORS:
        raise UnknownGenerator(
            f"unknown generator {name!r}; choose from {', '.join(_GENERATORS)}"
        )
    t, label = _GENERATORS[name](args)
    if args.decomp_output:
        if name != "choi-lam":
            raise UnknownGenerator("--decomp-output is only available for choi-lam")
        dec = cases.choi_lam_case2_decomposition(args.gamma)
        io.save_decomposition(args.decomp_output, dec.alphas, dec.mats)
    doc = io.tensor_to_doc(t, name=label)
    text = io.dumps_report(doc)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {label} to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_DECIDED


def _load_input(args, command: str):
    """The --input tensor, and the opening of its report: the document's
    command, input and name fields, and the human-readable input line."""
    t, name = io.load_tensor(args.input)
    doc = {"command": command, "input": args.input, "name": name}
    return t, doc, [f"input: {args.input}" + (f" ({name})" if name else "")]


def _cmd_pocs(args) -> int:
    t, doc, lines = _load_input(args, "pocs")
    rep = pocs.run_pocs(t, pocs.PocsOptions(epsilon_shift=args.epsilon))
    doc.update(pocs.pocs_report_to_doc(rep))
    lines.append(
        f"verdict: {rep.verdict} after {rep.iterations} sweeps, "
        f"final gap {rep.final_gap:.6e} (threshold {rep.converge_threshold:.6e})"
        + (
            f", separation margin {rep.separation_margin:.6e}"
            if rep.separation_margin is not None
            else ""
        )
        + (
            f", form lower bound {rep.form_lower_bound:.6e}"
            if rep.form_lower_bound is not None
            else ""
        )
    )
    _emit(args, doc, lines)
    return EXIT_DECIDED if rep.verdict != pocs.VERDICT_INCONCLUSIVE else EXIT_UNDECIDED


def _load_decomposition(path) -> cases.StructuredDecomposition:
    return cases.StructuredDecomposition(*io.load_decomposition(path))


def _cmd_case(args) -> int:
    t, doc, lines = _load_input(args, "case")
    dec = _load_decomposition(args.decomp)
    cases.require_decomposition_of(t, dec)
    rep = cases.check_case(dec)
    if rep is None:
        doc.update(r=dec.r, q=dec.q, verdict="NoMatchingShape")
        _emit(
            args,
            doc,
            [f"decomposition has (r, q) = ({dec.r}, {dec.q}); no case shape matches"],
        )
        return EXIT_UNDECIDED
    doc.update(cases.case_report_to_doc(rep))
    if rep.eta_sup is not None:
        lines.append(
            f"case {rep.case_id}: sup eta = {rep.eta_sup:.12g}, "
            f"threshold = {rep.threshold:.12g}"
        )
    if rep.C_matrix is not None:
        lines.append(f"case 1: min eig C = {rep.diagnostics['min_eig_C']:.6e}")
    lines.append(f"verdict: {rep.verdict}" + (" (boundary)" if rep.boundary else ""))
    _emit(args, doc, lines)
    decided = rep.verdict in (cases.CASE_MPSD, cases.CASE_MPD, cases.CASE_NOT_MPSD)
    return EXIT_DECIDED if decided else EXIT_UNDECIDED


def _cmd_oracle(args) -> int:
    t, doc, lines = _load_input(args, "oracle")
    ov = oracle.oracle_verdict(t)
    doc.update(oracle.oracle_verdict_to_doc(ov))
    rep = ov.report
    lines += [
        f"grid n={rep.grid_n}: min form value {rep.min_value:.6e}",
        f"argmin x = {np.array2string(rep.argmin_x, precision=6)}",
        f"argmin y = {np.array2string(rep.argmin_y, precision=6)}",
        f"verdict: {ov.verdict}",
    ]
    _emit(args, doc, lines)
    return EXIT_DECIDED if ov.verdict == oracle.ORACLE_NOT_MPSD else EXIT_UNDECIDED


def _g9(x) -> str:
    """A report number to 9 digits; a string (a non-finite float's repr in a
    case document) as it is."""
    return x if isinstance(x, str) else f"{x:.9g}"


def _stage_line(s: dict) -> str:
    """One human-readable line for a stage record of pipeline.check."""
    name = s["stage"]
    if "skipped" in s:
        if "r" in s:
            return f"case: (r, q) = ({s['r']}, {s['q']}) -> no matching shape"
        return f"{name}: skipped ({s['skipped']})"
    if name == "case":
        return f"case {s['case_id']}: {s['verdict']}" + (
            f" (sup eta {_g9(s['eta_sup'])} vs threshold {_g9(s['threshold'])})"
            if s["eta_sup"] is not None
            else ""
        )
    if name == "spsd-eigen":
        kind = "S-PD" if s["spd"] else ("S-PSD" if s["spsd"] else "indefinite")
        return f"spsd-eigen: min unfolding eigenvalue {s['min_eigenvalue']:.6e} -> {kind}"
    if name == "oracle":
        rep = s["report"]
        return (
            f"oracle (n={rep['grid_n']}): min form value {rep['min_value']:.6e} "
            f"-> {s['verdict']}"
        )
    label = f"{name} (epsilon {s['epsilon']:g})" if "epsilon" in s else name
    target = "M-PD" if name == "pocs-mpd" else "M-PSD"
    return (
        f"{label}: {s['verdict']} after {s['iterations']} sweeps, final gap "
        f"{s['final_gap']:.3e}"
        + (
            f", form lower bound {s['form_lower_bound']:.3e}"
            if "form_lower_bound" in s
            else ""
        )
        + (f" -> certified {target}" if s["certified"] else " -> not certified")
    )


def _cmd_check(args) -> int:
    t, doc, lines = _load_input(args, "check")
    dec = _load_decomposition(args.decomp) if args.decomp else None
    rep = pipeline.check(t, dec)
    lines += [_stage_line(s) for s in rep.stages]
    certified_by = rep.certified_mpd_by or rep.certified_mpsd_by
    if rep.verdict == "Conflict":
        lines.append(
            f"CONFLICT: certified by {certified_by} but refuted by {rep.refuted_by}; "
            "this indicates a bug or a violated tolerance"
        )
    lines.append(f"verdict: {rep.verdict}")
    code = {"Conflict": EXIT_TRIPWIRE, "Undecided": EXIT_UNDECIDED}.get(
        rep.verdict, EXIT_DECIDED
    )
    doc.update({"grid_n": oracle.GRID_N, **vars(rep), "exit_code": code})
    _emit(args, doc, lines)
    if rep.verdict == "Conflict":
        raise SoundnessTripwire(
            f"certificate from {certified_by} contradicts {rep.refuted_by}"
        )
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SoundnessTripwire as exc:
        sys.stderr.write(f"soundness tripwire: {exc}\n")
        return EXIT_TRIPWIRE
    except EllipticityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
