"""Command line front end.

Subcommands:

* gen     -- write one of the bundled example tensors as JSON
* check   -- full certification pipeline with an independent grid cross-check
* pocs    -- raw alternating-projection run against the S-PSD cone
* case    -- structured-decomposition analysis (shapes 1, 2, 3)
* oracle  -- brute-force grid + refinement minimizer of the biquadratic form

Exit codes: 0 a definite verdict was reached, 1 bad input, 2 undecided,
3 internal contradiction between a certificate and the brute-force check
(which indicates a bug or a violated tolerance, never a valid state).

Reports are emitted as deterministic JSON (sorted keys, no timestamps), so
identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
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


def _checked(convert, low=None, strict=False):
    """An argparse type: convert the text, then require a finite value that
    is at least low (above it if strict). Failures reach _Parser.error."""

    def parse(text: str):
        value = convert(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not finite")
        if low is not None and (value <= low if strict else value < low):
            relation = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"{text!r} is not {relation} {low}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_FINITE = _checked(float)
_POSITIVE = _checked(float, 0.0, strict=True)
_NONNEGATIVE = _checked(float, 0.0)
_COUNT = _checked(int, 1)
_SEED = _checked(int, 0)
_LATTICE_N = _checked(int, oracle.MIN_GRID_N)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ellipticity-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen",
        help="write a bundled example tensor as JSON",
        description="Generators: E, choi-lam, isotropic, counterexample-s2, "
        "random-spd, random.",
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

    def common(p, grid_type=_LATTICE_N, grid_default=2000):
        p.add_argument("--input", "-i", required=True, help="tensor JSON file")
        p.add_argument("--output", "-o", help="write the JSON report here")
        p.add_argument("--json", action="store_true", help="print JSON to stdout")
        p.add_argument("--tol", type=_POSITIVE, default=1e-8, help="certification tolerance")
        p.add_argument(
            "--grid-n", type=grid_type, default=grid_default, help="sphere lattice size"
        )

    check = sub.add_parser("check", help="run the full certification pipeline")
    common(check)
    check.add_argument(
        "--epsilon", type=_POSITIVE, default=1e-6, help="strictness shift for the M-PD stage"
    )
    check.add_argument(
        "--max-iter", type=_COUNT, default=20000, help="alternating projection budget"
    )
    check.add_argument(
        "--decomp", help="decomposition JSON for the structured-case stage"
    )
    check.set_defaults(func=_cmd_check)

    pocs_p = sub.add_parser("pocs", help="raw alternating projection run")
    pocs_p.add_argument("--input", "-i", required=True, help="tensor JSON file")
    pocs_p.add_argument("--output", "-o", help="write the JSON report here")
    pocs_p.add_argument("--json", action="store_true", help="print JSON to stdout")
    pocs_p.add_argument(
        "--tol", type=_POSITIVE, default=1e-10, help="relative convergence tolerance"
    )
    pocs_p.add_argument("--max-iter", type=_COUNT, default=20000)
    pocs_p.add_argument(
        "--epsilon", type=_NONNEGATIVE, default=0.0, help="strictness shift (0 tests M-PSD)"
    )
    pocs_p.set_defaults(func=_cmd_pocs)

    case = sub.add_parser("case", help="structured-decomposition analysis")
    common(case, _COUNT, 20000)
    case.add_argument("--decomp", help="decomposition JSON (default: eigendecomposition)")
    case.add_argument(
        "--case",
        choices=("auto", "1", "2", "3"),
        default="auto",
        help="force a particular shape instead of dispatching on (r, q)",
    )
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
    rng = np.random.default_rng(args.seed)
    name = args.name
    if name == "E":
        t, label = tensor_e(), "E"
    elif name == "choi-lam":
        t, label = tensor_choi_lam(args.gamma), f"choi-lam(gamma={args.gamma:g})"
    elif name == "isotropic":
        t = tensor_isotropic(args.lam, args.mu)
        label = f"isotropic(lambda={args.lam:g},mu={args.mu:g})"
    elif name == "counterexample-s2":
        t, label = tensor_two_squares(), "counterexample-s2"
    elif name == "random-spd":
        t, label = random_spd_tensor(rng), f"random-spd(seed={args.seed})"
    elif name == "random":
        t, label = random_tensor(rng), f"random(seed={args.seed})"
    else:
        raise UnknownGenerator(
            f"unknown generator {name!r}; choose from E, choi-lam, isotropic, "
            "counterexample-s2, random-spd, random"
        )
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


def _cmd_pocs(args) -> int:
    t, name = io.load_tensor(args.input)
    opts = pocs.PocsOptions(
        max_iter=args.max_iter,
        tol_converge=args.tol,
        epsilon_shift=args.epsilon,
    )
    rep = pocs.run_pocs(t, opts)
    doc = {"command": "pocs", "input": args.input, "name": name}
    doc.update(pocs.pocs_report_to_doc(rep))
    lines = [
        f"input: {args.input}" + (f" ({name})" if name else ""),
        f"verdict: {rep.verdict} after {rep.iterations} sweeps, "
        f"final gap {rep.final_gap:.6e} (threshold {rep.converge_threshold:.6e})",
    ]
    _emit(args, doc, lines)
    return EXIT_DECIDED if rep.verdict != pocs.VERDICT_INCONCLUSIVE else EXIT_UNDECIDED


def _load_decomposition_arg(args) -> cases.StructuredDecomposition | None:
    if args.decomp:
        return cases.StructuredDecomposition(*io.load_decomposition(args.decomp))
    return None


def _cmd_case(args) -> int:
    t, name = io.load_tensor(args.input)
    dec = _load_decomposition_arg(args) or cases.spectral_decomposition(t)
    rep = cases.check_case(dec, args.case, args.tol, args.grid_n)
    if rep is None:
        doc = {
            "command": "case",
            "input": args.input,
            "name": name,
            "r": dec.r,
            "q": dec.q,
            "verdict": "NoMatchingShape",
        }
        _emit(
            args,
            doc,
            [f"decomposition has (r, q) = ({dec.r}, {dec.q}); no case shape matches"],
        )
        return EXIT_UNDECIDED
    doc = {"command": "case", "input": args.input, "name": name}
    doc.update(cases.case_report_to_doc(rep))
    lines = [f"input: {args.input}" + (f" ({name})" if name else "")]
    if rep.eta_sup is not None:
        lines.append(
            f"case {rep.case_id}: sup eta = {rep.eta_sup:.12g}, "
            f"threshold = {rep.threshold:.12g}"
        )
    if rep.C_matrix is not None:
        lines.append(
            f"case 1: min eig C = {np.linalg.eigvalsh(rep.C_matrix)[0]:.6e}"
        )
    lines.append(f"verdict: {rep.verdict}" + (" (boundary)" if rep.boundary else ""))
    _emit(args, doc, lines)
    decided = rep.verdict in (cases.CASE_MPSD, cases.CASE_MPD, cases.CASE_NOT_MPSD)
    return EXIT_DECIDED if decided else EXIT_UNDECIDED


def _cmd_oracle(args) -> int:
    t, name = io.load_tensor(args.input)
    ov = oracle.oracle_verdict(t, n=args.grid_n, tol=args.tol)
    doc = {"command": "oracle", "input": args.input, "name": name}
    doc.update(oracle.oracle_verdict_to_doc(ov))
    rep = ov.report
    lines = [
        f"input: {args.input}" + (f" ({name})" if name else ""),
        f"grid n={rep.grid_n}: min form value {rep.min_value:.6e}",
        f"argmin x = {np.array2string(rep.argmin_x, precision=6)}",
        f"argmin y = {np.array2string(rep.argmin_y, precision=6)}",
        f"verdict: {ov.verdict}",
    ]
    _emit(args, doc, lines)
    return EXIT_DECIDED if ov.verdict == oracle.ORACLE_NOT_MPSD else EXIT_UNDECIDED


def _stage_line(s: dict) -> str:
    """One human-readable line for a stage record of pipeline.check."""
    name = s["stage"]
    if name == "case":
        if "skipped" in s:
            return f"case: (r, q) = ({s['r']}, {s['q']}) -> no matching shape"
        return f"case {s['case_id']}: {s['verdict']}" + (
            f" (sup eta {s['eta_sup']:.9g} vs threshold {s['threshold']:.9g})"
            if s["eta_sup"] is not None
            else ""
        )
    if "skipped" in s:
        return f"{name}: skipped ({s['skipped']})"
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
        + (f" -> certified {target}" if s["certified"] else " -> not certified")
    )


def _cmd_check(args) -> int:
    t, name = io.load_tensor(args.input)
    rep = pipeline.check(
        t,
        _load_decomposition_arg(args),
        tol=args.tol,
        grid_n=args.grid_n,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
    )
    lines = [f"input: {args.input}" + (f" ({name})" if name else "")]
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
    doc = {
        "command": "check",
        "input": args.input,
        "name": name,
        "tol": args.tol,
        "grid_n": args.grid_n,
        "epsilon": args.epsilon,
        **vars(rep),
        "exit_code": code,
    }
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
