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
import sys
from pathlib import Path

import numpy as np

from . import cases, io, oracle, pocs
from .errors import (
    CaseShapeError,
    EllipticityError,
    ParseError,
    SoundnessTripwire,
    UnknownGenerator,
)
from .spectral import min_eigenvalue
from .tensors import (
    Elast4,
    tensor_choi_lam,
    tensor_e,
    tensor_isotropic,
    tensor_two_squares,
    random_spd_tensor,
    random_tensor,
    unfold,
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
    gen.add_argument("--gamma", type=float, default=1.0, help="choi-lam parameter")
    gen.add_argument(
        "--lambda", dest="lam", type=float, default=1.0, help="isotropic first modulus"
    )
    gen.add_argument("--mu", type=float, default=1.0, help="isotropic second modulus")
    gen.add_argument("--seed", type=int, default=0, help="seed for random generators")
    gen.add_argument("--output", "-o", help="write the tensor JSON here")
    gen.add_argument(
        "--decomp-output",
        help="also write the closed-form case-2 decomposition (choi-lam only)",
    )
    gen.set_defaults(func=_cmd_gen)

    def common(p, grid_default=2000):
        p.add_argument("--input", "-i", required=True, help="tensor JSON file")
        p.add_argument("--output", "-o", help="write the JSON report here")
        p.add_argument("--json", action="store_true", help="print JSON to stdout")
        p.add_argument("--tol", type=float, default=1e-8, help="certification tolerance")
        p.add_argument(
            "--grid-n", type=int, default=grid_default, help="sphere lattice size"
        )

    check = sub.add_parser("check", help="run the full certification pipeline")
    common(check)
    check.add_argument(
        "--epsilon", type=float, default=1e-6, help="strictness shift for the M-PD stage"
    )
    check.add_argument(
        "--max-iter", type=int, default=20000, help="alternating projection budget"
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
        "--tol", type=float, default=1e-10, help="relative convergence tolerance"
    )
    pocs_p.add_argument("--max-iter", type=int, default=20000)
    pocs_p.add_argument(
        "--epsilon", type=float, default=0.0, help="strictness shift (0 tests M-PSD)"
    )
    pocs_p.set_defaults(func=_cmd_pocs)

    case = sub.add_parser("case", help="structured-decomposition analysis")
    common(case, grid_default=20000)
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


def _load_tensor(path: str) -> tuple[Elast4, str | None]:
    try:
        return io.load_tensor(path)
    except FileNotFoundError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(args, doc: dict, human_lines: list[str]) -> None:
    text = io.dumps_report(doc)
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    if getattr(args, "json", False):
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
    t, name = _load_tensor(args.input)
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


def _load_decomposition_arg(args, t: Elast4) -> cases.StructuredDecomposition:
    if getattr(args, "decomp", None):
        alphas, mats = io.load_decomposition(args.decomp)
        return cases.StructuredDecomposition(alphas, mats)
    return cases.spectral_decomposition(t)


def _cmd_case(args) -> int:
    t, name = _load_tensor(args.input)
    dec = _load_decomposition_arg(args, t)
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
    t, name = _load_tensor(args.input)
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


def _cmd_check(args) -> int:
    t, name = _load_tensor(args.input)
    stages: list[dict] = []
    lines = [f"input: {args.input}" + (f" ({name})" if name else "")]

    mpd_by: str | None = None
    mpsd_by: str | None = None
    refuted_by: str | None = None

    # Stage 1: eigenvalue test of the unfolding. S-PSD is sufficient (not
    # necessary) for nonnegativity of the form; S-PD likewise for positivity.
    m = unfold(t)
    scale = max(1.0, float(np.linalg.norm(m)))
    lam_min = min_eigenvalue(m)
    spd = lam_min > 1e-10 * scale
    spsd = lam_min >= -1e-10 * scale
    stages.append(
        {"stage": "spsd-eigen", "min_eigenvalue": lam_min, "spsd": spsd, "spd": spd}
    )
    lines.append(
        f"spsd-eigen: min unfolding eigenvalue {lam_min:.6e}"
        + (" -> S-PD" if spd else (" -> S-PSD" if spsd else " -> indefinite"))
    )
    if spd:
        mpd_by = mpsd_by = "spsd-eigen"
    elif spsd:
        mpsd_by = "spsd-eigen"

    # Stage 2: alternating projections on the strictness-shifted tensor.
    if mpd_by is None:
        res = pocs.certify_mpd(
            t,
            pocs.PocsOptions(max_iter=args.max_iter, epsilon_shift=args.epsilon),
        )
        rep = res.report
        stages.append(
            {
                "stage": "pocs-mpd",
                "epsilon": res.epsilon,
                "verdict": rep.verdict,
                "iterations": rep.iterations,
                "final_gap": rep.final_gap,
                "certified": res.certified,
            }
        )
        lines.append(
            f"pocs-mpd (epsilon {res.epsilon:g}): {rep.verdict} after "
            f"{rep.iterations} sweeps, final gap {rep.final_gap:.3e}"
            + (" -> certified M-PD" if res.certified else " -> not certified")
        )
        if res.certified:
            mpd_by = "pocs-mpd"
            mpsd_by = mpsd_by or "pocs-mpd"
    else:
        stages.append({"stage": "pocs-mpd", "skipped": "already certified"})
        lines.append("pocs-mpd: skipped (already certified)")

    # Stage 3: alternating projections on the tensor itself.
    if mpsd_by is None:
        res = pocs.certify_mpsd(t, pocs.PocsOptions(max_iter=args.max_iter))
        rep = res.report
        stages.append(
            {
                "stage": "pocs-mpsd",
                "verdict": rep.verdict,
                "iterations": rep.iterations,
                "final_gap": rep.final_gap,
                "certified": res.certified,
            }
        )
        lines.append(
            f"pocs-mpsd: {rep.verdict} after {rep.iterations} sweeps, final gap "
            f"{rep.final_gap:.3e}"
            + (" -> certified M-PSD" if res.certified else " -> not certified")
        )
        if res.certified:
            mpsd_by = "pocs-mpsd"
    else:
        stages.append({"stage": "pocs-mpsd", "skipped": "already certified"})
        lines.append("pocs-mpsd: skipped (already certified)")

    # Stage 4: structured-case analysis on the supplied or spectral terms.
    dec = _load_decomposition_arg(args, t)
    case_rep = cases.check_case(dec, "auto", args.tol, max(args.grid_n, 20000))
    if case_rep is None:
        stages.append(
            {"stage": "case", "r": dec.r, "q": dec.q, "skipped": "no matching shape"}
        )
        lines.append(f"case: (r, q) = ({dec.r}, {dec.q}) -> no matching shape")
    else:
        stage = {"stage": "case", "r": dec.r, "q": dec.q}
        stage.update(cases.case_report_to_doc(case_rep))
        stages.append(stage)
        lines.append(
            f"case {case_rep.case_id}: {case_rep.verdict}"
            + (
                f" (sup eta {case_rep.eta_sup:.9g} vs threshold {case_rep.threshold:.9g})"
                if case_rep.eta_sup is not None
                else ""
            )
        )
        tag = f"case{case_rep.case_id}"
        if case_rep.verdict == cases.CASE_MPD:
            mpd_by = mpd_by or tag
            mpsd_by = mpsd_by or tag
        elif case_rep.verdict == cases.CASE_MPSD:
            mpsd_by = mpsd_by or tag
        elif case_rep.verdict == cases.CASE_NOT_MPSD:
            refuted_by = refuted_by or tag

    # Stage 5: the independent brute-force check always runs last.
    ov = oracle.oracle_verdict(t, n=args.grid_n, tol=args.tol)
    stage = {"stage": "oracle"}
    stage.update(oracle.oracle_verdict_to_doc(ov))
    stages.append(stage)
    lines.append(
        f"oracle (n={args.grid_n}): min form value {ov.report.min_value:.6e} "
        f"-> {ov.verdict}"
    )
    if ov.verdict == oracle.ORACLE_NOT_MPSD:
        refuted_by = refuted_by or "oracle"

    conflict = (mpsd_by is not None or mpd_by is not None) and refuted_by is not None
    if conflict:
        verdict = "Conflict"
        code = EXIT_TRIPWIRE
        lines.append(
            f"CONFLICT: certified by {mpd_by or mpsd_by} but refuted by {refuted_by}; "
            "this indicates a bug or a violated tolerance"
        )
    elif refuted_by is not None:
        verdict, code = "NotMPSD", EXIT_DECIDED
    elif mpd_by is not None:
        verdict, code = "MPD", EXIT_DECIDED
    elif mpsd_by is not None:
        verdict, code = "MPSD", EXIT_DECIDED
    else:
        verdict, code = "Undecided", EXIT_UNDECIDED
    lines.append(f"verdict: {verdict}")

    doc = {
        "command": "check",
        "input": args.input,
        "name": name,
        "tol": args.tol,
        "grid_n": args.grid_n,
        "epsilon": args.epsilon,
        "stages": stages,
        "certified_mpd_by": mpd_by,
        "certified_mpsd_by": mpsd_by,
        "refuted_by": refuted_by,
        "verdict": verdict,
        "exit_code": code,
    }
    _emit(args, doc, lines)
    if conflict:
        raise SoundnessTripwire(
            f"certificate from {mpd_by or mpsd_by} contradicts {refuted_by}"
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
    except (ParseError, CaseShapeError, UnknownGenerator) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except EllipticityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
