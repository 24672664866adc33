"""Time the spectral layer, the POCS sweep, the oracle, the case-2 supremum,
the case-2/3 ascent, the case structure tests, JSON load and emit, a whole
check and a check on near-boundary input; print one JSON object.

Usage: python3 scripts/bench_layers.py [--repeats 15] [--against DIR]

Each figure is the median over repeats. Per call: psd_project,
min_eigenvalue and eigenvalue_bounds, CALLS times on each unfolding of the
gallery tensors (scripts/certify_gallery.py). Per POCS run, unshifted and
shifted by 1e-6, over the gallery tensors: the wall time of run_pocs, the
kept sweeps (the report's iterations) and the eigensolves (_psd_clamp
calls, rejected extrapolated sweeps included); and that time per kept
sweep. A sweep from an extrapolated start costs more than a plain one and
runs take far fewer of them, so the per-sweep figure is read next to the
per-run ones. Per oracle call: the lattice scan
(grid_top_candidates as oracle_verdict runs it) on each gallery tensor,
refine_min from each of their basins, with the trace entries per refinement,
and a whole oracle_verdict on each gallery tensor. The scan and the verdict
are also timed cold, each call right after one pass that writes 8 MB, since
elbench's probe leaves the caches cold before every op and hot repeats hide
that cost; scans that skip rows and scans that evaluate every row apart.
Per case-2 decomposition of the gallery: the sup_eta grid, the eta_many that
check_case hands to cases.sup_eta on the cases.GRID_N-point hemisphere, and a
whole check_case call. Per ascent: every cases._ascend that check_case runs
on those decompositions and on the interior case-3 decomposition of
case3_decomposition(0.5), replayed with the arguments it was given, and the
eta, gradient and Hessian evaluations per ascent. Per structure test: each
check_case call on those decompositions and on case1_decomposition(-0.4)
outside its sup_eta, whose results are replayed from a first run. Per file:
load_tensor on the gallery tensors written by save_tensor, and dumps_report
on their check reports (the stages and verdicts that check --json writes). End to end: the
µs per in-process check(t, dec) over the gallery, with its decompositions.
Near the boundary: the µs per check(t) on BOUNDARY_TENSORS fixed random
tensors at each margin of BOUNDARY_MARGINS (boundary_tensors), with the
POCS sweeps per run and the verdicts; a check there took up to ~1 s before
the POCS sweeps were extrapolated, so this group runs one repeat for every
BOUNDARY_REPEAT_SHARE of the others, and at least one.
Each group of layers (GROUPS) runs in a fresh interpreter, so that no
group's figure depends on the allocator state another group leaves behind.
The object also carries the Python, numpy, BLAS and machine details the
figures depend on. BLAS runs on one thread unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS says otherwise.

With --against DIR the script measures PAIRS times on the library of this
checkout and PAIRS times on DIR/src, alternating which goes first, and
prints each layer's ratio this / DIR: the median over the pairs, its
quartiles, and the pairs where this tree's figure is the lower; and the
boundary group's check verdicts on each tree.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ellipticity_lab as el  # noqa: E402
from ellipticity_lab import cases, oracle, pocs  # noqa: E402
from ellipticity_lab.spectral import eigenvalue_bounds  # noqa: E402
from certify_gallery import gallery  # noqa: E402

# Calls of each function per matrix and repeat.
CALLS = 200
# Loads and emits of each gallery file per repeat.
FILE_CALLS = 20
# Runs of each tree under --against.
PAIRS = 10
# The boundary group: its margins m (label: value), the random tensors per
# margin, and the repeats it takes per repeat of the other groups.
BOUNDARY_MARGINS = {"1e-2": 1e-2, "1e-3": 1e-3, "1e-4": 1e-4, "0": 0.0, "-1e-3": -1e-3}
BOUNDARY_TENSORS = 3
BOUNDARY_REPEAT_SHARE = 5
# Bytes written before each cold call: twice the 4 MB L2 cache of the
# reference machine (see cold_us).
EVICT_BYTES = 8 << 20
SRC = Path(__file__).resolve().parents[1] / "src"
# The library this process imported, which each group's interpreter imports.
LIB = Path(el.__file__).resolve().parents[1]


def us_per_call(fn, mats, repeats):
    """Median over repeats of the mean time of fn on each matrix, in µs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(CALLS):
            for m in mats:
                fn(m)
        times.append((time.perf_counter() - start) / (CALLS * len(mats)))
    return 1e6 * statistics.median(times)


def pocs_runs(tensors, repeats):
    """Median over repeats of the µs per run and per kept sweep over every
    run of run_pocs on tensors, unshifted and shifted by 1e-6; and the runs,
    their kept sweeps, and the eigensolves per run, counted on the
    _psd_clamp calls of one untimed pass."""
    options = [el.PocsOptions(), el.PocsOptions(epsilon_shift=1e-6)]
    runs = [(t, opts) for t in tensors for opts in options]
    clamp, solves = pocs._psd_clamp, 0

    def counted(mat):
        nonlocal solves
        solves += 1
        return clamp(mat)

    pocs._psd_clamp = counted
    try:
        sweeps = sum(el.run_pocs(t, opts).iterations for t, opts in runs)
    finally:
        pocs._psd_clamp = clamp
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for t, opts in runs:
            el.run_pocs(t, opts)
        times.append(time.perf_counter() - start)
    run_time = statistics.median(times)
    return {
        "us_per_sweep": 1e6 * run_time / sweeps,
        "us_per_run": 1e6 * run_time / len(runs),
        "solves_per_run": solves / len(runs),
        "sweeps": sweeps,
        "runs": len(runs),
    }


def cold_us(fn, args, repeats):
    """Median over repeats of the mean µs of fn(*a) over args, each call
    timed right after one pass that writes EVICT_BYTES, which leaves the
    caches as cold as elbench's probe kernels leave them between ops."""
    scratch = np.empty(EVICT_BYTES // 8)
    times = []
    for _ in range(repeats):
        total = 0.0
        for a in args:
            scratch.fill(1.0)
            start = time.perf_counter()
            fn(*a)
            total += time.perf_counter() - start
        times.append(total / len(args))
    return 1e6 * statistics.median(times)


def scanned_rows(t):
    """The lattice rows that grid_top_candidates evaluates on t."""
    rows = 0
    scan_block = oracle._scan_block

    def count(t9, xx, block, keep, cut):
        nonlocal rows
        rows += len(block)
        return scan_block(t9, xx, block, keep, cut)

    oracle._scan_block = count
    try:
        el.grid_top_candidates(t, keep=oracle._TOP_K)
    finally:
        oracle._scan_block = scan_block
    return rows


def oracle_layers(tensors, repeats):
    """Median over repeats of the µs per lattice scan and per refine_min call,
    and the trace entries per refine_min call, over the basins that
    oracle_verdict refines on each tensor; and, cold (see cold_us), the µs
    per scan of the tensors whose scan skips rows (pruned) and of those
    whose scan evaluates every row (full), and per oracle_verdict."""
    starts = []
    for t in tensors:
        cands = el.grid_top_candidates(t, keep=oracle._TOP_K)
        starts += [(t, x, y) for x, y in oracle._distinct_basins(cands, oracle.GRID_N)]
    full = [scanned_rows(t) == (oracle.GRID_N + 1) // 2 for t in tensors]
    scans = {
        kind: [(t, oracle.GRID_N, oracle._TOP_K) for t, f in zip(tensors, full) if f == is_full]
        for kind, is_full in (("pruned", False), ("full", True))
    }
    scan, refine, verdict = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for t in tensors:
            el.grid_top_candidates(t, keep=oracle._TOP_K)
        scan.append((time.perf_counter() - start) / len(tensors))
        steps = 0
        start = time.perf_counter()
        for t, x, y in starts:
            steps += len(el.refine_min(t, x, y).objective_trace)
        refine.append((time.perf_counter() - start) / len(starts))
        start = time.perf_counter()
        for t in tensors:
            el.oracle_verdict(t)
        verdict.append((time.perf_counter() - start) / len(tensors))
    return {
        "scan_us": 1e6 * statistics.median(scan),
        "refine_us": 1e6 * statistics.median(refine),
        "verdict_us": 1e6 * statistics.median(verdict),
        "refine_steps": steps / len(starts),
        "refine_calls": len(starts),
        **{
            f"scan_cold_{kind}_us": cold_us(el.grid_top_candidates, args, repeats)
            for kind, args in scans.items()
        },
        "verdict_cold_us": cold_us(el.oracle_verdict, [(t,) for t in tensors], repeats),
    }


def case_layers(decs, repeats):
    """Median over repeats of the µs per sup_eta grid evaluation and per
    check_case call over the case-2 decompositions decs; the grid is the
    eta_many that check_case hands to cases.sup_eta, on the cases.GRID_N-point
    hemisphere."""
    grids = []
    sup_eta = cases.sup_eta

    def capture(eta_fn, lines, *, eta_many, **kwargs):
        grids.append(eta_many)
        return sup_eta(eta_fn, lines, eta_many=eta_many, **kwargs)

    cases.sup_eta = capture
    try:
        for dec in decs:
            el.check_case(dec)
    finally:
        cases.sup_eta = sup_eta
    ys = el.fibonacci_hemisphere(cases.GRID_N)
    grid, check = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for eta_many in grids:
            eta_many(ys)
        grid.append((time.perf_counter() - start) / len(grids))
        start = time.perf_counter()
        for dec in decs:
            el.check_case(dec)
        check.append((time.perf_counter() - start) / len(decs))
    return {
        "grid_us": 1e6 * statistics.median(grid),
        "check_us": 1e6 * statistics.median(check),
        "checks": len(decs),
    }


def case3_decomposition(c):
    """The case-3 terms (1, e_s e_{s+k}^T), k = 0, 1, 2, and (-1, c I), whose
    eta is c^2 on the whole sphere."""
    eye = np.eye(3)
    mats = [np.outer(eye[:, s], eye[:, (s + k) % 3]) for k in range(3) for s in range(3)]
    mats.append(c * eye)
    return el.StructuredDecomposition(np.array([1.0] * 9 + [-1.0]), np.stack(mats))


def case1_decomposition(alpha_neg):
    """The case-1 terms (1, e_s e_s^T) and (alpha_neg, diag(1, 1, 0)), whose C
    is I + alpha_neg (1, 1, 0) (1, 1, 0)^T."""
    eye = np.eye(3)
    mats = [np.outer(eye[:, s], eye[:, s]) for s in range(3)] + [np.diag([1.0, 1.0, 0.0])]
    return el.StructuredDecomposition(np.array([1.0, 1.0, 1.0, alpha_neg]), np.stack(mats))


def structure_layer(decs, repeats):
    """Median over repeats of the µs per check_case call on decs outside its
    sup_eta: a first run records what each sup_eta call returns, and the
    timed runs replay those results in call order, so what is timed is the
    structure tests, the ratio form's set-up and the line limits."""
    results = []
    sup_eta = cases.sup_eta

    def record(*args, **kwargs):
        results.append(sup_eta(*args, **kwargs))
        return results[-1]

    replay = iter(())
    cases.sup_eta = record
    try:
        for dec in decs:
            el.check_case(dec)
        cases.sup_eta = lambda *args, **kwargs: next(replay)
        times = []
        for _ in range(repeats):
            replay = iter(results * CALLS)
            start = time.perf_counter()
            for _ in range(CALLS):
                for dec in decs:
                    el.check_case(dec)
            times.append((time.perf_counter() - start) / (CALLS * len(decs)))
    finally:
        cases.sup_eta = sup_eta
    return {"structure_us": 1e6 * statistics.median(times)}


def ascent_layer(decs, repeats):
    """Median over repeats of the µs per cases._ascend call, over the ascents
    that check_case runs on decs, replayed with the arguments each was given;
    and the eta, gradient and Hessian evaluations per ascent."""
    ascents = []
    ascend = cases._ascend

    def capture(*args):
        ascents.append(args)
        return ascend(*args)

    cases._ascend = capture
    try:
        for dec in decs:
            el.check_case(dec)
    finally:
        cases._ascend = ascend
    evals = Counter()

    def counted(name, fn):
        def call(y):
            evals[name] += 1
            return fn(y)

        return call

    for y0, value, grad, hess, lines in ascents:
        ascend(y0, counted("eta", value), counted("grad", grad), counted("hess", hess), lines)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in ascents:
            ascend(*args)
        times.append((time.perf_counter() - start) / len(ascents))
    return {
        "ascent_us": 1e6 * statistics.median(times),
        "ascents": len(ascents),
        **{f"ascent_{name}_evals": evals[name] / len(ascents) for name in ("eta", "grad", "hess")},
    }


def spectral_group(repeats):
    mats = [el.unfold(t) for _, t, _ in gallery()]
    return {
        "us_per_call": {
            name: us_per_call(fn, mats, repeats)
            for name, fn in (
                ("psd_project", el.psd_project),
                ("min_eigenvalue", el.min_eigenvalue),
                ("eigenvalue_bounds", eigenvalue_bounds),
            )
        }
    }


def pocs_group(repeats):
    return {"pocs": pocs_runs([t for _, t, _ in gallery()], repeats)}


def oracle_group(repeats):
    return {"oracle": oracle_layers([t for _, t, _ in gallery()], repeats)}


def cases_group(repeats):
    decs = [dec for _, _, dec in gallery() if dec is not None]
    ratio_decs = decs + [case3_decomposition(0.5)]
    return {
        "cases": {
            **case_layers(decs, repeats),
            **ascent_layer(ratio_decs, repeats),
            **structure_layer(ratio_decs + [case1_decomposition(-0.4)], repeats),
        }
    }


def io_group(repeats):
    """Median over repeats of the µs per load_tensor of each gallery file and
    per dumps_report of its check report."""
    runs = list(gallery())
    docs = [{"command": "check", "name": name, **vars(el.check(t, dec))} for name, t, dec in runs]
    load, emit = [], []
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.json" for i in range(len(runs))]
        for path, (name, t, _) in zip(paths, runs):
            el.save_tensor(path, t, name)
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(FILE_CALLS):
                for path in paths:
                    el.load_tensor(path)
            load.append((time.perf_counter() - start) / (FILE_CALLS * len(paths)))
            start = time.perf_counter()
            for _ in range(FILE_CALLS):
                for doc in docs:
                    el.dumps_report(doc)
            emit.append((time.perf_counter() - start) / (FILE_CALLS * len(docs)))
    return {
        "io": {
            "load_us": 1e6 * statistics.median(load),
            "emit_us": 1e6 * statistics.median(emit),
            "files": len(paths),
        }
    }


def check_group(repeats):
    """Median over repeats of the µs per check(t, dec) over the gallery."""
    runs = [(t, dec) for _, t, dec in gallery()]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for t, dec in runs:
            el.check(t, dec)
        times.append((time.perf_counter() - start) / len(runs))
    return {"check": {"us": 1e6 * statistics.median(times)}}


def boundary_tensors(m):
    """R + c E for the first BOUNDARY_TENSORS random tensors R of
    default_rng(0), with c such that the form minimum, the oracle's minimum
    of R plus c, is m max|R + c E|: the near-boundary class of the
    slow-check table. The fixed-point iteration for c contracts by |m| per
    step."""
    gen = np.random.default_rng(0)
    e = el.tensor_e().a
    out = []
    for _ in range(BOUNDARY_TENSORS):
        r = el.random_tensor(gen).a
        low = el.oracle_verdict(el.Elast4(r)).report.min_value
        c = -low
        for _ in range(8):
            c = m * float(np.abs(r + c * e).max()) - low
        out.append(el.Elast4(r + c * e))
    return out


def boundary_group(repeats):
    """Per margin of BOUNDARY_MARGINS: the median over repeats (one per
    BOUNDARY_REPEAT_SHARE, at least one) of the µs per check(t) over its
    boundary_tensors, the POCS sweeps per run (the iterations of the
    pocs-mpd and pocs-mpsd records) and the check verdicts."""
    repeats = max(1, repeats // BOUNDARY_REPEAT_SHARE)
    out = {"repeats": repeats, "tensors": BOUNDARY_TENSORS}
    for label, m in BOUNDARY_MARGINS.items():
        tensors = boundary_tensors(m)
        reports = [el.check(t) for t in tensors]
        sweeps = [
            stage["iterations"] for rep in reports for stage in rep.stages if "iterations" in stage
        ]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for t in tensors:
                el.check(t)
            times.append((time.perf_counter() - start) / len(tensors))
        out[label] = {
            "us": 1e6 * statistics.median(times),
            "sweeps_per_run": sum(sweeps) / len(sweeps),
            "verdicts": [rep.verdict for rep in reports],
        }
    return {"boundary": out}


# Each group of layers, measured in its own interpreter (print_group).
GROUPS = {
    "spectral": spectral_group,
    "pocs": pocs_group,
    "oracle": oracle_group,
    "cases": cases_group,
    "io": io_group,
    "check": check_group,
    "boundary": boundary_group,
}


def print_group(name, repeats):
    print(json.dumps(GROUPS[name](repeats)))


def measure(src, repeats):
    """Every group's figures on the library under src, one fresh interpreter
    per group."""
    doc = {"repeats": repeats}
    here = str(Path(__file__).resolve().parent)
    for name in GROUPS:
        code = (
            f"import sys; sys.path.insert(0, {here!r}); import bench_layers; "
            f"bench_layers.print_group({name!r}, {repeats})"
        )
        doc.update(json.loads(run_python(src, "-c", code)))
    return doc


def layer_figures(doc):
    """The figures of one run that --against compares, by layer name."""
    return {
        **doc["us_per_call"],
        **{f"pocs.{key}": doc["pocs"][key] for key in ("us_per_sweep", "us_per_run", "solves_per_run")},
        **{
            f"oracle.{key}": doc["oracle"][key]
            for key in (
                "scan_us",
                "refine_us",
                "refine_steps",
                "verdict_us",
                "scan_cold_pruned_us",
                "scan_cold_full_us",
                "verdict_cold_us",
            )
        },
        **{
            f"cases.{key}": doc["cases"][key]
            for key in (
                "grid_us",
                "check_us",
                "structure_us",
                "ascent_us",
                "ascent_eta_evals",
                "ascent_grad_evals",
                "ascent_hess_evals",
            )
        },
        **{f"io.{key}": doc["io"][key] for key in ("load_us", "emit_us")},
        "check.us": doc["check"]["us"],
        **{
            f"check.boundary_{label}_{key}": doc["boundary"][label][key]
            for label in BOUNDARY_MARGINS
            for key in ("us", "sweeps_per_run")
        },
    }


def run_python(src, *argv):
    """The stdout of a fresh interpreter with src first on its path."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.stdout


def against(other, repeats):
    """Ratios this / other over PAIRS alternating fresh runs of each tree."""
    for src in (SRC, other):
        lib = run_python(src, "-c", "import ellipticity_lab; print(ellipticity_lab.__file__)")
        if not Path(lib.strip()).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"bench_layers: {src} does not hold the library it imports")
    runs = {"this": [], "other": []}
    verdicts = {}
    for i in range(PAIRS):
        for side in ("this", "other") if i % 2 == 0 else ("other", "this"):
            doc = measure(SRC if side == "this" else other, repeats)
            runs[side].append(layer_figures(doc))
            verdicts[side] = {label: doc["boundary"][label]["verdicts"] for label in BOUNDARY_MARGINS}
    ratios = {}
    for name in runs["this"][0]:
        pairs = [(mine[name], theirs[name]) for mine, theirs in zip(runs["this"], runs["other"])]
        r = [mine / theirs for mine, theirs in pairs]
        q1, _, q3 = statistics.quantiles(r, n=4)
        ratios[name] = {
            "this": statistics.median(mine for mine, _ in pairs),
            "against": statistics.median(theirs for _, theirs in pairs),
            "ratio_median": statistics.median(r),
            "ratio_q1": q1,
            "ratio_q3": q3,
            "wins": sum(mine < theirs for mine, theirs in pairs),
        }
    return {
        "repeats": repeats,
        "pairs": PAIRS,
        "layers": ratios,
        "boundary_verdicts": {"this": verdicts["this"], "against": verdicts["other"]},
        **machine(),
    }


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--against", type=Path, metavar="DIR", help="a checkout to compare with")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.against is not None:
        other = args.against / "src"
        if not (other / "ellipticity_lab").is_dir():
            ap.error(f"--against: no ellipticity_lab under {other}")
        print(json.dumps(against(other, args.repeats), indent=2, sort_keys=True))
        return

    print(json.dumps({**measure(LIB, args.repeats), **machine()}, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
