"""Time the spectral layer, the POCS sweep, the oracle and the case-2 supremum;
print one JSON object.

Usage: python3 scripts/bench_layers.py [--repeats 15] [--against DIR]

Each figure is the median over repeats. Per call: psd_project,
min_eigenvalue and eigenvalue_bounds, CALLS times on each unfolding of the
gallery tensors (scripts/certify_gallery.py). Per POCS sweep: the wall time of
run_pocs, unshifted and shifted by 1e-6, over the gallery tensors, divided
by the sweeps those runs take. Per oracle call: the lattice scan
(grid_top_candidates as oracle_verdict runs it) on each gallery tensor, and
refine_min from each of their basins, with the trace entries per refinement.
Per case-2 decomposition of the gallery: the sup_eta grid, the eta_many that
check_case hands to cases.sup_eta on the cases.GRID_N-point hemisphere, and a
whole check_case call.
The object also carries the Python, numpy, BLAS and machine details the
figures depend on. BLAS runs on one thread unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS says otherwise.

With --against DIR the script runs itself PAIRS times in fresh processes on
the library of this checkout and PAIRS times on DIR/src, alternating which
goes first, and prints each layer's ratio this / DIR: the median over the
pairs, its quartiles, and the pairs where this tree's figure is the lower.
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
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ellipticity_lab as el  # noqa: E402
from ellipticity_lab import cases, oracle  # noqa: E402
from ellipticity_lab.spectral import eigenvalue_bounds  # noqa: E402
from certify_gallery import gallery  # noqa: E402

# Calls of each function per matrix and repeat.
CALLS = 200
# Runs of each tree under --against.
PAIRS = 10
SRC = Path(__file__).resolve().parents[1] / "src"


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


def us_per_sweep(tensors, repeats):
    """Median over repeats of run time / sweeps over every run, in µs, and the
    sweeps of one repeat."""
    options = [el.PocsOptions(), el.PocsOptions(epsilon_shift=1e-6)]
    times, sweeps = [], 0
    for _ in range(repeats):
        sweeps = 0
        start = time.perf_counter()
        for t in tensors:
            for opts in options:
                sweeps += el.run_pocs(t, opts).iterations
        times.append((time.perf_counter() - start) / sweeps)
    return 1e6 * statistics.median(times), sweeps


def oracle_layers(tensors, repeats):
    """Median over repeats of the µs per lattice scan and per refine_min call,
    and the trace entries per refine_min call, over the basins that
    oracle_verdict refines on each tensor."""
    starts = []
    for t in tensors:
        cands = el.grid_top_candidates(t, keep=oracle._TOP_K)
        starts += [(t, x, y) for x, y in oracle._distinct_basins(cands, oracle.GRID_N)]
    scan, refine = [], []
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
    return {
        "scan_us": 1e6 * statistics.median(scan),
        "refine_us": 1e6 * statistics.median(refine),
        "refine_steps": steps / len(starts),
        "refine_calls": len(starts),
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


def layer_figures(doc):
    """The figures of one run that --against compares, by layer name."""
    return {
        **doc["us_per_call"],
        "pocs.us_per_sweep": doc["pocs"]["us_per_sweep"],
        **{f"oracle.{key}": doc["oracle"][key] for key in ("scan_us", "refine_us", "refine_steps")},
        **{f"cases.{key}": doc["cases"][key] for key in ("grid_us", "check_us")},
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
    for i in range(PAIRS):
        for side in ("this", "other") if i % 2 == 0 else ("other", "this"):
            out = run_python(SRC if side == "this" else other, __file__, "--repeats", str(repeats))
            runs[side].append(layer_figures(json.loads(out)))
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
    return {"repeats": repeats, "pairs": PAIRS, "layers": ratios, **machine()}


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

    items = list(gallery())
    tensors = [t for _, t, _ in items]
    mats = [el.unfold(t) for t in tensors]
    layers = {
        name: us_per_call(fn, mats, args.repeats)
        for name, fn in (
            ("psd_project", el.psd_project),
            ("min_eigenvalue", el.min_eigenvalue),
            ("eigenvalue_bounds", eigenvalue_bounds),
        )
    }
    sweep, sweeps = us_per_sweep(tensors, args.repeats)
    doc = {
        "repeats": args.repeats,
        "us_per_call": layers,
        "pocs": {"us_per_sweep": sweep, "sweeps": sweeps, "runs": 2 * len(tensors)},
        "oracle": oracle_layers(tensors, args.repeats),
        "cases": case_layers([dec for _, _, dec in items if dec is not None], args.repeats),
        **machine(),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
