"""Time the spectral layer and the POCS sweep; print one JSON object.

Usage: python3 scripts/bench_layers.py [--repeats 15]

Each figure is the median over repeats. Per call: psd_project,
min_eigenvalue and eigenvalue_bounds, CALLS times on each unfolding of the
gallery tensors (scripts/certify_gallery.py). Per POCS sweep: the wall time of
run_pocs, unshifted and shifted by 1e-6, over the gallery tensors, divided
by the sweeps those runs take. The object also carries the Python, numpy,
BLAS and machine details the figures depend on. BLAS runs on one thread
unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS says
otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import ellipticity_lab as el  # noqa: E402
from ellipticity_lab.spectral import eigenvalue_bounds  # noqa: E402
from certify_gallery import gallery  # noqa: E402

# Calls of each function per matrix and repeat.
CALLS = 200


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
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    tensors = [t for _, t, _ in gallery()]
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
        **machine(),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
