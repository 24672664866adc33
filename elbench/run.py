"""Benchmark of ellipticity-lab: three workloads, one process, one BLAS thread.

Usage, from the root of a checkout (the library is imported from ./src):

    python3 elbench/run.py --workload check-mix --seed 1 --seconds 20 --trace 0

Workloads (see pools.py for the strata):

* check-mix     ``ellipticity-lab check --json`` through the CLI entry point,
                in-process, on tensor and decomposition files written at
                set-up. The oracle and the check pipeline dominate it.
* pocs-certify  ``certify_mpd`` / ``certify_mpsd`` on tensors with an
                indefinite unfolding: converging and stalling runs.
* case-sup      ``check_case1/2/3`` on given decompositions at the default
                grid; ``sup_eta`` does almost all of the work.

Every verdict is checked against a reference computed without the library
(refs.py). Each operation's wall time is scaled by REFERENCE_S / (probe time
around it), see probe.py; raw wall figures and probe statistics are printed
on the line before the result. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics (layers.py) under
``--trace 1``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads anywhere in this process or its children: with
# OpenBLAS's default two threads, small eigensolves burn twice the CPU time
# for no wall-time gain and the timings stop repeating.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ops  # noqa: E402
import pools  # noqa: E402
import probe  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPS = 7
TAIL_BEYOND = 10

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "undecided_frac": "fraction",
}


def fail(message: str) -> None:
    print(f"elbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="ellipticity-lab benchmark")
    ap.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters up to the end of ``import ellipticity_lab``


def measure_setup(src: Path, kernel: str) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    rows = []
    for _ in range(SETUP_REPS):
        before = probe.probe(kernel)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up interpreter failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(child["lib_file"]).resolve().is_relative_to(src.resolve()):
            fail(f"set-up imported ellipticity_lab from {child['lib_file']}, not {src}")
        factor = probe.REFERENCE_S[kernel] / (0.5 * (before + probe.probe(kernel)))
        rows.append(
            {
                "raw_s": child["t_lib"] - t0,
                "factor": factor,
                "import_numpy_s": child["t_numpy"] - child["t_start"],
                "import_lib_s": child["t_lib"] - child["t_numpy"],
            }
        )
    return rows


def setup_metric(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] * r["factor"] for r in rows)


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    raw: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    @property
    def normalized(self) -> list:
        return [r * f for r, f in zip(self.raw, self.factors)]


def run_pass(op_fns, kernel: str, tracer=None) -> Pass:
    """One whole pass; each operation sits between two probes."""
    p = Pass()
    before = probe.probe(kernel)
    p.probes.append(before)
    for fn in op_fns:
        t0 = time.perf_counter()
        outcome = fn()
        dt = time.perf_counter() - t0
        after = probe.probe(kernel)
        factor = probe.REFERENCE_S[kernel] / (0.5 * (before + after))
        if tracer is not None:
            tracer.commit(factor)
        p.raw.append(dt)
        p.factors.append(factor)
        p.outcomes.append(outcome)
        p.probes.append(after)
        before = after
    return p


def measure(op_fns, kernel: str, seconds: float) -> list[Pass]:
    """Whole passes while the next one is predicted to end within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(op_fns, kernel))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def measure_traced(el, op_fns, kernel: str, seconds: float):
    """Traced passes, each paired with an untraced twin over the same work."""
    tracer = layers.Tracer()
    traced, plain = [], []
    start = time.perf_counter()
    while True:
        for traced_turn in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if traced_turn:
                layers.install(tracer, el)
                try:
                    traced.append(run_pass(op_fns, kernel, tracer))
                finally:
                    tracer.restore()
            else:
                plain.append(run_pass(op_fns, kernel))
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            return tracer, traced, plain


# ---------------------------------------------------------------------------
# Workloads


def build_ops(el, workload: str, items, workdir: Path | None):
    if workload == "check-mix":
        argvs = ops.write_inputs(items, str(workdir))
        return [ops.make_check(el.cli, argv, it.truth) for argv, it in zip(argvs, items)]
    if workload == "pocs-certify":
        return [ops.make_pocs(el, el.Elast4(it.a), it.kind, it.truth) for it in items]
    return [
        ops.make_case(el, el.StructuredDecomposition(*it.dec), it.kind, it.truth) for it in items
    ]


@contextlib.contextmanager
def workspace(root: Path, workload: str):
    """A private directory inside the checkout; the CLI runs with it as cwd."""
    if workload != "check-mix":
        yield None
        return
    base = root / ".elbench_work"
    base.mkdir(exist_ok=True)
    wd = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        os.chdir(wd)
        yield wd
    finally:
        os.chdir(root)
        shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def digest(items, p: Pass) -> str:
    h = hashlib.sha256()
    for it, out in zip(items, p.outcomes):
        h.update(it.label.encode() + b"\0" + out.output + b"\0")
    return h.hexdigest()


def judge_run(items, warm: Pass, passes: list[Pass]):
    """attempted, failed, undecided, correct, and the per-item problems."""
    attempted = failed = undecided = 0
    problems = {}
    deterministic = True
    for p in passes:
        for it, out, first in zip(items, p.outcomes, warm.outcomes):
            attempted += 1
            failed += out.status == ops.FAILED
            undecided += out.status == ops.UNDECIDED
            if out.status == ops.FAILED:
                problems[it.label] = out.verdict
            if out.output != first.output:
                deterministic = False
                problems[it.label] = "output differs between passes"
    # Failures of the extreme-scale copies are known overflow defects of the
    # library: counted in `failed`, but only a failure elsewhere, or
    # output that changes between passes, makes the run incorrect.
    unexpected = [it.label for it in items if it.label in problems and not it.extreme]
    correct = deterministic and not unexpected
    return attempted, failed, undecided, correct, problems


def environment() -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 has no dicts mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def quartile_spread(xs) -> float:
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def time_metrics(samples: list[float], pool_size: int) -> tuple[dict, dict]:
    """ops/s, p50 and tail over whole passes; the tail level leaves at least
    TAIL_BEYOND distinct operations of the pool (and their repeats) beyond it."""
    level = 1.0 - TAIL_BEYOND / pool_size
    metrics = {
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * float(np.percentile(samples, 100.0 * level)),
    }
    return metrics, {"level": level, "samples": len(samples)}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ellipticity_lab" / "__init__.py").is_file():
        fail("no src/ellipticity_lab here; run from the root of an ellipticity-lab checkout")
    kernel = args.workload
    probe.warm(kernel)
    setup_rows = measure_setup(src, kernel)

    sys.path.insert(0, str(src))
    import ellipticity_lab as el
    import ellipticity_lab.cli  # noqa: F401  (not imported by the package)

    items = pools.build(args.workload, args.seed)
    with workspace(root, args.workload) as wd:
        op_fns = build_ops(el, args.workload, items, wd)
        warm = run_pass(op_fns, kernel)
        if args.trace:
            tracer, passes, plain = measure_traced(el, op_fns, kernel, args.seconds)
        else:
            passes = measure(op_fns, kernel, args.seconds)
    attempted, failed, undecided, correct, problems = judge_run(items, warm, passes)

    normalized = [t for p in passes for t in p.normalized]
    raw = [t for p in passes for t in p.raw]
    probes = [t for p in passes for t in p.probes]
    norm_metrics, tail = time_metrics(normalized, len(items))
    raw_metrics, _ = time_metrics(raw, len(items))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pool": len(items),
        "strata": dict(Counter(it.label.rsplit("-", 1)[0] for it in items)),
        "passes": len(passes),
        "tail": tail,
        "raw": dict(raw_metrics, setup_s=statistics.median(r["raw_s"] for r in setup_rows)),
        "probe": {
            "kernel": kernel,
            "reference_s": probe.REFERENCE_S[kernel],
            "median_s": statistics.median(probes),
            "quartile_spread": quartile_spread(probes),
        },
        "verdicts": dict(Counter(o.verdict for o in passes[0].outcomes)),
        "problems": problems,
        "digest": digest(items, passes[0]),
        "environment": environment(),
    }

    if args.trace:
        overhead = sum(sum(p.normalized) for p in passes) / sum(
            sum(p.normalized) for p in plain
        ) - 1.0
        values = layers.layer_metrics(tracer, len(passes), len(items))
        values["trace.overhead_frac"] = overhead
        values["setup.import_numpy_s"] = setup_metric(setup_rows, "import_numpy_s")
        values["setup.import_lib_s"] = setup_metric(setup_rows, "import_lib_s")
        metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in values.items()}
    else:
        values = dict(
            norm_metrics,
            setup_s=setup_metric(setup_rows, "raw_s"),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            undecided_frac=undecided / attempted,
        )
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}

    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
