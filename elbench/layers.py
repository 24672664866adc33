"""Per-layer tracing by wrapping the library's functions from outside.

Each wrapped function is replaced, in the namespace of the module that calls
it, by a span recorder; ``restore`` puts the originals back. Layers are the
package's modules. A span's self time is its duration minus the time of
its child spans, so the layer self times of one operation add up to the
operation's traced time. Times are scaled by the operation's probe factor
in ``commit``; counts are exact.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "pocs", "spectral", "oracle", "cases", "spheres", "tensors")


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []
        self._self: dict[str, float] = defaultdict(float)
        self._incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def _wrap(self, layer: str, name: str, fn, after=None):
        def span(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                self._self[layer] += dur - frame[0]
                self._incl[name] += dur
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return span

    def patch(self, module, attr: str, layer: str, name: str | None = None, after=None):
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, self._wrap(layer, name or f"{layer}.{attr}", orig, after))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def commit(self, factor: float) -> None:
        """Fold the finished operation's times, scaled by its probe factor."""
        for key, v in self._self.items():
            self.self_s[key] += v * factor
        for key, v in self._incl.items():
            self.incl_s[key] += v * factor
        self._self.clear()
        self._incl.clear()


def unit(name: str) -> str:
    if "us_per" in name:
        return "us"
    if "ms_per" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "frac")):
        return "fraction"
    return "bytes" if "bytes" in name else "count"


def install(tr: Tracer, el) -> None:
    """Wrap the call sites of every layer that the three workloads reach."""
    cli, io, pocs, oracle, cases, spectral = (
        el.cli, el.io, el.pocs, el.oracle, el.cases, el.spectral
    )

    tr.patch(cli, "main", "cli")
    tr.patch(cli, "min_eigenvalue", "spectral")
    tr.patch(cli, "unfold", "tensors")

    tr.patch(io, "load_tensor", "io", "io.load")
    tr.patch(io, "load_decomposition", "io", "io.load")

    def emitted(args, kwargs, text):
        tr.counts["io.report_bytes"] += len(text.encode())

    tr.patch(io, "dumps_report", "io", "io.emit", after=emitted)

    def ran(args, kwargs, rep):
        tr.counts["pocs.sweeps"] += rep.iterations
        tr.counts["pocs.found"] += rep.verdict == el.VERDICT_FOUND

    tr.patch(pocs, "certify_mpd", "pocs")
    tr.patch(pocs, "certify_mpsd", "pocs")
    tr.patch(pocs, "run_pocs", "pocs", after=ran)
    tr.patch(pocs, "psd_project", "spectral", "spectral.psd_project")
    tr.patch(spectral, "sym_eig", "spectral", "spectral.sym_eig")

    def scanned(args, kwargs, result):
        n = kwargs.get("n", args[1] if len(args) > 1 else 2000)
        tr.counts["oracle.lattice_pairs"] += n * n

    def refined(args, kwargs, rep):
        tr.counts["oracle.refine_improved"] += len(rep.objective_trace) > 1

    tr.patch(oracle, "oracle_verdict", "oracle")
    tr.patch(oracle, "grid_top_candidates", "oracle", "oracle.scan", after=scanned)
    tr.patch(oracle, "refine_min", "oracle", "oracle.refine", after=refined)
    tr.patch(oracle, "sym_eig", "spectral", "oracle.sym_eig")
    tr.patch(oracle, "biquadratic", "tensors", "tensors.biquadratic")
    tr.patch(oracle, "contract_xx", "tensors")
    tr.patch(oracle, "contract_yy", "tensors")

    def sphere_points(args, kwargs, pts):
        tr.counts["spheres.points"] += len(pts)

    tr.patch(oracle, "fibonacci_sphere", "spheres", "spheres.lattice", after=sphere_points)
    tr.patch(cases, "fibonacci_hemisphere", "spheres", "spheres.lattice", after=sphere_points)

    for attr in ("check_case1", "check_case2", "check_case3"):
        tr.patch(cases, attr, "cases", "cases.check")
    tr.patch(cases, "spectral_decomposition", "cases")
    tr.patch(cases, "sym_eig", "spectral", "cases.sym_eig")
    tr.patch(cases, "unfold", "tensors")
    _patch_sup_eta(tr, cases)


def _patch_sup_eta(tr: Tracer, cases) -> None:
    """Count the evaluations of the callables handed to sup_eta."""

    def counted(key, fn):
        if fn is None:
            return None

        def inner(*args, **kwargs):
            tr.counts[key] += 1
            return fn(*args, **kwargs)

        return inner

    def grid(fn):
        if fn is None:
            return None

        def inner(ys):
            tr.counts["cases.eta_grid_points"] += len(ys)
            return fn(ys)

        return inner

    def done(args, kwargs, res):
        tr.counts["cases.sup_converged"] += bool(res.converged)

    traced = tr._wrap("cases", "cases.sup_eta", cases.sup_eta, after=done)
    orig = cases.sup_eta

    def sup_eta(eta_fn, singular_lines, *args, grad_fn=None, eta_many=None, **kwargs):
        return traced(
            counted("cases.eta_evals", eta_fn),
            singular_lines,
            *args,
            grad_fn=counted("cases.grad_evals", grad_fn),
            eta_many=grid(eta_many),
            **kwargs,
        )

    tr._patches.append((cases, "sup_eta", orig))
    cases.sup_eta = sup_eta


def layer_metrics(tr: Tracer, passes: int, ops_per_pass: int) -> dict[str, float]:
    """Per-layer metrics from the traced passes (counts are per pass)."""
    total = sum(tr.self_s.values())
    calls, incl, counts = tr.calls, tr.incl_s, tr.counts
    n_ops = passes * ops_per_pass

    def per_pass(v):
        return v / passes

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    def share(layer):
        return ratio(tr.self_s.get(layer, 0.0), total)

    sym_calls = sum(calls[k] for k in ("spectral.sym_eig", "oracle.sym_eig", "cases.sym_eig"))
    sym_time = sum(incl[k] for k in ("spectral.sym_eig", "oracle.sym_eig", "cases.sym_eig"))
    runs = calls["pocs.run_pocs"]
    sweeps = counts["pocs.sweeps"]
    checks = calls["cases.check"]
    sups = calls["cases.sup_eta"]
    return {
        "spectral.psd_project.calls": per_pass(calls["spectral.psd_project"]),
        "spectral.psd_project.us_per_call": ratio(
            incl["spectral.psd_project"], calls["spectral.psd_project"], 1e6
        ),
        "spectral.sym_eig.calls": per_pass(sym_calls),
        "spectral.sym_eig.us_per_call": ratio(sym_time, sym_calls, 1e6),
        "spectral.share": share("spectral"),
        "pocs.runs": per_pass(runs),
        "pocs.sweeps": per_pass(sweeps),
        "pocs.us_per_sweep": ratio(incl["pocs.run_pocs"], sweeps, 1e6),
        "pocs.found_frac": ratio(counts["pocs.found"], runs),
        "pocs.share": share("pocs"),
        "oracle.calls": per_pass(calls["oracle.oracle_verdict"]),
        "oracle.lattice_pairs": per_pass(counts["oracle.lattice_pairs"]),
        "oracle.scan_ms_per_call": ratio(incl["oracle.scan"], calls["oracle.scan"], 1e3),
        "oracle.refine.calls": per_pass(calls["oracle.refine"]),
        # refine_min makes exactly two eigensolves per sweep.
        "oracle.refine.sweeps": per_pass(calls["oracle.sym_eig"] / 2),
        "oracle.refine_ms_per_call": ratio(incl["oracle.refine"], calls["oracle.refine"], 1e3),
        "oracle.refine_improved_frac": ratio(
            counts["oracle.refine_improved"], calls["oracle.refine"]
        ),
        "oracle.share": share("oracle"),
        "cases.sup_eta.calls": per_pass(sups),
        "cases.sup_eta.ms_per_call": ratio(incl["cases.sup_eta"], sups, 1e3),
        "cases.eta_grid_points": per_pass(counts["cases.eta_grid_points"]),
        "cases.eta_evals": per_pass(counts["cases.eta_evals"]),
        "cases.grad_evals": per_pass(counts["cases.grad_evals"]),
        "cases.sup_converged_frac": ratio(counts["cases.sup_converged"], sups),
        "cases.structure_ms_per_call": ratio(incl["cases.check"] - incl["cases.sup_eta"], checks, 1e3),
        "cases.share": share("cases"),
        "io.load_ms_per_op": ratio(incl["io.load"], n_ops, 1e3),
        "io.emit_ms_per_op": ratio(incl["io.emit"], n_ops, 1e3),
        "io.report_bytes_per_op": ratio(counts["io.report_bytes"], n_ops),
        "io.share": share("io"),
        "cli.self_ms_per_op": ratio(tr.self_s.get("cli", 0.0), n_ops, 1e3),
        "cli.share": share("cli"),
        "spheres.points_per_op": ratio(counts["spheres.points"], n_ops),
        "spheres.ms_per_op": ratio(incl["spheres.lattice"], n_ops, 1e3),
        "tensors.biquadratic.calls": per_pass(calls["tensors.biquadratic"]),
    }
