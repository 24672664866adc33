"""The library names that the benchmark's per-layer tracer wraps.

`elbench/layers.py` replaces these module attributes by span recorders in
the namespaces of their callers, so renaming or dropping one breaks
`python3 elbench/run.py --trace 1`. The list is checked against the
`tr.patch(module, "attr", ...)` calls in that file, so it cannot go stale.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import ellipticity_lab as el
from ellipticity_lab import cases

TRACED = {
    "cli": ("main", "min_eigenvalue", "unfold"),
    "io": ("load_tensor", "load_decomposition", "dumps_report"),
    "pocs": ("certify_mpd", "certify_mpsd", "run_pocs", "psd_project"),
    "spectral": ("sym_eig",),
    "oracle": (
        "oracle_verdict",
        "grid_top_candidates",
        "refine_min",
        "sym_eig",
        "biquadratic",
        "contract_xx",
        "contract_yy",
        "fibonacci_sphere",
    ),
    "cases": (
        "fibonacci_hemisphere",
        "check_case1",
        "check_case2",
        "check_case3",
        "spectral_decomposition",
        "sym_eig",
        "unfold",
        "sup_eta",
    ),
}

LAYERS_PY = Path(__file__).resolve().parents[1] / "elbench" / "layers.py"


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, attrs in TRACED.items() for a in attrs]
)
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"ellipticity_lab.{module}"), attr))


def test_verdict_constant_the_tracer_reads():
    assert isinstance(el.VERDICT_FOUND, str)


@pytest.mark.skipif(not LAYERS_PY.exists(), reason="benchmark directory not present")
def test_list_covers_every_patch_call():
    patched = set()
    for node in ast.walk(ast.parse(LAYERS_PY.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            patched.add((node.args[0].id, node.args[1].value))
    listed = {(m, a) for m, attrs in TRACED.items() for a in attrs}
    assert patched and patched <= listed


def test_ratio_checkers_reach_sup_eta_and_lattice_through_cases(monkeypatch):
    # the tracer counts eta, gradient and grid evaluations through the
    # callables handed to cases.sup_eta, and lattice points through
    # cases.fibonacci_hemisphere; a checker that bypassed either name, or
    # dropped grad_fn or eta_many, would leave those counters at 0
    sup_calls, lattice_calls = [], []
    sup_eta, lattice = cases.sup_eta, cases.fibonacci_hemisphere

    def recording_sup_eta(eta_fn, singular_lines, *args, grad_fn=None, eta_many=None, **kwargs):
        sup_calls.append((grad_fn, eta_many))
        return sup_eta(eta_fn, singular_lines, *args, grad_fn=grad_fn, eta_many=eta_many, **kwargs)

    def recording_lattice(n):
        lattice_calls.append(n)
        return lattice(n)

    monkeypatch.setattr(cases, "sup_eta", recording_sup_eta)
    monkeypatch.setattr(cases, "fibonacci_hemisphere", recording_lattice)
    eye = np.eye(3)
    case3 = el.StructuredDecomposition(
        np.array([1.0] * 9 + [-1.0]),
        np.stack([np.outer(eye[s], eye[(s + k) % 3]) for k in range(3) for s in range(3)] + [0.5 * eye]),
    )
    assert el.check_case2(el.choi_lam_case2_decomposition(1.0)).verdict == el.CASE_MPSD
    assert el.check_case3(case3).verdict == el.CASE_MPD
    assert len(sup_calls) == 2
    assert all(callable(grad_fn) and callable(eta_many) for grad_fn, eta_many in sup_calls)
    assert lattice_calls == [20000, 20000]
