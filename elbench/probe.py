"""Machine-speed probe: fixed numpy/Python kernels that never call the library.

On a shared 2-core machine the speed drifts by up to 2x over minutes and
flips within seconds, so raw wall times do not repeat. The probe runs right
next to every timed operation, and each operation's time is scaled by
REFERENCE_S[kernel] / (probe time around it).

A probe kernel only helps if it slows down as much as the operations do,
and small in-cache kernels (a 9x9 eigensolve, a short einsum) over-react by
up to 2x. The kernels below are built from parts that track the workloads
with a slope near 1, each part taking about the same time:

* ``loop``:    plain interpreter arithmetic;
* ``refine``:  alternating 3x3 eigenvector steps on one tensor, the shape of
               the oracle's refinement and of a projected ascent;
* ``ascent``:  many tiny numpy evaluations of a ratio function;
* ``scan``:    one lattice contraction of the oracle's chunk shape
               (256 x 2000 values, larger than L2) with a partial sort.

``check-mix`` is dominated by the oracle's scan and gets all four; the two
API workloads get the first three.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20170515)
_T4 = _rng.standard_normal((3, 3, 3, 3))
_T4 = 0.5 * (_T4 + _T4.transpose(1, 0, 2, 3))
_T4 = 0.5 * (_T4 + _T4.transpose(0, 1, 3, 2))
_Y = _rng.standard_normal((256, 3))
_X = _rng.standard_normal((2000, 3))
_MATS = np.einsum("ijkl,mk,ml->mij", _T4, _Y, _Y)
_W = _rng.standard_normal((2, 3, 3))
_A = np.abs(_rng.standard_normal((2, 3))) + 0.5
_S = _rng.standard_normal((2, 3))


def _loop() -> float:
    s = 0
    for i in range(36000):
        s += i * i % 7
    return float(s)


def _refine() -> float:
    y = _Y[0] / np.linalg.norm(_Y[0])
    x = y
    for _ in range(95):
        x = np.linalg.eigh(np.einsum("ijkl,k,l->ij", _T4, y, y))[1][:, 0]
        y = np.linalg.eigh(np.einsum("ijkl,i,j->kl", _T4, x, x))[1][:, 0]
    return float(np.einsum("ijkl,i,j,k,l->", _T4, x, x, y, y))


def _ascent() -> float:
    y = _X[0] / np.linalg.norm(_X[0])
    acc = 0.0
    for _ in range(120):
        p = np.einsum("gis,i->gs", _W, y)
        acc += float(np.sum(np.sum(_S * p, axis=0) ** 2 / np.sum(_A * p * p, axis=0)))
        y = y + 1e-3 * p[0]
        y /= np.linalg.norm(y)
    return acc


def _scan() -> float:
    vals = np.einsum("xi,mij,xj->mx", _X, _MATS, _X, optimize=True).reshape(-1)
    return float(vals[np.argpartition(vals, 9)[0]])


KERNELS = {
    "check-mix": (_scan, _loop, _refine, _ascent),
    "pocs-certify": (_loop, _refine, _ascent),
    "case-sup": (_loop, _refine, _ascent),
}

# Probe time of each kernel on the reference machine (shared 2-core x86-64 VM,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3.31 on one thread), so that
# normalized times read as times on that machine.
REFERENCE_S = {"check-mix": 2.5e-2, "pocs-certify": 1.2e-2, "case-sup": 1.2e-2}


def probe(kernel: str) -> float:
    """Duration of one run of the named kernel, in seconds."""
    parts = KERNELS[kernel]
    t0 = time.perf_counter()
    for part in parts:
        part()
    return time.perf_counter() - t0


def warm(kernel: str, n: int = 3) -> None:
    for _ in range(n):
        probe(kernel)
