"""Symmetric eigendecomposition with a deterministic gauge, rigorous eigenvalue
enclosures, and the PSD projection.

Every public function validates its input through _require_symmetric, which
holds the one range rule: an n x n matrix is solved only if it is finite and
n * max|m| < 2**1020. The symmetric part, the spectrum, a projection and
every residual sum of eigenvalue_bounds are then at most a small multiple
of n * max|m|, so none passes the float range and nothing after the check
tests for it; every other matrix raises EigensolverFailure, an
EllipticityError. Callers that need more range solve at a power-of-two
rescale (tensors.pow2_rescale), as pipeline.check does.

Every eigensolve goes through _eigh, which calls the LAPACK gufuncs of
numpy.linalg.eigh and eigvalsh (the same bits) without their wrapper. Its
caller holds errors.eigensolver_errors(), in which a solver that does not
converge raises EigensolverFailure: each public function enters that state
per call, and pocs.run_pocs once per run. pocs.run_pocs validates its
reference once per run and calls the clamp kernel _psd_clamp on each sweep,
whose iterates are bit-symmetric and finite by construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import AsymmetricInput, EigensolverFailure, eigensolver_errors

__all__ = ["EigPair", "sym_eig", "min_eigenvalue", "eigenvalue_bounds", "psd_project"]

# Largest asymmetry accepted, relative to max |entry|: a cutoff scaling with m.
SYMMETRY_TOL = 1e-12

# Unit roundoff and smallest subnormal of float64, for rounding-error bounds.
ROUNDOFF = 2.0**-53
SUBNORMAL = 2.0**-1074


@dataclass(frozen=True)
class EigPair:
    """Eigenvalues ascending; vectors[:, s] is the unit eigenvector for values[s]."""

    values: np.ndarray
    vectors: np.ndarray


def _require_symmetric(m) -> np.ndarray:
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = float(np.abs(mat).max(initial=0.0))
    # the range rule of the module docstring, which NaN and inf fail too
    if not mat.shape[0] * scale < 2.0**1020:
        raise EigensolverFailure(
            "symmetric eigensolver failed: the matrix is not finite "
            "or n * max|entry| is not below 2**1020"
        )
    # bit-for-bit symmetric: the matrix is its own symmetric part
    if mat.tobytes() == mat.T.tobytes():
        return mat
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > SYMMETRY_TOL * scale:
        raise AsymmetricInput(
            f"relative asymmetry {asym / scale:.3e} exceeds {SYMMETRY_TOL:.3e}"
        )
    return 0.5 * (mat + mat.T)


def _eigh(mat: np.ndarray, vectors: bool = True):
    """numpy.linalg.eigh(mat), or eigvalsh(mat) if not vectors, bit for bit,
    for a float64 symmetric matrix: the LAPACK gufunc those call, without
    the input conversion, result wrap and error state they add to each call.
    The caller holds errors.eigensolver_errors(); without it, a solve that
    does not converge returns NaN with a RuntimeWarning."""
    if vectors:
        return _umath_linalg.eigh_lo(mat, signature="d->dd")
    return _umath_linalg.eigvalsh_lo(mat, signature="d->d")


def sym_eig(m) -> EigPair:
    """Full eigendecomposition of a symmetric matrix.

    Deterministic gauge: eigenvalues ascending, and each eigenvector is
    signed so that its largest-magnitude entry (first such entry on ties)
    is positive. Degenerate eigenspaces still admit an arbitrary orthonormal
    basis; callers must not rely on individual vectors inside a cluster.
    """
    mat = _require_symmetric(m)
    with eigensolver_errors():
        values, vectors = _eigh(mat)
    if vectors.size:
        cols = np.arange(vectors.shape[1])
        peak = vectors[np.argmax(np.abs(vectors), axis=0), cols]
        vectors = np.where(peak < 0.0, -vectors, vectors)
    return EigPair(values=values, vectors=vectors)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    mat = _require_symmetric(m)
    with eigensolver_errors():
        values = _eigh(mat, vectors=False)
    return float(values[0])


def eigenvalue_bounds(m) -> tuple[np.ndarray, np.ndarray]:
    """Proved enclosures (lower, upper) of the eigenvalues of a symmetric matrix.

    The k-th smallest eigenvalue of the matrix lies in [lower[k], upper[k]],
    whatever the rounding of the eigensolver. One eigh gives w and V; with
    r >= ||M V - V diag(w)||_2, f >= ||I - V^T V||_2 < 1 and rho = max |w|,
    Weyl's inequality on the congruent matrix V^T (M - delta I) V (same
    inertia as M - delta I) puts each eigenvalue within
    e = (2 f rho + (1 + f) r) / (1 - f) of w[k] (Rump, Acta Numerica 2010).
    The residual and the defect are computed in floating point and bounded
    entrywise with the gamma_n rounding bound, underflow included; their
    2-norms by max(||.||_1, ||.||_inf). A matrix whose defect bound reaches 1
    gets infinite enclosures. Like sym_eig, this acts on the symmetric part
    of a matrix within SYMMETRY_TOL, which is m itself when m is exactly
    symmetric.
    """
    mat = _require_symmetric(m)
    n = mat.shape[0]
    with eigensolver_errors():
        w, v = _eigh(mat)
    av = np.abs(v)
    # Each computed entry is an n-term dot product (plus at most two more
    # operations): its error is at most gamma_(n+2) times the same sum taken
    # in absolute values, plus (n + 2) halves of the smallest subnormal.
    # Twice that, computed upward by the final `up` factor, covers it.
    g = 2.0 * (n + 2) * ROUNDOFF
    floor = 2.0 * (n + 2) * SUBNORMAL
    res = np.abs(mat @ v - v * w)
    res += g * (np.abs(mat) @ av + av * np.abs(w) + res) + floor
    defect = np.abs(np.eye(n) - v.T @ v)
    defect += g * (av.T @ av + defect) + floor
    up = 1.0 + 4.0 * (n + 10) * ROUNDOFF

    def norm2_bound(x):
        return up * max(x.sum(axis=0).max(initial=0.0), x.sum(axis=1).max(initial=0.0))

    r, f = norm2_bound(res), norm2_bound(defect)
    rho = np.abs(w).max(initial=0.0)
    e = up * (2.0 * f * rho + (1.0 + f) * r) / (1.0 - f) if f < 1.0 else np.inf
    return np.nextafter(w - e, -np.inf), np.nextafter(w + e, np.inf)


def psd_project(m) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clamp negative eigenvalues at exactly zero.

    No sign gauge is needed: flipping an eigenvector's sign leaves
    V diag(w+) V^T unchanged bit for bit, because negation is exact. The
    reconstruction is symmetrized exactly, so the output is a symmetric
    matrix bit-for-bit and the map is idempotent up to rounding. The input
    is validated here; the clamp itself is _psd_clamp.
    """
    mat = _require_symmetric(m)
    with eigensolver_errors():
        return _psd_clamp(mat)


def _psd_clamp(mat: np.ndarray) -> np.ndarray:
    """The clamp of psd_project on a matrix that _require_symmetric returned,
    or one that is bit-symmetric and finite by construction (the POCS sweep).
    The caller holds errors.eigensolver_errors()."""
    values, vectors = _eigh(mat)
    rebuilt = (vectors * np.maximum(values, 0.0)) @ vectors.T
    return 0.5 * (rebuilt + rebuilt.T)
