"""Symmetric eigendecomposition with a deterministic gauge, and the PSD projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricInput

__all__ = ["EigPair", "sym_eig", "min_eigenvalue", "psd_project"]

# Largest asymmetry accepted, relative to max(1, max |entry|).
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class EigPair:
    """Eigenvalues ascending; vectors[:, s] is the unit eigenvector for values[s]."""

    values: np.ndarray
    vectors: np.ndarray


def _require_symmetric(m) -> np.ndarray:
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    scale = max(1.0, float(np.max(np.abs(mat)))) if mat.size else 1.0
    if asym > SYMMETRY_TOL * scale:
        raise AsymmetricInput(
            f"relative asymmetry {asym / scale:.3e} exceeds {SYMMETRY_TOL:.3e}"
        )
    return 0.5 * (mat + mat.T)


def sym_eig(m) -> EigPair:
    """Full eigendecomposition of a symmetric matrix.

    Deterministic gauge: eigenvalues ascending, and each eigenvector is
    signed so that its largest-magnitude entry (first such entry on ties)
    is positive. Degenerate eigenspaces still admit an arbitrary orthonormal
    basis; callers must not rely on individual vectors inside a cluster.
    """
    mat = _require_symmetric(m)
    values, vectors = np.linalg.eigh(mat)
    if vectors.size:
        cols = np.arange(vectors.shape[1])
        peak = vectors[np.argmax(np.abs(vectors), axis=0), cols]
        vectors = np.where(peak < 0.0, -vectors, vectors)
    return EigPair(values=values, vectors=vectors)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    mat = _require_symmetric(m)
    return float(np.linalg.eigvalsh(mat)[0])


def psd_project(m) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clamp negative eigenvalues at exactly zero.

    No sign gauge is needed: flipping an eigenvector's sign leaves
    V diag(w+) V^T unchanged bit for bit, because negation is exact. The
    reconstruction is symmetrized exactly, so the output is a symmetric
    matrix bit-for-bit and the map is idempotent up to rounding.
    """
    values, vectors = np.linalg.eigh(_require_symmetric(m))
    clamped = np.maximum(values, 0.0)
    rebuilt = (vectors * clamped) @ vectors.T
    return 0.5 * (rebuilt + rebuilt.T)
