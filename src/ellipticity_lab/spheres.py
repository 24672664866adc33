"""Deterministic Fibonacci lattices on the unit sphere.

Both lattices are pure functions of n: no randomness, no state. Points come
out in a fixed order, which downstream argmin/argmax reductions rely on for
reproducible tie-breaking.
"""

from __future__ import annotations

import functools

import numpy as np

# Golden angle in radians, the azimuthal increment of the spiral.
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def fibonacci_sphere(n: int) -> np.ndarray:
    """Return (n, 3) near-uniform points covering the full unit sphere."""
    if n < 1:
        raise ValueError("lattice needs at least one point")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


@functools.lru_cache(maxsize=4)
def fibonacci_hemisphere(n: int) -> np.ndarray:
    """Return (n, 3) points on the closed upper hemisphere (z >= 0).

    Centrally symmetric functions lose nothing by restricting to one
    hemisphere, and the halved search domain doubles effective density.
    The lattice is cached per n and returned read-only, so every caller
    shares one array; copy rows before changing them. The cache pays only
    when one process asks for the same n again, as a run of many case
    checks at one grid size does; a single check builds the lattice once
    either way. The rows are a view of a C-contiguous (3, n) array, so
    `pts.T` is the coordinate-major layout that a vectorised kernel reads
    without a grid-sized copy.
    """
    if n < 1:
        raise ValueError("lattice needs at least one point")
    i = np.arange(n, dtype=float)
    z = (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    coords = np.stack((r * np.cos(phi), r * np.sin(phi), z))
    coords.setflags(write=False)
    return coords.T
