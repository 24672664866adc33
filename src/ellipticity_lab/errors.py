"""Exception types shared across the library: each is raised by name in the
package and exported from it. eigensolver_errors() is the error state in
which numpy's eigensolver gufuncs raise EigensolverFailure."""

import numpy as np
from numpy.linalg import LinAlgError


class EllipticityError(Exception):
    """Base class for every error raised by this package."""


class SymmetryViolation(EllipticityError):
    """Raw entries disagree across a symmetry orbit by more than the tolerance."""

    def __init__(self, spread: float, tol: float):
        self.spread = spread
        self.tol = tol
        super().__init__(
            f"symmetry orbit spread {spread:.3e} exceeds tolerance {tol:.3e}"
        )


class NonFiniteEntries(EllipticityError, ValueError):
    """Tensor entries are inf or NaN, or overflow when the tensor is built."""


class AsymmetricInput(EllipticityError):
    """A matrix that must be symmetric is not, beyond the tolerance."""


class EigensolverFailure(EllipticityError, LinAlgError):
    """The symmetric eigensolver did not converge, or its n x n matrix is
    refused before any solve: not finite, or n * max|entry| not below
    2**1020 (the range rule of spectral). Still a numpy LinAlgError for
    callers that catch that."""


def _solver_did_not_converge(err, flag):
    raise EigensolverFailure("symmetric eigensolver failed: Eigenvalues did not converge")


def eigensolver_errors() -> np.errstate:
    """A new np.errstate, the one numpy.linalg.eigh and eigvalsh enter on
    every call: a LAPACK solve that does not converge sets `invalid`, raised
    here as EigensolverFailure; overflow, division and underflow are
    ignored. The callers of spectral._eigh, which calls those LAPACK
    gufuncs directly, hold it, entered once around a batch of solves; an
    instance can be entered only once."""
    return np.errstate(
        call=_solver_did_not_converge, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


class InvalidEpsilon(EllipticityError):
    """A strict-definiteness shift was requested with a non-positive epsilon."""


class SingularDirection(EllipticityError):
    """The ratio function of case 2 or 3 was evaluated where a denominator
    term is within its guard of zero: on or near a case-2 singular line, or
    at y = 0."""


class EmptyDomain(EllipticityError):
    """Every candidate grid point was excluded; nothing left to optimize."""


class CaseShapeError(EllipticityError):
    """The decomposition does not have the (r, q) signature of the requested
    case; the message names the expected and the found counts."""


class DecompositionMismatch(EllipticityError):
    """The terms of a decomposition do not build the tensor it is checked with."""


class ParseError(EllipticityError):
    """A JSON document does not conform to its declared format."""


class UnknownGenerator(EllipticityError):
    """The requested built-in tensor name is not recognized."""


class SoundnessTripwire(EllipticityError):
    """The brute-force cross-check contradicted a certified verdict."""
