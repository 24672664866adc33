"""Exception types shared across the library: each is raised by name in the
package and exported from it."""

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
    """The symmetric eigensolver did not converge, as at entries near the
    float limit, or its matrix has no finite symmetric part. Still a numpy
    LinAlgError for callers that catch that."""


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
