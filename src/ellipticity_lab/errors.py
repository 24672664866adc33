"""Exception types shared across the library."""


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


class AsymmetricInput(EllipticityError):
    """A matrix that must be symmetric is not, beyond the tolerance."""


class InvalidEpsilon(EllipticityError):
    """A strict-definiteness shift was requested with a non-positive epsilon."""


class SingularDirection(EllipticityError):
    """The ratio function was evaluated on (or too close to) an excluded line."""


class DegenerateDenominator(EllipticityError):
    """A ratio denominator vanished where the structure promises positivity."""


class EmptyDomain(EllipticityError):
    """Every candidate grid point was excluded; nothing left to optimize."""


class CaseShapeError(EllipticityError):
    """The decomposition does not have the (r, q) signature of the requested case."""


class NotCase1(CaseShapeError):
    pass


class NotCase2(CaseShapeError):
    pass


class NotCase3(CaseShapeError):
    pass


class ParseError(EllipticityError):
    """A JSON document does not conform to its declared format."""


class UnknownGenerator(EllipticityError):
    """The requested built-in tensor name is not recognized."""


class SoundnessTripwire(EllipticityError):
    """The brute-force cross-check contradicted a certified verdict."""
