"""Exception types shared across the package."""


class NotAPrimePower(ValueError):
    """Raised when a field order is not a prime power (or is < 2)."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a remainder where exactness was guaranteed.

    This signals an arithmetic bug, not bad user input.
    """


class BudgetExceeded(RuntimeError):
    """An enumeration or brute-force cap was exceeded."""


class DegenerateQ(ValueError):
    """Raised for group-order formulas evaluated at q = 1."""


class DimensionMismatch(ValueError):
    """Raised when ambient dimensions (or geometry dimensions) disagree."""


class GeometryFormatError(ValueError):
    """Raised for structurally malformed geometry/plane input files."""
