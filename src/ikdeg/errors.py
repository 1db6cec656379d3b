"""Exception hierarchy shared across the library."""


class IKDegError(Exception):
    """Base class for all library errors."""


class FieldMismatch(IKDegError):
    """Operands belong to different finite fields."""


class InversionOfZero(IKDegError):
    """Multiplicative inverse of zero requested."""


class LogOfZero(IKDegError):
    """Discrete logarithm of zero requested."""


class ConductorMismatch(IKDegError):
    """Binary operation on cyclotomic integers with different conductors."""


class NonCoprimeIndex(IKDegError):
    """Galois/embedding index not coprime to the conductor."""


class CharAtZero(IKDegError):
    """Multiplicative character evaluated at zero."""


class BudgetExceeded(IKDegError):
    """The counting route would make more additions than its limit (charsum.COUNT_LIMIT)."""


class ZeroParameter(IKDegError):
    """Parameter required to be nonzero (b, a, or a residue) is zero."""


class WrongConductor(IKDegError):
    """Cyclotomic integer does not live at the conductor the operation needs."""


class OrbitMismatch(IKDegError):
    """A value's Galois conjugate is not the value equivariance predicts (bug)."""


class NonIntegerCoefficients(IKDegError):
    """A minimal-polynomial coefficient came out as a non-integer (bug)."""


class PrecisionMismatch(IKDegError):
    """pi-adic operands disagree on prime or truncation order."""


class PrecisionTooLow(IKDegError):
    """Requested pi-adic precision too small for the construction."""


class VanishingDifference(IKDegError):
    """A Case I/II/III conjugate difference is exactly zero."""


class UnsupportedConductor(IKDegError):
    """Conductor does not divide p*(p-1) in the p-adic embedding."""


class DegenerateIndex(IKDegError):
    """Valuation formula index m with (p-1) | (n+1)m."""


class DegenerateParameters(IKDegError):
    """Case-analysis parameters outside the classified range."""


class InvalidParameters(IKDegError):
    """CLI-level parameter validation failure."""
