"""Exception hierarchy shared across the package.

Every error raised by library code derives from PermRFError so callers can
catch one type at an API boundary.  Names describe the violated requirement.
"""


class PermRFError(Exception):
    pass


class NotPrime(PermRFError):
    pass


class DegreeZero(PermRFError):
    pass


class InvalidModulus(PermRFError):
    pass


class SizeBudgetExceeded(PermRFError):
    pass


class LevelMismatch(PermRFError):
    pass


class DivisionByZero(PermRFError, ZeroDivisionError):
    pass


class NonDivisorDegrees(PermRFError):
    pass


class NotInSubfield(PermRFError):
    pass


class NotABasis(PermRFError):
    pass


class OutOfRange(PermRFError):
    pass


class BInBaseField(PermRFError):
    pass


class BZero(PermRFError):
    pass


class CZero(PermRFError):
    pass


class NotBijective(PermRFError):
    pass


class UnsupportedDegree(PermRFError):
    pass


class EvenCharacteristic(PermRFError):
    pass


class WrongDegree(PermRFError):
    pass


class DegreeTooSmall(PermRFError):
    pass


class UsageError(PermRFError):
    pass
