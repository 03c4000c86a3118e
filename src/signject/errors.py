"""Exception types shared across the package."""


class SignjectError(Exception):
    """Base class for all package-specific errors."""


class SizeMismatch(SignjectError):
    pass


class ShapeMismatch(SignjectError):
    pass


class LengthMismatch(SignjectError):
    pass


class RankDeficient(SignjectError):
    pass


class NoComplement(SignjectError):
    """Raised when a Gale dual is requested for a full-dimensional subspace."""


class NotGaleDual(SignjectError):
    pass


class NonPositiveInput(SignjectError):
    pass


class InternalError(SignjectError):
    """An internal consistency check failed: a bug, not bad input."""


class VerificationFailed(InternalError):
    """A constructed witness failed its high-precision re-verification."""


class TooLarge(SignjectError):
    """Instance exceeds the desk-scale guard for an exponential enumeration."""


class SearchBudgetExceeded(TooLarge):
    """A bounded search reached its budget before it could decide."""


class ParseError(SignjectError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnknownSpecies(ParseError):
    pass
