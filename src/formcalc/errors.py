"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class ChartMismatch(AlgebraError):
    """Two values that must share a chart do not."""


class KindMismatch(AlgebraError):
    """A form was supplied where a multivector was required, or vice versa."""


class GradeMismatch(AlgebraError):
    """An operation received a tensor of the wrong grade."""


class ArityMismatch(AlgebraError):
    """A bracket received the wrong number of arguments."""


class NotDivisible(AlgebraError):
    """Exact polynomial division left a nonzero remainder."""


class DegreeOverflow(AlgebraError):
    """A polynomial product's total degree would reach 2**32, past the width
    of one packed exponent field."""


class DegenerateStructure(AlgebraError):
    """A volume, symplectic form or constraint set fails a regularity condition."""


class CalibrationFailure(AlgebraError):
    """No usable reference pair was found while calibrating a normalization."""


class ParseError(AlgebraError):
    """Syntax or name error in textual input, with a 1-based position."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
