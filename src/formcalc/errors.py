"""Exception types shared across the package, and its one argument check.

Errors.  Every call into the package ends in a result or an AlgebraError:
public entry points check their arguments with :func:`checked`.  A value of
the right type but out of range raises InvalidArgument, and a division by
zero DivisionByZero; these also subclass ValueError and ZeroDivisionError.
Only Python's operator protocol (``q1 + "x"``, ``Polynomial / Polynomial``)
ends in its own TypeError.  NotClosed, a form that is not closed, is the one
DegenerateStructure whose cause a caller branches on.
"""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class ChartMismatch(AlgebraError):
    """Two values that must share a chart do not."""


class KindMismatch(AlgebraError):
    """An argument is of the wrong type, such as a form where a multivector belongs."""


class GradeMismatch(AlgebraError):
    """An operation received a tensor of the wrong grade."""


class ArityMismatch(AlgebraError):
    """A bracket received the wrong number of arguments."""


class InvalidArgument(AlgebraError, ValueError):
    """An argument of the right type lies outside the values the call takes."""


class DivisionByZero(AlgebraError, ZeroDivisionError):
    """A division by zero, or a quotient with a zero denominator."""


class NotDivisible(AlgebraError):
    """Exact polynomial division left a nonzero remainder."""


class DegreeOverflow(AlgebraError):
    """A polynomial product's total degree would reach 2**32, past the width
    of one packed exponent field."""


class DegenerateStructure(AlgebraError):
    """A volume, symplectic form or constraint set fails a regularity condition."""


class NotClosed(DegenerateStructure):
    """A symplectic form is not closed, though its inverse bivector may exist."""


class CalibrationFailure(AlgebraError):
    """A normalization ratio measured on a reference pair is not a rational constant."""


class ParseError(AlgebraError):
    """Syntax or name error in textual input, with a 1-based position."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{where}")


def checked(value, kind, role: str, chart=None, grade=None):
    """``value``, if it is a ``kind`` (a type or tuple of types) on ``chart``
    of grade ``grade`` (each where given); otherwise a :class:`KindMismatch`,
    :class:`ChartMismatch` or :class:`GradeMismatch` whose message starts with ``role``."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        raise KindMismatch(f"{role} must be {names}, got {type(value).__name__}")
    if chart is not None and value.chart != chart:
        raise ChartMismatch(f"{role} lives on a different chart")
    if grade is not None and value.grade != grade:
        raise GradeMismatch(f"{role} must have grade {grade}, got {value.grade}")
    return value
