"""Exception types shared across the package."""


class TorusflowError(Exception):
    """Base class for all library errors."""


class FieldMismatch(TorusflowError):
    """Operands belong to different number fields."""


class DivisionByZero(TorusflowError, ZeroDivisionError):
    """Exact division by the zero element."""


class NotInSpan(TorusflowError):
    """A subspace fell outside the real span of the lattice."""


class SymbolicUnsupported(TorusflowError):
    """The operation needs symbolic pieces but got a numeric-only one."""


class ShellStarved(TorusflowError):
    """Rejection sampling could not fill a radial shell (input may be bounded)."""

    def __init__(self, shell_index, radius):
        super().__init__(
            f"could not fill shell {shell_index} at radius {radius}; "
            "the variety may be bounded"
        )


class SpecFileError(TorusflowError):
    """Problem-description file failed to parse or validate."""

    def __init__(self, message, line=None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(message + loc)


class InternalInvariantError(TorusflowError):
    """An internal consistency check failed; indicates a bug."""
