"""Exception hierarchy for the revreact toolkit: one class per outcome that
a caller acts on.

Every class is a RevReactError, which the command line reports on stderr
with exit code 2, but for those that a caller tells apart: solver.run
turns an InvalidState met while stepping into a NumericalBlowup, which
the run command records as status=blowup with exit code 1, and analyze
reports an UnresolvedFit as a `decay fit: FAIL` line of its report.
"""


class RevReactError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(RevReactError):
    """An argument is outside its admissible range."""


class InvalidState(RevReactError):
    """An inadmissible state: a concentration field that is not finite and
    strictly positive, or conserved masses that are not finite and
    nonnegative."""


class NumericalBlowup(RevReactError):
    """A functional evaluated to a non-finite value during time integration."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class UnresolvedFit(RevReactError):
    """A decay fit resolved no exponent: too few samples above the floor,
    no decaying envelope, a best exponent at the lowest one searched, or
    an S1 above the range of doubles."""


class _LineError(RevReactError):
    """An error in a line of an input, its message prefixed with `line N:`
    when the line is known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(_LineError):
    """Malformed run configuration."""


class ParseError(_LineError):
    """Malformed input file: a time series, a run_meta, or text that is not UTF-8."""


class IoError(RevReactError):
    """A file could not be read or written: an output, or an input CSV,
    run_meta or config file."""
