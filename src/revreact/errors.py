"""Exception hierarchy for the revreact toolkit."""


class RevReactError(Exception):
    """Base class for all toolkit errors."""


class InvalidField(RevReactError):
    """A concentration field contains non-finite entries."""


class NotPositive(RevReactError):
    """An operation requiring strictly positive data received a nonpositive entry."""


class InvalidMass(RevReactError):
    """A conserved mass is negative or zero where positivity is required."""


class InvalidArgument(RevReactError):
    """A scalar argument is outside its admissible range."""


class NumericalBlowup(RevReactError):
    """A functional evaluated to a non-finite value during time integration."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class AlreadyConverged(RevReactError):
    """Decay fit requested but all samples sit at the floating-point floor."""


class NonDecaying(RevReactError):
    """Decay fit requested but the series does not decay."""


class UnresolvedFit(RevReactError):
    """Decay fit requested but its best exponent is the lowest one searched."""


class InvalidSampling(RevReactError):
    """Trajectory samples are not uniformly spaced in time."""


class MissingDiagnostic(RevReactError):
    """A growth diagnostic requires a norm that was not recorded."""


class ConfigError(RevReactError):
    """Malformed run configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(RevReactError):
    """Malformed input file: a time series, a run_meta, or text that is not UTF-8."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IoError(RevReactError):
    """A file could not be read or written: an output, or an input CSV,
    run_meta or config file."""
