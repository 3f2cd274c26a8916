"""Exception types shared across the package."""

import json


class SafeDmpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SafeDmpError, ValueError):
    """Input data violates a documented precondition."""


class DimensionError(InvalidInputError):
    """Vector or trajectory dimension does not match what the operation needs."""


class InsufficientDataError(InvalidInputError):
    """Too few samples to perform the requested fit or differentiation."""


class DegeneratePhaseError(SafeDmpError):
    """Basis activations do not cover the queried phase value."""


class PhaseStepError(SafeDmpError):
    """Discrete phase update would cross zero; reduce the step size."""


class SafetyInfeasibleError(SafeDmpError):
    """No collision-free projection exists for the requested target."""


class UndefinedMetricError(SafeDmpError):
    """Metric is undefined for the given execution logs."""


class ParseError(SafeDmpError):
    """A file could not be parsed; carries the offending line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


#: Bad input: the package's errors, unreadable files (missing, a directory,
#: not UTF-8) and malformed JSON.  Any other exception is a programming error.
INPUT_ERRORS = (SafeDmpError, OSError, UnicodeDecodeError, json.JSONDecodeError)
