"""Exception hierarchy.

Two branches matter for the CLI exit-code contract: ConfigError maps to
exit 2 (bad input / inadmissible configuration), NumericError maps to
exit 3 (computation broke down at runtime).
"""
import numpy as np


class CanalError(Exception):
    """Base class for all package errors."""


def check(bad, error, message):
    """Raise error(message()) if bad: a check on floats (FailedRows on arrays)."""
    if bad:
        raise error(message())


class FailedRows:
    """check on column arrays of n rows: records each check's mask, combined
    once after the pass by masks()."""

    def __init__(self, n):
        self.n, self._bad, self._degenerate = n, [], []

    def __call__(self, bad, error, message):
        self._bad.append(bad)
        self._degenerate.append(error is FrameDegenerateError)

    def masks(self):
        """(rows, degenerate): the rows some check fails, and those whose first
        failing check raises a FrameDegenerateError."""
        first = np.array([np.zeros(self.n, dtype=bool), *self._bad]).argmax(axis=0)
        return first > 0, np.array([False, *self._degenerate])[first]


def or_error(fn, *args):
    """fn(*args), or the CanalError it raises: a per-node result that a batch
    computation hands on for its caller to raise where it reaches the node."""
    try:
        return fn(*args)
    except CanalError as exc:       # its traceback would hold it and the batch in a cycle
        exc.__traceback__ = exc.__cause__ = exc.__context__ = None
        return exc


def unwrap(result):
    """The value of an or_error result; raises it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def _power(x: float, n: int, what: str, *args) -> float:
    """x ** n in floats; where it overflows, a DomainError naming what.format(*args)."""
    try:
        return x ** n
    except OverflowError:
        raise DomainError(what.format(*args) + " overflows") from None


class ConfigError(CanalError):
    """Invalid user input or inadmissible configuration (CLI exit 2)."""


class ExprSyntaxError(ConfigError):
    """Expression text failed to parse, or a tree to compile; carries the byte
    offset of the text, if any."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ConfigError):
    """Function name not in the supported set."""


class UnknownExampleError(ConfigError):
    """Builtin example name not recognized."""


class NonUnitSpeedError(ConfigError):
    """Curve violates the |<b',b'>| = 1 requirement."""


class OutOfDomainError(ConfigError):
    """Parameter value (or its FD stencil) left the declared domain."""


class InadmissibleConfigError(ConfigError):
    """Family/curve/radius combination that cannot define a hypersurface."""


class VariantViolatedError(ConfigError):
    """r'(s)^2 - lambda*eps1 has the wrong sign for the declared variant."""


class NumericError(CanalError):
    """Numeric breakdown during evaluation (CLI exit 3)."""


class DomainError(NumericError):
    """Expression evaluation outside a function's domain (log<=0, sqrt<0, /0)."""


class FrameDegenerateError(NumericError):
    """A curvature (k1 or k2) vanished; the moving frame does not exist."""


class NullResidualError(NumericError):
    """A Gram-Schmidt residual is null; no non-null frame of this kind."""


class DegenerateNodeError(NumericError):
    """Grid node where the induced metric degenerates (|A| < 1e-6)."""


class RankDeficientError(NumericError):
    """Surface partials are linearly dependent; no normal direction."""


class SingularMetricError(NumericError):
    """det g too small to invert the first fundamental form."""


class ComplexEigenvaluesError(NumericError):
    """Numeric shape operator returned a complex pair beyond tolerance."""


class NullConditionViolatedError(NumericError):
    """Null-cone coefficients failed sum(eps_i a_i^2) = 0."""


class DomainExitError(NumericError):
    """Minimal-radius integration hit a turning point (radicand -> 0)."""

    def __init__(self, message, turning_s):
        super().__init__(message)
        self.turning_s = turning_s


class EmptySliceError(ConfigError):
    """Export requested on an empty grid slice."""
