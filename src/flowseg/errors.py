"""Exception types shared across the package, and the integer check that raises one."""

import operator


class FlowSegError(Exception):
    """Base class for all flowseg errors."""


class InputError(FlowSegError):
    """An operation was called with inputs that violate its contract."""


class FormatError(InputError):
    """An input file does not conform to its documented binary format."""


class ConfigError(FlowSegError):
    """A configuration file or key is malformed or missing."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def require_integers(**values) -> None:
    """Raise InputError naming the first of ``values`` that is no integer
    to ``operator.index``, which refuses a float such as 2.0."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise InputError(f"{name} must be an integer, got {value!r}") from None


class MetricError(FlowSegError):
    """An evaluation metric was asked to score unusable inputs."""


class SourceError(InputError):
    """An input frame source failed mid-run.

    ``last_window`` is the 1-based number of the last fully processed
    window (0 if the source failed before any window completed).
    """

    def __init__(self, message: str, last_window: int):
        super().__init__(message)
        self.last_window = last_window
