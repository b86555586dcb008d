"""Exception types shared across the package.

Every failure mode raised on purpose derives from :class:`MhafError`, so
callers (and the command-line front end) can distinguish expected validation
failures from genuine bugs.
"""


class MhafError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MhafError):
    """Tensor dimensions are inconsistent with what an operation requires.

    Messages always name the offending shapes so failures are actionable
    without a debugger.
    """


class KernelError(MhafError):
    """A convolution kernel description is invalid (even size, bad stride,
    group mismatch, ...)."""


class StateError(MhafError):
    """An object is in the wrong form for the requested operation, e.g.
    merging branches that were already merged, or running a deployed-form
    forward with training-form weights."""


class NumericError(MhafError):
    """A computation produced non-finite values."""


class ConfigError(MhafError):
    """A model configuration or a run setting (a trial or iteration count, or
    a seed) is malformed or violates a constraint."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.message = message
        self.key = key
        self.line = line
        prefix = ""
        if key is not None:
            prefix = f"config key '{key}'"
            if line is not None:
                prefix += f" (line {line})"
            prefix += ": "
        super().__init__(prefix + message)


class GraphError(MhafError):
    """A model graph is structurally broken (unknown input, cycle, bad wiring)."""


class WeightFileError(MhafError):
    """A weight container cannot be read or written (bad magic, truncation,
    checksum mismatch)."""
