"""Exception types shared across the workbench."""


class IonvibError(Exception):
    """Base class for all workbench errors."""


class InvalidModelError(IonvibError):
    """Model parameters or run settings violate a requirement (e.g. non-positive mode frequency).

    The library type that reads a setting checks it; ``key`` names the
    offending setting when it is a config key, so the CLI can report it as a
    config error.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class DimensionLimitError(InvalidModelError):
    """A truncated space would exceed ``hilbert.DIM_LIMIT``."""


class ConvergenceError(IonvibError):
    """A propagation or cutoff search failed to converge within the dimension limit.

    Carries the last two iterates so the caller can inspect how far apart they were.
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class InfeasibleScheduleError(IonvibError):
    """A compiled schedule requires drive strengths outside the hardware table."""


class UnsupportedChainError(IonvibError):
    """Requested ion-chain size has no entry in the duration calibration table."""


class NumericalFailureError(IonvibError):
    """An integrator produced an unphysical state (trace or positivity violation)."""


class ConfigError(IonvibError):
    """A config file or CLI flag could not be parsed or validated."""

    def __init__(self, message, key=None, line=None):
        detail = message
        if key is not None:
            detail += f" (key: {key})"
        if line is not None:
            detail += f" (line {line})"
        super().__init__(detail)
        self.key = key
        self.line = line
