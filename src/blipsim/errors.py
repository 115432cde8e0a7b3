"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`BlipSimError`, so callers can catch one base class.  The CLI maps
:class:`ConfigurationError` to exit code 2 and every other subclass to 3.
"""

__all__ = [
    "BlipSimError",
    "ConfigurationError",
    "ConsistencyError",
    "DivergenceError",
    "DomainError",
    "DomainExitError",
    "FixtureError",
    "InterpolationAccuracyError",
    "SupportGuardError",
    "ZeroNormError",
]


class BlipSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(BlipSimError):
    """Invalid grid, scenario, or CLI configuration."""


class FixtureError(ConfigurationError):
    """An analytic fixture cannot be represented faithfully on the grid."""


class DomainError(BlipSimError, ValueError):
    """Parameter outside the mathematical domain of an operation."""


class ConsistencyError(BlipSimError):
    """Operands that must share a grid or a medium do not."""


class ZeroNormError(BlipSimError):
    """Expectation requested for a state with numerically zero weight."""


class SupportGuardError(BlipSimError):
    """Packet support touches the scatterer or sits on the wrong side."""


class DivergenceError(BlipSimError):
    """Coupling strength outside the convergence radius of the resummation."""


class InterpolationAccuracyError(BlipSimError):
    """Band-limited resampling failed its norm-drift check."""


class DomainExitError(BlipSimError):
    """Free evolution would carry support past the grid edge (periodic wrap)."""
