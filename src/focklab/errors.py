"""Shared exception types.

The CLI maps these onto process exit codes, so they live in one place.
"""


class FocklabError(Exception):
    """Base class for all package errors."""


class CapacityError(FocklabError):
    """A requested basis would exceed the configured state-count cap."""


class SectorError(FocklabError):
    """An operation was asked to leave the particle-number sector structure."""


class ConfigError(FocklabError):
    """Invalid or inconsistent experiment configuration."""


class DegeneracyError(FocklabError):
    """Superposition components are numerically indistinguishable."""


class IntegrationError(FocklabError):
    """The ODE integrator failed or broke a conservation contract."""


class KrylovError(FocklabError):
    """Propagation broke unitarity beyond the configured norm tolerance."""


class ExactRegimeError(FocklabError):
    """Rate fitting refused: distances are at rounding level (exact regime)."""
