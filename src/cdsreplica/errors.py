"""Exception types raised across the library."""

__all__ = [
    "ConfigError",
    "CrossedMarket",
    "DegenerateAnnuity",
    "InconsistentSpecs",
    "InvalidFrequency",
    "InvalidInterval",
    "MaturityNotOnGrid",
    "NonFiniteResult",
    "NonIntegralPeriods",
    "PricingError",
    "QuoteUnattainable",
    "TimeBeforeAnchor",
]


class PricingError(ValueError):
    """Base class for all library-specific errors."""


class ConfigError(PricingError):
    """Market configuration failed validation."""


class InvalidFrequency(ConfigError):
    """Payment frequency outside the supported set {1, 2, 4, 12}."""


class NonIntegralPeriods(ConfigError):
    """Maturity minus anchor is not an integer number of periods."""


class MaturityNotOnGrid(ConfigError):
    """Requested maturity does not coincide with any payment date."""


class TimeBeforeAnchor(PricingError):
    """Query time precedes the curve anchor."""


class InvalidInterval(PricingError):
    """Degenerate or reversed time interval."""


class QuoteUnattainable(PricingError):
    """No hazard rate in the search bracket reproduces the quote."""


class DegenerateAnnuity(PricingError):
    """An annuity or a discounted survival weight is not positive, or an annuity so small
    that the par spread over it exceeds 1e6 in magnitude; the ratio is undefined or absurd."""


class NonFiniteResult(PricingError):
    """A par spread or a price overflowed to infinity or came out NaN."""


class CrossedMarket(ConfigError):
    """A bid quote exceeds its ask."""


class InconsistentSpecs(ConfigError):
    """Repo, bond, curve, schedule or scenario parameters disagree."""
