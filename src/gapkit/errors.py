"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["NotNumerical", "NotGapForm", "BadExpansion", "GenusMismatch", "ConfigInvalid"]


class NotNumerical(ValueError):
    """Generators have gcd != 1, so the complement of the semigroup is infinite."""


class NotGapForm(ValueError):
    """Polynomial is not 1 + (t-1) * (sum of distinct powers t^g with g >= 1)."""


class BadExpansion(ValueError):
    """Polynomial violates P(1) = 1 or P'(1) = claimed genus, so no k-sequence exists."""


class GenusMismatch(ValueError):
    """Total cusp genus does not match the degree formula (d-1)(d-2)/2."""

    def __init__(self, total_genus: int, required_genus: int):
        self.total_genus = total_genus
        self.required_genus = required_genus
        super().__init__(
            f"total cusp genus {total_genus} != required (d-1)(d-2)/2 = {required_genus}"
        )


class ConfigInvalid(ValueError):
    """Search configuration is inconsistent or out of range."""


def _internal(make, *args):
    """make(*args) on values gapkit computed: a ValueError there is gapkit's fault, a RuntimeError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise RuntimeError(f"internal: {exc}") from exc
