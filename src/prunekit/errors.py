"""Exception types shared across the package."""

from __future__ import annotations


class PruneKitError(Exception):
    """Base class for all prunekit failures."""


class ManifestError(PruneKitError):
    """The model manifest or weight container is malformed."""


class GraphValidationError(PruneKitError):
    """A graph violates structural invariants. Carries the violation list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ShapeError(PruneKitError):
    """Shape inference failed (negative size, operand mismatch, width conflict)."""


class DegenerateModelError(PruneKitError):
    """The model cannot be scored (e.g. a layer whose score range collapses to zero)."""


class InfeasibleBudgetError(PruneKitError):
    """A FLOP or parameter target cannot be reached under the layer survival floors."""

    def __init__(self, message: str, best_frr: float):
        self.best_frr = best_frr
        super().__init__(message)


class PlanMismatchError(PruneKitError):
    """A pruning plan does not match the graph it is being applied to."""
