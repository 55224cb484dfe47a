"""Exception types shared across the package."""


class DPMinimaxError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DPMinimaxError):
    """An input lies outside the mathematical domain of an operation."""


class ShapeMismatch(DPMinimaxError):
    """Array or matrix arguments have incompatible shapes."""


class LengthMismatch(DPMinimaxError):
    """Sequence arguments that must align have different lengths."""


class UnsupportedPair(DPMinimaxError):
    """No closed form is implemented for the requested family/divergence pair."""


class DegenerateMarginal(DPMinimaxError):
    """A coupling construction received a marginal it cannot handle."""


class TooLarge(DPMinimaxError):
    """An enumeration or LP instance exceeds the documented size caps."""


class KindConstraintMismatch(DPMinimaxError):
    """A similarity kind does not apply to the given privacy constraint."""


class ArityMismatch(DPMinimaxError):
    """Wrong number of datasets/marginals for the requested construction."""


class OutOfSpace(DPMinimaxError):
    """A point lies outside the declared parameter space."""


class BudgetExhausted(DPMinimaxError):
    """A randomized search ran out of its draw budget."""


class InsufficientBudget(DPMinimaxError):
    """Requested configuration admits no valid iteration count."""


class NonFinite(DPMinimaxError):
    """A computation produced NaN or infinity where finite values are required."""


class DegenerateInput(DPMinimaxError):
    """Input is degenerate for the requested statistic (e.g. zero risks in a slope fit)."""


class RegimeError(DPMinimaxError):
    """Experiment parameters violate the validity regime of a lower-bound constant."""
