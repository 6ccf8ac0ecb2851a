"""Exception hierarchy shared across the package."""


class SolitonStabilityError(Exception):
    """Base class for all package errors."""


class DomainError(SolitonStabilityError):
    """A parameter point lies outside the chart's open domain."""


class EvaluationError(SolitonStabilityError):
    """A chart, a field or the translation weight produced non-finite data."""


class ImmersionError(SolitonStabilityError):
    """The chart Jacobian is rank deficient at a sampled point."""


class ExpressionError(SolitonStabilityError):
    """An expression string falls outside the supported grammar."""


class ConfigurationError(SolitonStabilityError):
    """Invalid run configuration (bad support box, bad tolerance, ...)."""


class UnsupportedChartError(SolitonStabilityError):
    """Operation requires a Lagrangian chart but got a non-Lagrangian one."""


class NotASolitonError(SolitonStabilityError):
    """Second-variation formulas were requested away from a critical point."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"soliton residual {residual:.3e} exceeds tolerance {tolerance:.3e}; "
            "second-variation formulas are only valid at critical points"
        )


class ConvergenceError(SolitonStabilityError):
    """An iterative solver failed to converge within its iteration bound."""
