"""Exception types shared across the library."""


class ContractViolationError(ValueError):
    """A caller broke a documented precondition (shape, kind, or range)."""


class DegenerateInputError(ValueError):
    """Numerically rank-deficient or otherwise degenerate input."""


class NonFiniteInitialLossError(RuntimeError):
    """Training started from parameters whose loss is not finite."""
