"""Exception types shared across the library."""


class ContractViolationError(ValueError):
    """A caller broke a documented precondition: a shape, kind or range, or
    the independence of rows that a construction or the probe needs."""
