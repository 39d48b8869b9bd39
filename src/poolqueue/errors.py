"""Exception types shared across the package."""


class PoolQueueError(Exception):
    """Base class for solver-specific failures."""


class NoRootError(PoolQueueError):
    """The offered load is at or above 1, so no characteristic root beyond 1
    exists and the infinite-queue geometric solution is undefined."""


class TruncationError(PoolQueueError):
    """The truncated infinite-queue vector would pass its stored-entry budget."""


class NoValidPointError(PoolQueueError):
    """Every candidate batch size was excluded from the optimization."""
