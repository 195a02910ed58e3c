"""Exception types shared across the package."""


class InstabilityError(RuntimeError):
    """A run has nothing left to report: run_ensemble raises it when every
    trajectory aborted."""


__all__ = ["InstabilityError"]
