"""Exception types shared across the package."""


class InstabilityError(RuntimeError):
    """A time step produced growth incompatible with the trusted step size."""


__all__ = ["InstabilityError"]
