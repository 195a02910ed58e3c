"""Exception types shared across the package."""


class ResolutionError(RuntimeError):
    """Grid resolution is insufficient for the requested state."""


class InstabilityError(RuntimeError):
    """A time step produced growth incompatible with the trusted step size."""


__all__ = ["ResolutionError", "InstabilityError"]
