"""Exception types shared across the kernel, catalog and selection engine."""


class BoundforgeError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(BoundforgeError):
    """Rejected arguments, ground input or run configuration (CLI exit 2)."""


class CatalogError(BoundforgeError):
    """A catalog expression is malformed or inconsistent (bad node, guard or divisor)."""


class CatalogSoundnessError(BoundforgeError):
    """A catalog bound failed while being posted on a fresh feature box."""


class InfeasibleModelError(BoundforgeError):
    """The object constraint itself could not be posted."""


class InternalInvariantError(BoundforgeError):
    """A selection-engine invariant was violated; indicates a bug."""
