"""Exception types shared across the kernel, catalog and selection engine."""


class BoundforgeError(Exception):
    """Base class for all library errors."""


class InvalidDomainError(BoundforgeError):
    """Variable created with an empty range (lo > hi)."""


class InvalidArgumentError(BoundforgeError):
    """Malformed arguments to a kernel or selector operation."""


class InvalidMarkError(BoundforgeError):
    """Trail mark is stale or belongs to another model."""


class InvalidInputError(BoundforgeError):
    """Ground data rejected by a feature extractor."""


class CatalogError(BoundforgeError):
    """A catalog expression is malformed or inconsistent (bad node, guard or divisor)."""


class CatalogSoundnessError(BoundforgeError):
    """A catalog bound failed while being posted on a fresh feature box."""


class InfeasibleModelError(BoundforgeError):
    """The object constraint itself could not be posted."""


class InternalInvariantError(BoundforgeError):
    """A selection-engine invariant was violated; indicates a bug."""
