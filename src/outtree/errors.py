"""Exception types shared across the package."""


class OutTreeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OutTreeError):
    """Invalid run configuration (bad flags, malformed config file)."""


class DataError(OutTreeError):
    """Malformed or inconsistent input data."""


class NumericalFaultError(OutTreeError):
    """A computation produced a value that is impossible for valid inputs,
    e.g. an LU sign <= 0, a singular or an inaccurate inverse of a bordered
    Laplacian whose weights support an out-tree."""


class ZeroPartitionError(OutTreeError):
    """No out-tree has positive weight (the partition function is zero):
    none fits inside the support of the log-weights from a root of positive
    weight. Decided from that support alone, never from a factorization."""
