"""Exception types shared across the package."""


class OutTreeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OutTreeError):
    """Invalid run configuration (bad flags, malformed config file)."""


class DataError(OutTreeError):
    """Malformed or inconsistent input data."""


class NumericalFaultError(OutTreeError):
    """A computation produced a value that is impossible for valid inputs,
    e.g. a negative determinant of a bordered Laplacian."""


class ZeroPartitionError(OutTreeError):
    """No out-tree has positive weight (the partition function is zero)."""
