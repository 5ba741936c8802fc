"""Exception types shared across the package."""


class DiffOceanError(Exception):
    """Base class for all diffocean errors."""


class ShapeError(DiffOceanError, ValueError):
    """Array shape does not match the grid or a partner array."""


class StaggeringError(DiffOceanError, ValueError):
    """Fields on incompatible grid positions were combined without interpolation."""


class DomainError(DiffOceanError, ValueError):
    """Input outside the mathematical domain of an operation."""


class CFLError(DiffOceanError, ValueError):
    """Time step violates the gravity-wave CFL bound."""


class DampingError(CFLError):
    """Time step violates the explicit stability bound of the damping terms."""


class NonFiniteError(DiffOceanError, FloatingPointError):
    """A model step produced NaN or Inf values."""


class UnregisteredPrimitiveError(DiffOceanError, TypeError):
    """A differentiated function used an operation with no registered rules."""


class DivergenceError(DiffOceanError, RuntimeError):
    """An optimization loop failed to decrease its objective."""


class ConfigError(DiffOceanError, ValueError):
    """Invalid configuration file or override."""


class SnapshotError(DiffOceanError, ValueError):
    """Invalid snapshot file."""


class SnapshotMagicError(SnapshotError):
    """Snapshot file does not start with the expected magic bytes."""


class SnapshotVersionError(SnapshotError):
    """Snapshot format version is not supported."""


class SnapshotTruncatedError(SnapshotError):
    """Snapshot payload ended before the declared field data."""


class SnapshotShapeError(SnapshotError):
    """Snapshot grid shape does not match the expected grid."""
