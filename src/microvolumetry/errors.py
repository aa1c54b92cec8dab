"""Exception types shared across the package.

`cli._EXIT_CODES` maps these, ConsistencyError aside, onto the CLI's exit
codes, and maps OSError and MemoryError to 3.
"""


class ShapeError(ValueError):
    """Tensor extents do not satisfy an operation's shape contract."""


class ValidationError(ValueError):
    """Invalid argument, spec, or config value."""


class PgmFormatError(ValueError):
    """Malformed PGM file; message carries the byte offset of the problem."""


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


class DataMismatchError(ValueError):
    """Dataset contents disagree with what a command expects."""


class ConsistencyError(RuntimeError):
    """Internal invariant broken (e.g. a backward cache not made by forward)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""
