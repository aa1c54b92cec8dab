"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: validation/config problems
exit 2, OS-level I/O failures exit 3, data mismatches exit 4, numeric
divergence exits 5.
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
