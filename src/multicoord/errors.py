"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, InvariantError -> 3. reading() is the one rule for an
input file that cannot be read.
"""

from contextlib import contextmanager


class MulticoordError(Exception):
    """Base class for toolkit errors."""


class ConfigError(MulticoordError):
    """Invalid run configuration or command usage."""


class DataError(MulticoordError):
    """Unusable input data (unreadable files, empty inputs, scope mismatches)."""


class InvariantError(MulticoordError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class UndefinedMetricError(MulticoordError):
    """A metric has no defined value on this input (e.g. constant degree vector)."""


class DegenerateSampleError(MulticoordError):
    """A statistical test cannot be computed (zero variance estimate)."""


@contextmanager
def reading(path, what: str, error: type[MulticoordError] = DataError):
    """Open ``path`` as UTF-8 text for the with-block. An OSError or a
    UnicodeDecodeError while opening or reading it, in the block too,
    becomes ``error`` naming the file: "cannot read <what> <path>: ..."."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
