"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: ConfigError -> 1 and
DataError -> 2. reading() is the one rule for an input file that cannot
be read.
"""

from contextlib import contextmanager


class MulticoordError(Exception):
    """Base class for toolkit errors."""


class ConfigError(MulticoordError):
    """Invalid run configuration or command usage."""


class DataError(MulticoordError):
    """Unusable input data (unreadable files, empty inputs, scope mismatches)."""


class UndefinedMetricError(MulticoordError):
    """No value is defined on this input: for a metric (a constant degree
    vector, a zero descriptor vector) or for a statistical test (a zero
    rank variance estimate)."""


class RowError(ValueError):
    """Row ``row`` (0-based, in input order) of a table that its reader
    cannot take, and why; a reader turns it into a DataError naming the
    row's line."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


def _first_bad_line(path) -> str | None:
    """Where the first byte of ``path`` that is not UTF-8 lies, as "line
    <n>, byte <k>: not UTF-8 (<reason>)" counted from 1; None if every
    line decodes. Lines split at 0x0A, which no UTF-8 sequence contains."""
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return f"line {line_no}, byte {exc.start + 1}: not UTF-8 ({exc.reason})"
    except OSError:
        pass
    return None


@contextmanager
def reading(path, what: str, error: type[MulticoordError] = DataError):
    """Open ``path`` as UTF-8 text for the with-block. An OSError or a
    UnicodeDecodeError while opening or reading it, in the block too,
    becomes ``error`` naming the file: "cannot read <what> <path>: ...".
    A decode error names the line and byte of the first bad byte: the
    decoder's own position counts from the chunk it was decoding."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {what} {path}: {_first_bad_line(path) or exc}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
