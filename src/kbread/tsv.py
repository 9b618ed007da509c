"""Helpers shared by every tab-separated file reader and writer, and the one
module that opens, creates, replaces or removes a file (see :func:`output_set`)."""

from __future__ import annotations

import contextlib
import contextvars
import os

#: The staged temporary file of each target in the open output set.
_staged = contextvars.ContextVar("staged", default=None)


class FormatError(ValueError):
    """A malformed input file. The message always carries ``path:line``."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def norm_token(s: str) -> str:
    """Case-fold a token and collapse internal whitespace to single spaces."""
    return " ".join(s.casefold().split())


def at_line(path, lineno, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ``ValueError`` it raises reported as
    a :class:`FormatError` at ``path:lineno``. Readers build the values a
    row holds through this, so the values' own checks name the row."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(path, lineno, str(exc)) from None


def iter_lines(path):
    """Yield ``(lineno, line)`` for each non-blank line of a UTF-8 text
    file, without its line end; every input file is read through this. A
    leading byte-order mark is dropped; the first line that is not valid
    UTF-8, or whose first non-blank character is another mark, is a :class:`FormatError`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace():
                    # The "in" test first: it is a quarter of lstrip's cost.
                    if "\ufeff" in line and line.lstrip().startswith("\ufeff"):
                        raise FormatError(path, lineno, "a byte-order mark starts the line")
                    yield lineno, line.rstrip("\r\n")
    except UnicodeDecodeError:
        # Text mode decodes in blocks, so find the line again in the bytes.
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise FormatError(path, lineno, "not valid UTF-8") from None
        raise


def iter_data_lines(path, columns=None):
    """Yield ``(lineno, line)`` for each data line of a TSV file: not blank, and
    its first non-blank character not ``#``. Given the names of its ``columns``,
    a line of another number of tab-separated fields is a :class:`FormatError`."""
    for lineno, line in iter_lines(path):
        if "#" in line and line.lstrip().startswith("#"):
            continue
        width = line.count("\t") + 1
        if columns is not None and width != len(columns):
            raise FormatError(path, lineno, f"expected {len(columns)} columns "
                              f"({', '.join(columns)}), got {width}")
        yield lineno, line


def iter_rows(path, columns=None):
    """Yield ``(lineno, fields)`` for each line of :func:`iter_data_lines`,
    its fields stripped of surrounding whitespace."""
    for lineno, line in iter_data_lines(path, columns):
        yield lineno, [f.strip() for f in line.split("\t")]


def format_row(fields) -> str:
    """One data line of a TSV file: the fields joined by tabs. Every writer
    builds its data rows here, so that no row is split or lost on reading: a
    field that holds a tab, CR or LF is a ``ValueError``, and so is a line
    whose first non-blank character is ``#``, which :func:`iter_rows` skips
    as a comment, or U+FEFF, which reading drops or rejects as a byte-order mark."""
    line = "\t".join(fields)
    if (line.count("\t") >= len(fields) or "\n" in line or "\r" in line
            or line.lstrip().startswith(("#", "\ufeff"))):
        raise ValueError(f"a field holds a tab or line end, or the row starts "
                         f"with '#' or U+FEFF: {line!r}")
    return line


def output_path(path) -> str:
    """``path`` with symlinks resolved, so a link is written through and never
    replaced. Its directory must exist and it must be absent or a regular file."""
    target = os.path.realpath(path)
    if not all(os.path.isdir(os.path.dirname(p) or ".") for p in (path, target)):
        raise FileNotFoundError(f"{path}: no such directory")
    if os.path.lexists(target) and not os.path.isfile(target):
        raise OSError(f"{path}: not a regular file")
    return target


@contextlib.contextmanager
def output_set():
    """Stage the block's outputs as hidden files beside their targets; move
    them all into place when it ends, or remove them all on any exception,
    ``KeyboardInterrupt`` included. A write outside a set is a set of one."""
    staged = {}
    token = _staged.set(staged)
    try:
        yield
        for target, temp in list(staged.items()):
            os.replace(temp, target)
            del staged[target]
    finally:
        _staged.reset(token)
        for temp in staged.values():
            with contextlib.suppress(OSError):
                os.remove(temp)


def write_lines(path, lines) -> None:
    """Write a list of lines as UTF-8 with ``\\n`` line ends, ending in a newline
    unless ``lines`` is empty. Two outputs of one set may not be one file."""
    staged = _staged.get()
    if staged is None:
        with output_set():
            return write_lines(path, lines)
    target = output_path(path)
    if target in staged:
        raise ValueError(f"{path}: the same file as another output")
    temp = f"{os.path.dirname(target)}/.{os.path.basename(target)}.{os.getpid()}.tmp"
    # Left by a killed process with our pid; a symlink is removed, not followed.
    with contextlib.suppress(FileNotFoundError):
        os.remove(temp)
    # Created as open(path, "w") creates a file: mode 0o666 less the umask.
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    staged[target] = temp
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
