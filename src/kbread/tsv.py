"""Helpers shared by every tab-separated file reader and writer, and the one
module that opens, creates, replaces or removes a file (see :func:`output_set`).

Every input is read in blocks of whole lines (see :func:`_iter_blocks`) by
:func:`iter_lines` (a model file), :func:`iter_folded_rows` (a knowledge
file) or :func:`iter_rows` (any other). A reader looks a line at a time for
a mark, a comment or whitespace to strip only in a block that holds one.
Every output table is written by :func:`write_rows`, the one caller of the
row formatter :func:`format_row`.
"""

from __future__ import annotations

import codecs
import contextlib
import contextvars
import os
import re

#: The size in bytes of the blocks an input is read in (see :func:`_iter_blocks`).
BLOCK = 1 << 16
#: A line whose first non-blank character is U+FEFF (``\s`` is ``str.isspace``).
_MARK = re.compile(r"^[^\S\n]*\ufeff", re.MULTILINE)

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


def _byte_blocks(fh):
    """The bytes of a binary file in blocks of whole lines: the next
    :data:`BLOCK` bytes after the last block, up to their last line end."""
    rest = b""
    while chunk := fh.read(BLOCK):
        data = rest + chunk
        # A CR that ends the bytes read may be the first half of a CRLF.
        end = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if end:
            yield data[:end]
        rest = data[end:]
    if rest:
        yield rest


def _iter_blocks(path):
    """Yield ``(lineno, text)`` for blocks of whole lines of a UTF-8 text
    file, ``lineno`` the number of the block's first line; every input file
    is opened and decoded here, and nowhere else. Lines end in LF, CRLF or
    CR, each given as ``"\\n"`` in ``text``. A leading byte-order mark is
    dropped; the first line that is not valid UTF-8, or whose first
    non-blank character is another mark, is a :class:`FormatError`, raised
    once the lines before it are yielded."""
    with open(path, "rb") as fh:
        lineno = 1
        for data in _byte_blocks(fh):
            if lineno == 1 and data.startswith(codecs.BOM_UTF8):
                data = data[len(codecs.BOM_UTF8):]
            try:
                text, fault = data.decode("utf-8"), None
            except UnicodeDecodeError as exc:
                text, fault = data[:exc.start].decode("utf-8"), "not valid UTF-8"
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            if fault:                   # keep the lines before the bad one
                text = text[:text.rfind("\n") + 1]
            if "\ufeff" in text and (mark := _MARK.search(text)):
                text, fault = text[:mark.start()], "a byte-order mark starts the line"
            if text:
                yield lineno, text
            lineno += text.count("\n")
            if fault:
                raise FormatError(path, lineno, fault)


def _lines(lineno, text):
    """The ``(lineno, line)`` of each non-blank line of a block that starts at line ``lineno``."""
    return [(n, line) for n, line in enumerate(text.split("\n"), lineno)
            if line and not line.isspace()]


def _data_lines(lineno, text):
    """The ``(lineno, line)`` of each data line of a block of :func:`_iter_blocks`
    that starts at line ``lineno``: not blank, and its first non-blank
    character not ``#``."""
    lines = _lines(lineno, text)
    if "#" in text:
        lines = [(n, line) for n, line in lines
                 if not ("#" in line and line.lstrip().startswith("#"))]
    return lines


def _spaced(text) -> bool:
    """Whether ``text`` may hold whitespace other than tab and LF: a space, or
    a character that is not printable, as every other whitespace character is."""
    return " " in text or not text.replace("\t", "").replace("\n", "").isprintable()


def _width_error(path, lineno, columns, width) -> FormatError:
    """The error for a line of ``width`` fields in a file of ``columns``."""
    return FormatError(path, lineno, f"expected {len(columns)} columns "
                       f"({', '.join(columns)}), got {width}")


def iter_lines(path):
    """Yield ``(lineno, line)`` for each non-blank line of a text file that
    :func:`_iter_blocks` reads, without its line end."""
    for block in _iter_blocks(path):
        yield from _lines(*block)


def iter_rows(path, columns=None):
    """Yield ``(lineno, fields)`` for each data line of a TSV file (see
    :func:`_data_lines`), its fields stripped only in a block that holds
    whitespace other than tab and LF (see :func:`_spaced`). Given the names
    of its ``columns``, a line of another width is a :class:`FormatError`."""
    for lineno, text in _iter_blocks(path):
        strip = _spaced(text)
        for lineno, line in _data_lines(lineno, text):
            fields = line.split("\t")
            if columns is not None and len(fields) != len(columns):
                raise _width_error(path, lineno, columns, len(fields))
            yield lineno, [f.strip() for f in fields] if strip else fields


def iter_folded_rows(path, columns):
    """Yield ``(lineno, fields)`` for each data line of a knowledge file,
    each field folded as ``norm_token`` folds it; a line of the wrong width
    or with an empty field is a :class:`FormatError`. Each block of
    :func:`_iter_blocks` is folded once and tested folded: ``casefold`` makes
    and removes no ``#``, whitespace or line end and keeps printability, so
    the lines, fields and blanks are those of the text as written."""
    for lineno, text in _iter_blocks(path):
        text = text.casefold()
        collapse = _spaced(text)
        for lineno, line in _data_lines(lineno, text):
            fields = line.split("\t")
            if len(fields) != len(columns):
                raise _width_error(path, lineno, columns, len(fields))
            if collapse:
                fields = [" ".join(f.split()) for f in fields]
            if not all(fields):
                raise FormatError(path, lineno, "empty field")
            yield lineno, fields


def format_row(fields) -> str:
    """One data line of a TSV file: the fields joined by tabs. :func:`write_rows`
    builds every data row here, so that no row is split or lost on reading: a
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


def write_rows(path, rows, header=()) -> None:
    """Write the ``header`` lines as they are, then each row, a list of
    fields, as :func:`format_row` joins it (see :func:`write_lines`)."""
    write_lines(path, [*header, *map(format_row, rows)])
