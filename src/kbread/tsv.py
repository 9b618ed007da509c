"""Small helpers shared by every tab-separated file reader and writer in the package."""

from __future__ import annotations


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


def iter_rows(path):
    """Yield ``(lineno, fields)`` for each data line of a TSV file.

    Blank lines and lines starting with ``#`` are skipped. Fields are
    stripped of surrounding whitespace but otherwise untouched.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\r\n")
            if not stripped.strip() or stripped.lstrip().startswith("#"):
                continue
            yield lineno, [f.strip() for f in stripped.split("\t")]


def write_lines(path, lines) -> None:
    """Write a list of lines as UTF-8 with ``\\n`` line ends; the file ends
    with a newline unless ``lines`` is empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
