"""Every input file is read through ``kbread.tsv``: UTF-8 with a leading
byte-order mark dropped, and every rejected line reported as ``file:line``
with exit code 2 and nothing written."""

import ast
import glob
import itertools
import os
import shutil
from pathlib import Path

import pytest

import kbread
from kbread.kb import KB_FILENAMES
from kbread.tsv import FormatError, format_row, iter_lines

from test_cli import fixture_command, paths, run, trained  # noqa: F401 - fixtures

BOM = b"\xef\xbb\xbf"

#: One bad line of each kind, by the file it is put into: a row of the
#: wrong width, a byte that is not UTF-8, a byte-order mark starting a row
#: that is valid without it and, for a labeled corpus, a row without a label.
WIDTH, UTF8, MARK, UNLABELED = "width", "utf8", "mark", "unlabeled"
BAD_LINES = {
    "corpus": {WIDTH: b"caught\tbird\twith", UTF8: b"caught\tbird\xff\twith\tnet",
               UNLABELED: b"caught\tbird\twith\tnet",
               MARK: BOM + b"sam\tcaught\tbird\twith\tnet\tV"},
    "tuples": {WIDTH: b"sam\tate\tcake\twith", UTF8: b"sam\tate\tcake\xff\twith\tfork",
               MARK: BOM + b"sam\tate\tcake\twith\tfork"},
    "roles": {WIDTH: b"sue\tbuy\tearrings\tfor\tmary",
              UTF8: b"sue\tbuy\tearrings\tfor\tm\xffry\tnp_v_np_pp.beneficiary",
              MARK: BOM + b"sue\tbuy\tearrings\tfor\tmary\tnp_v_np_pp.beneficiary"},
    "compounds": {WIDTH: b"c9\tjapanese", UTF8: b"c9\tjapanese\tastron\xffut",
                  MARK: BOM + b"c9\tjapanese\tastronaut"},
    "mappings": {WIDTH: b"citizenof\t2\t1", UTF8: b"citizenof\t2\t1\ttype:x\xff\t3",
                 MARK: BOM + b"citizenof\t1\t2\ttype:x type:y\t3"},
    "model": {WIDTH: b"F15:(with)\t0.5\t1", UTF8: b"F15:(w\xffth)\t0.5",
              MARK: BOM + b"F15:(with)\t0.5"},
    "config": {WIDTH: b"min_support=3\t4", UTF8: b"min_support=\xff3",
               MARK: BOM + b"# more settings"},
    "svo.tsv": {WIDTH: b"net\tcaught\tbutterfly", UTF8: b"net\tcaught\tbutt\xffrfly\t5",
                MARK: BOM + b"net\tcaught\tbutterfly\t5"},
    "isa.tsv": {WIDTH: b"sun\tstar\tbright", UTF8: b"s\xffn\tstar",
                MARK: BOM + b"sun\tstar"},
    "roles.tsv": {WIDTH: b"caught\tnet", UTF8: b"caught\tn\xffet\tinstrument",
                  MARK: BOM + b"caught\tnet\tinstrument"},
    "prepdefs.tsv": {WIDTH: b"with", UTF8: b"with\th\xffs",
                     MARK: BOM + b"with\thas"},
    "synsets.tsv": {WIDTH: b"run\tjog", UTF8: b"run,j\xffg",
                    MARK: BOM + b"run,jog"},
    "relations.tsv": {WIDTH: b"worksfor\tshubert", UTF8: b"worksfor\tshubert\tm\xffry",
                      MARK: BOM + b"worksfor\tshubert\tmary"},
}

#: (subcommand, option, kind of file, the fixture file it replaces); a
#: knowledge file is named for all three.
READS = [
    ("train", "--labeled", "corpus", "labeled"),
    ("train", "--unlabeled", "corpus", "unlabeled"),
    ("predict", "--input", "corpus", "labeled"),
    ("eval", "--test", "corpus", "labeled"),
    ("eval", "--collins-train", "corpus", "labeled"),
    ("ternary-extract", "--tuples", "tuples", "tuples"),
    ("ternary-templates", "--labeled-tuples", "roles", "roles"),
    ("knom-predict", "--compounds", "compounds", "compounds"),
    ("knom-predict", "--mappings", "mappings", "mappings"),
    ("predict", "--model", "model", "model"),
    ("knom-mine", "--config", "config", "config"),
    *[("kb-check", name, name, name) for name in KB_FILENAMES.values()],
    ("ternary-extract", "relations.tsv", "relations.tsv", "relations.tsv"),
]
LABELED = {("train", "--labeled"), ("eval", "--test"), ("eval", "--collins-train")}
CASES = [pytest.param(name, option, kind, source, bad,
                      id=f"{name}:{option.lstrip('-')}-{bad}")
         for name, option, kind, source in READS
         for bad in BAD_LINES[kind]
         if bad != UNLABELED or (name, option) in LABELED]


def fixture_file(source, paths, trained, tmp_path):
    """The path of the valid input ``source`` names: a key of ``paths``,
    the model or mappings of ``trained``, a config file, or a KB file name."""
    if source == "config":
        path = tmp_path / "run.cfg"
        path.write_text("# settings\nmin_support=3\n", encoding="utf-8")
        return str(path)
    if source.endswith(".tsv"):
        return os.path.join(paths["kb"], source)
    return dict(paths, model=trained[0], mappings=trained[1])[source]


def kb_copy(out_dir):
    return out_dir.with_name(out_dir.name + "_kb")


def command_reading(name, option, path, paths, trained, out_dir):
    """A fixture argument list for ``name`` that reads ``path`` as ``option``.
    For a KB file name, ``path`` is copied into a copy of the fixture KB, the
    directory :func:`kb_copy` names."""
    argv = fixture_command(name, paths, trained, out_dir)
    if option.endswith(".tsv"):
        shutil.copytree(paths["kb"], kb_copy(out_dir))
        shutil.copy(path, kb_copy(out_dir) / option)
        return [*argv[:2], str(kb_copy(out_dir)), *argv[3:]]
    if option in argv:
        argv[argv.index(option) + 1] = path
        return argv
    return [*argv, option, path]


@pytest.mark.parametrize("name,option,kind,source,bad", CASES)
def test_malformed_input_exits_2_at_its_line(paths, trained, tmp_path, capsys,
                                             name, option, kind, source, bad):
    lines = Path(fixture_file(source, paths, trained, tmp_path)).read_bytes().splitlines()
    broken = tmp_path / ("broken_" + os.path.basename(option))
    broken.write_bytes(b"\n".join(lines[:1] + [BAD_LINES[kind][bad]] + lines[1:]) + b"\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = command_reading(name, option, str(broken), paths, trained, out_dir)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    shown = kb_copy(out_dir) / option if option.endswith(".tsv") else broken
    assert err.startswith(f"error: {shown}:2:"), err
    assert bad != MARK or "byte-order mark" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("first,second", itertools.combinations(KB_FILENAMES.values(), 2))
def test_first_bad_knowledge_file_in_load_order_is_reported(paths, tmp_path, capsys,
                                                            first, second):
    """Of two bad knowledge files, the one that comes first in
    ``KB_FILENAMES`` is reported: roles.tsv before synsets.tsv, although
    role rows are indexed only once the synonym groups are merged."""
    kb_dir = tmp_path / "kb"
    shutil.copytree(paths["kb"], kb_dir)
    for name in (first, second):
        lines = (kb_dir / name).read_bytes().splitlines()
        (kb_dir / name).write_bytes(b"\n".join(lines[:1] + [BAD_LINES[name][WIDTH]] + lines[1:]))
    capsys.readouterr()
    assert run("kb-check", "--kb-dir", str(kb_dir)) == 2
    assert capsys.readouterr().err.startswith(f"error: {kb_dir / first}:2:")


@pytest.mark.parametrize("name,option,source", [
    ("kb-check", "isa.tsv", "isa.tsv"),          # a "#" header line first
    ("train", "--labeled", "labeled"),           # a format=quad line first
    ("knom-mine", "--config", "config"),
    ("predict", "--model", "model"),
    ("knom-predict", "--compounds", "compounds"),  # a data row first
])
def test_byte_order_mark_is_dropped(paths, trained, tmp_path, capsys, name, option, source):
    def outputs(tag, path):
        out_dir = tmp_path / tag
        out_dir.mkdir()
        capsys.readouterr()
        assert run(*command_reading(name, option, path, paths, trained, out_dir)) == 0
        stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
        return stdout, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    original = fixture_file(source, paths, trained, tmp_path)
    marked = tmp_path / ("bom_" + os.path.basename(original))
    marked.write_bytes(BOM + Path(original).read_bytes())
    assert outputs("marked", str(marked)) == outputs("plain", original)


@pytest.mark.parametrize("text,lineno", [("a\n\ufeffb\n", 2), ("a\n\n \xa0\ufeffb\n", 3),
                                         ("\ufeff\ufeffa\n", 1), ("a\n\ufeff\n", 2),
                                         ("a\n\ufeff# note\n", 2)])
def test_a_line_starting_with_a_byte_order_mark_is_rejected(tmp_path, text, lineno):
    """Only a file's first mark is dropped: a later one that starts a line,
    after blanks or not, is rejected at that line, as format_row rejects
    such a row on writing."""
    path = tmp_path / "marked.tsv"
    path.write_text(text, encoding="utf-8-sig")
    with pytest.raises(FormatError, match=rf"marked\.tsv:{lineno}: .*byte-order mark"):
        list(iter_lines(path))


def test_a_byte_order_mark_inside_a_line_is_kept(tmp_path):
    path = tmp_path / "marked.tsv"
    path.write_text("a\t\ufeffb\nc\ufeff\n", encoding="utf-8-sig")
    assert list(iter_lines(path)) == [(1, "a\t\ufeffb"), (2, "c\ufeff")]


def test_bad_utf8_after_the_first_read_block_is_found_at_its_line(tmp_path):
    path = tmp_path / "big.tsv"              # line 5001 is a blank CRLF line
    path.write_bytes(b"row\tok\n" * 5000 + b"\r\nbad\t\xc3\n")
    with pytest.raises(FormatError, match=r"big\.tsv:5002: not valid UTF-8"):
        list(iter_lines(path))


@pytest.mark.parametrize("fields", [["a\tb", "c"], ["a", "b\n"], ["a", "\rb"], ["#a", "b"],
                                    [" #a"], ["", "#b"], ["\ufeffa", "b"]])
def test_a_row_that_reading_would_split_or_lose_is_rejected(fields):
    with pytest.raises(ValueError):
        format_row(fields)


#: The ``os`` calls that replace or remove a file.
FILE_CHANGES = ("replace", "rename", "remove", "unlink")


def test_only_tsv_opens_files():
    """Every file the package reads or writes goes through ``tsv``, so
    decoding, the ``file:line`` of a rejected line and when an output
    appears are decided in one place: no other module opens a file, or
    replaces or removes one."""
    package = os.path.dirname(kbread.__file__)
    opens = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "tsv.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        opens += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "open"
                       or getattr(node.func, "attr", None) == "open"
                       or (getattr(node.func, "attr", None) in FILE_CHANGES
                           and getattr(node.func.value, "id", None) == "os"))]
    assert opens == []
