"""Every input file is read through ``kbread.tsv``: UTF-8 with a leading
byte-order mark dropped, and every rejected line reported as ``file:line``
with exit code 2 and nothing written."""

import ast
import glob
import itertools
import os
import shutil
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import kbread
from kbread import kb, tsv
from kbread.kb import KB_FILENAMES, load_kb_dir
from kbread.tsv import FormatError, format_row, iter_folded_rows, iter_lines, iter_rows

from synth import line_iter_lines, line_iter_rows, line_kb_rows, read_outcome
from test_cli import fixture_command, paths, run, trained  # noqa: F401 - fixtures

BOM = b"\xef\xbb\xbf"

#: One bad line of each kind, by the file it is put into: a row of the
#: wrong width, a byte that is not UTF-8, a byte-order mark starting a row
#: that is valid without it, for a labeled corpus a row without a label and,
#: for a corpus, a format line naming no format.
WIDTH, UTF8, MARK, UNLABELED, FORMAT = "width", "utf8", "mark", "unlabeled", "format"
BAD_LINES = {
    "corpus": {WIDTH: b"caught\tbird\twith", UTF8: b"caught\tbird\xff\twith\tnet",
               UNLABELED: b"caught\tbird\twith\tnet", FORMAT: b"format=triple",
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
    # Lines of 7 bytes: the first read stops inside line k + 1, before its
    # byte ``cut``, so the first block ends with line k. Bad bytes on either
    # side of the stop, and on the lines around that one.
    k, cut = divmod(tsv.BLOCK, 7)
    for lineno, at in ((k, 5), (k + 1, cut - 1), (k + 1, cut), (k + 2, 0)):
        lines = [bytearray(b"row\tok\n") for _ in range(k + 3)]
        lines[lineno - 1][at] = 0xFF
        path.write_bytes(b"".join(lines))
        with pytest.raises(FormatError, match=rf"big\.tsv:{lineno}: not valid UTF-8"):
            list(iter_lines(path))


@pytest.mark.parametrize("good_lines", [0, 3000], ids=["near", "far"])
def test_the_first_fault_in_file_order_is_reported(paths, tmp_path, capsys, good_lines):
    """A row of the wrong width on line 2 is reported before a bad byte
    further down, however many good lines lie between the two."""
    text = b"sun\tstar\nsun\n" + b"sun\tstar\n" * good_lines + b"m\xffon\tstar\n"
    path = tmp_path / "two.tsv"
    path.write_bytes(text)
    with pytest.raises(FormatError, match=r"two\.tsv:2: expected 2 columns \(a, b\), got 1"):
        list(iter_rows(path, ("a", "b")))
    kb_dir = tmp_path / "kb"
    shutil.copytree(paths["kb"], kb_dir)
    (kb_dir / "isa.tsv").write_bytes(text)
    capsys.readouterr()
    assert run("kb-check", "--kb-dir", str(kb_dir)) == 2
    assert capsys.readouterr().err == (f"error: {kb_dir / 'isa.tsv'}:2: expected 2 columns "
                                       "(noun, category), got 1\n")


#: Letters that fold to other letters, and the blanks a field may hold.
LETTERS = "aZßİ"
BLANKS = " \xa0\x0c\u2028"
#: A field that folds to a nonempty token: blanks, a letter, then anything
#: but a tab or line end, double spaces, "#" and U+FEFF included.
FIELD = st.tuples(st.text(BLANKS, max_size=2), st.sampled_from(LETTERS),
                  st.text(LETTERS + BLANKS + "#\ufeff", max_size=4)).map("".join)
FAULTS = (None, "width", "empty", "mark", "utf8")


@st.composite
def tsv_files(draw):
    """``(data, width)``: the bytes of a file of ``width`` columns with
    blank, comment and data lines, LF, CRLF and CR line ends, perhaps a
    leading byte-order mark, and at most one faulty line: a wrong width, an
    empty field, a mark after blanks or a byte that is not UTF-8."""
    width = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(FIELD, min_size=width, max_size=width)
    blank = st.text(BLANKS + "\t", max_size=3)
    comment = st.tuples(st.text(BLANKS + "\t", max_size=2),
                        st.text(LETTERS + "\t#", max_size=4)).map("#".join)
    lines = [line.encode() for line in draw(st.lists(
        st.one_of(row.map("\t".join), blank, comment), max_size=12))]
    fault = draw(st.sampled_from(FAULTS))
    if fault:
        fields = draw(row)
        if fault == "width":
            if width == 1 or draw(st.booleans()):
                fields.append(draw(FIELD))
            else:
                fields.pop()
        elif fault == "empty":
            fields[draw(st.integers(0, width - 1))] = draw(st.text(BLANKS, max_size=2))
        elif fault == "mark":
            fields[0] = draw(st.text(BLANKS, max_size=2)) + "\ufeff" + fields[0]
        bad = "\t".join(fields).encode()
        if fault == "utf8":
            at = draw(st.integers(0, len(bad)))
            bad = bad[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + bad[at:]
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = b""
    mark = BOM if draw(st.booleans()) else b""
    return mark + b"".join(line + end for line, end in zip(lines, ends)), width


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    """One directory for every example of a property, which rewrites its file."""
    return tmp_path_factory.mktemp("files")


@settings(deadline=None, max_examples=400)
@given(file=tsv_files(), block=st.integers(min_value=1, max_value=48))
def test_block_readers_agree_with_the_line_readers(files_dir, file, block):
    """Read in blocks of a few dozen bytes, so that a file spans many, every
    reader yields the rows of its line-at-a-time oracle in ``synth`` or
    fails at the same line with the same message."""
    data, width = file
    path = files_dir / "file.tsv"
    path.write_bytes(data)
    columns = tuple(f"c{i}" for i in range(width))
    with mock.patch.object(tsv, "BLOCK", block):
        for reader, oracle, args in [(iter_lines, line_iter_lines, ()),
                                     (iter_rows, line_iter_rows, ()),
                                     (iter_rows, line_iter_rows, (columns,)),
                                     (iter_folded_rows, line_kb_rows, (columns,))]:
            assert read_outcome(reader(path, *args)) == read_outcome(oracle(path, *args))


@pytest.mark.parametrize("block", [tsv.BLOCK, 40], ids=["block", "small-block"])
def test_the_store_equals_the_line_readers_store(kb_dir, monkeypatch, block):
    monkeypatch.setattr(tsv, "BLOCK", block)
    loaded = vars(load_kb_dir(kb_dir))
    monkeypatch.setattr(kb, "iter_folded_rows", line_kb_rows)
    assert loaded == vars(load_kb_dir(kb_dir))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_large_knowledge_file_is_read_in_bounded_memory(tmp_path, end):
    """Memory for a block and its longest line, not for the whole file."""
    path = tmp_path / "isa.tsv"
    path.write_bytes("".join(f"Noun{i:06d}{'X' * 90}\tCategory {i % 97} of{' THINGS' * 14}{end}"
                             for i in range(42_000)).encode())
    assert path.stat().st_size >= 8 << 20
    tracemalloc.start()
    try:
        for _ in iter_folded_rows(path, ("noun", "category")):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * tsv.BLOCK


@pytest.mark.parametrize("fields", [["a\tb", "c"], ["a", "b\n"], ["a", "\rb"], ["#a", "b"],
                                    [" #a"], ["", "#b"], ["\ufeffa", "b"]])
def test_a_row_that_reading_would_split_or_lose_is_rejected(fields):
    with pytest.raises(ValueError):
        format_row(fields)


#: The ``os`` calls that replace or remove a file.
FILE_CHANGES = ("replace", "rename", "remove", "unlink")


def package_modules():
    """``(file name, syntax tree)`` of each module of ``kbread``, by file name."""
    package = os.path.dirname(kbread.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def test_only_tsv_opens_files():
    """Every file the package reads or writes goes through ``tsv``, so
    decoding, the ``file:line`` of a rejected line and when an output
    appears are decided in one place: no other module opens a file, or
    replaces or removes one."""
    opens = [f"{name}:{node.lineno}" for name, tree in package_modules() if name != "tsv.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "open"
                  or getattr(node.func, "attr", None) == "open"
                  or (getattr(node.func, "attr", None) in FILE_CHANGES
                      and getattr(node.func.value, "id", None) == "os"))]
    assert opens == []


def test_only_tsv_formats_rows():
    """Every writer hands its rows to ``tsv.write_rows``, so the row rule
    of ``format_row`` holds for every output by the API: no other module
    names ``format_row``."""
    callers = sorted({name[:-len(".py")] for name, tree in package_modules()
                      if name != "tsv.py" for node in ast.walk(tree)
                      if "format_row" in (getattr(node, "id", None), getattr(node, "attr", None))})
    assert callers == []


def test_every_module_level_import_is_used():
    """Each name a module imports at module level is used in it, so an
    import that a change leaves without a use is caught. ``__init__``
    imports to export, and ``from __future__`` imports bind no name."""
    unused = []
    for name, tree in package_modules():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno}: {b}" for b in bound if b not in used]
    assert unused == []
