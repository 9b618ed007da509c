"""The value types that hold tokens fold them and reject bad ones when they
are built, and every reader reports such a rejection at its ``path:line``.
The types that hold a PP tuple's words or a compound's tokens build as
their ``__post_init__`` oracles in ``synth`` do, in no more memory."""

import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from kbread.features import PPInstance, read_corpus
from kbread.knom import (CompoundNoun, TypeSequence, TypeSequenceMapping, read_compounds,
                         read_mappings)
from kbread.ternary import TernaryInstance, read_role_tuples, read_tuples
from kbread.tsv import FormatError
from synth import PostInitCompoundNoun, PostInitPPInstance, PostInitTernaryInstance

PAIR = (("type", "country"), ("lex", "astronaut"))

def test_constructors_fold_their_tokens():
    inst = PPInstance(v=" Ate ", n1="Cake", p="WITH", n2="a  Fork", n0="\tSam", label="V")
    assert (inst.v, inst.n1, inst.p, inst.n2, inst.n0) == ("ate", "cake", "with", "a fork", "sam")
    assert PPInstance(v="ate", n1="cake", p="with", n2="fork").n0 is None
    tern = TernaryInstance(" Sam", "ATE", "Cake", "With", "a Fork", relation="r")
    assert (tern.n0, tern.v, tern.n1, tern.p, tern.n2) == ("sam", "ate", "cake", "with", "a fork")
    compound = CompoundNoun([" Japanese ", "Astro  One"], "c1")
    assert compound.tokens == ("japanese", "astro one")
    assert TypeSequenceMapping(" Citizen  Of", 1, 2, TypeSequence(PAIR), 1).relation == "citizen of"


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PPInstance(v="  ", n1="cake", p="with", n2="fork"),
                 "empty token", id="pp-blank-v"),
    pytest.param(lambda: PPInstance(v="ate", n1="cake", p="with", n2=""),
                 "empty token", id="pp-empty-n2"),
    pytest.param(lambda: PPInstance(v="ate", n1="a,b", p="with", n2="fork"),
                 "token contains a comma", id="pp-comma-n1"),
    pytest.param(lambda: PPInstance(v="ate", n1="cake", p="with", n2="fork", n0=" "),
                 "empty token", id="pp-blank-n0"),
    pytest.param(lambda: PPInstance(v="ate", n1="cake", p="with", n2="fork", n0=","),
                 "token contains a comma", id="pp-comma-n0"),
    pytest.param(lambda: PPInstance(v="ate", n1="cake", p="with", n2="fork", label="X"),
                 "label must be V or N", id="pp-label"),
    pytest.param(lambda: TernaryInstance("", "ate", "cake", "with", "fork"),
                 "empty token", id="ternary-empty-n0"),
    pytest.param(lambda: TernaryInstance("sam", "ate", "cake", "with", "b,c"),
                 "token contains a comma", id="ternary-comma-n2"),
    pytest.param(lambda: CompoundNoun(("japanese", " "), "c1"),
                 "empty field", id="compound-blank-token"),
    pytest.param(lambda: CompoundNoun(("japanese", "astronaut"), ""),
                 "empty field", id="compound-empty-id"),
    pytest.param(lambda: CompoundNoun(("japanese",), "c1"),
                 "at least two tokens", id="compound-one-token"),
    pytest.param(lambda: CompoundNoun(("japanese", "astro lex:one"), "c1"),
                 "element break", id="compound-lex-break"),
    pytest.param(lambda: CompoundNoun(("japanese", "x  TYPE:y"), "c1"),
                 "element break", id="compound-upper-type-break"),
    pytest.param(lambda: TypeSequence((("type", "country"), ("word", "astronaut"))),
                 "unknown sequence element kind 'word'", id="sequence-kind"),
    pytest.param(lambda: TypeSequence((("TYPE", "country"),)),
                 "unknown sequence element kind", id="sequence-upper-kind"),
    pytest.param(lambda: TypeSequence((("type", "foo lex:bar"), ("lex", "astro"))),
                 "type 'foo lex:bar' holds a sequence element break", id="sequence-break"),
    pytest.param(lambda: TypeSequence(()), "empty sequence", id="sequence-empty"),
    pytest.param(lambda: TypeSequenceMapping(" ", 1, 2, TypeSequence(PAIR), 1),
                 "empty field", id="mapping-blank-relation"),
    pytest.param(lambda: TypeSequenceMapping("r", 2, 2, TypeSequence(PAIR), 1),
                 "argument positions out of range", id="mapping-same-positions"),
    pytest.param(lambda: TypeSequenceMapping("r", 0, 2, TypeSequence(PAIR), 1),
                 "argument positions out of range", id="mapping-position-zero"),
    pytest.param(lambda: TypeSequenceMapping("r", 1, 2, TypeSequence(PAIR), 0),
                 "support must be >= 1", id="mapping-support-zero"),
])
def test_constructors_reject_bad_tokens(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("reader, row, message", [
    (read_corpus, "see\t\twith\tc", "empty token"),
    (read_corpus, " \tsee\ta\twith\tc\tV", "empty token"),
    (read_corpus, "sam\tsee\ta\twith\tc\tx", "label must be V or N, got 'X'"),
    (read_tuples, "\tsee\ta\twith\tc", "empty token"),
    (read_role_tuples, "sam\tbuy\tring\t \tmom\tnp_v_np_pp.beneficiary", "empty token"),
    (read_compounds, "c1\tjapanese\t", "empty field"),
    (read_compounds, "\tjapanese\tastronaut", "empty field"),
    (read_compounds, "c1\tjapanese\tAstro Lex:one",
     "token 'astro lex:one' holds a sequence element break"),
    (read_mappings, "r\t1\t2\tword:a lex:b\t3", "bad sequence element 'word:a'"),
    (read_mappings, "r\t1\t2\ttype:a TYPE:b\t3", "bad sequence element 'TYPE:b'"),
    (read_mappings, "r\t1\t2\ttype:a type: \t3", "bad sequence element 'type:'"),
    (read_mappings, " \t1\t2\ttype:a lex:b\t3", "empty field"),
    (read_mappings, "r\t1\t3\ttype:a lex:b\t3", "argument positions out of range"),
    (read_mappings, "r\t1\t2\ttype:a lex:b\t-7", "support must be >= 1"),
])
def test_readers_report_rejected_rows_at_their_line(tmp_path, reader, row, message):
    path = tmp_path / "rows.tsv"
    path.write_text("# one data row\n" + row + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"rows\.tsv:2: " + message):
        reader(path)


# -- the one-pass constructors against their __post_init__ oracles -----------

#: Pieces of words: empty, commas, whitespace that ``str.split`` breaks on
#: (``\xa0``, ``\x1c``, U+2028, double spaces), case traps (``ß`` folds to
#: "ss", ``İ`` to "i̇") and sequence element breaks in either case.
PIECES = st.sampled_from(["", ",", "\xa0", "\x1c", "\u2028", "  ", " ", "ß", "İ",
                          " lex:", "TYPE:", " TYPE:", "\xa0any:", "a", "Fork"])
RAW_WORDS = st.one_of(st.lists(PIECES, max_size=4).map("".join), st.text(max_size=6))
LABELS = st.sampled_from(["V", "N", "v", "X", None])
EXTRAS = st.one_of(st.none(), st.text(max_size=4))

#: (shipped class, oracle, strategy of positional arguments).
PAIRS = [
    pytest.param(PPInstance, PostInitPPInstance,
                 st.tuples(RAW_WORDS, RAW_WORDS, RAW_WORDS, RAW_WORDS,
                           st.one_of(st.none(), RAW_WORDS), LABELS), id="pp"),
    pytest.param(TernaryInstance, PostInitTernaryInstance,
                 st.tuples(RAW_WORDS, RAW_WORDS, RAW_WORDS, RAW_WORDS, RAW_WORDS,
                           EXTRAS, EXTRAS), id="ternary"),
    pytest.param(CompoundNoun, PostInitCompoundNoun,
                 st.tuples(st.lists(RAW_WORDS, max_size=4), RAW_WORDS), id="compound"),
]


def built(cls, *args, **kwargs):
    """The instance, or the text of the ``ValueError`` building it raised."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def field_values(obj):
    return obj if isinstance(obj, str) else tuple(getattr(obj, f.name) for f in fields(obj))


def without_class_name(obj):
    return repr(obj)[len(type(obj).__qualname__):]


@pytest.mark.parametrize("cls, oracle, arguments", PAIRS)
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_constructors_equal_their_post_init_oracles(cls, oracle, arguments, data):
    args = data.draw(arguments)
    new, old = built(cls, *args), built(oracle, *args)
    assert field_values(new) == field_values(old)
    if isinstance(new, str):
        return
    names = [f.name for f in fields(cls)]
    assert cls(**dict(zip(names, args))) == new
    assert new == cls(*field_values(new)) and hash(new) == hash(old)
    assert without_class_name(new) == without_class_name(old)
    # replace builds anew, so it folds and checks the replacing value.
    name, value = names[0], data.draw(arguments)[0]
    assert (field_values(built(replace, new, **{name: value}))
            == field_values(built(replace, old, **{name: value})))
    for obj in (new, old):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)


#: One instance from five words, for each class and for its oracle.
BUILDERS = {
    "pp": (lambda *words: PPInstance(*words, "V"),
           lambda *words: PostInitPPInstance(*words, "V")),
    "ternary": (lambda *words: TernaryInstance(*words, relation="r"),
                lambda *words: PostInitTernaryInstance(*words, relation="r")),
    "compound": (lambda *words: CompoundNoun(words, "c1"),
                 lambda *words: PostInitCompoundNoun(words, "c1")),
}

WORDS_2000 = [(f"Verb{i}", f"noun {i}", "With", f"Tool{i % 7}", f"Man{i}") for i in range(2000)]


def traced_size(build):
    """Bytes still allocated after building 2,000 instances and keeping them."""
    tracemalloc.start()
    try:
        kept = [build(*words) for words in WORDS_2000]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == len(WORDS_2000)
    return size


def traced_sizes():
    """``traced_size`` of each class and of its oracle, each first having
    rejected 100 builds. On CPython an instance keeps its attributes in a
    value array shared in layout with the class's earlier instances, unless
    the layout ran out of room, which rejected builds can cause; then, as
    when ``__dict__`` is touched, each instance holds a dict of about 200
    bytes more. Run in a fresh interpreter, since a class's first builds
    decide this for the rest of the process."""
    sizes = {}
    for kind, builders in BUILDERS.items():
        for build in builders:
            for _ in range(100):
                with contextlib.suppress(ValueError):
                    build("", "", "", "", "")
        sizes[kind] = [traced_size(build) for build in builders]
    return sizes


@pytest.fixture(scope="module")
def fresh_traced_sizes():
    script = "import json, test_tokens; print(json.dumps(test_tokens.traced_sizes()))"
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


@pytest.mark.parametrize("kind", BUILDERS)
def test_instances_take_no_more_memory_than_their_oracles(fresh_traced_sizes, kind):
    size, oracle_size = fresh_traced_sizes[kind]
    assert size <= 1.05 * oracle_size
