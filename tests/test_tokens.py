"""The value types that hold tokens fold them and reject bad ones when they
are built, and every reader reports such a rejection at its ``path:line``."""

import pytest

from kbread.features import PPInstance, read_corpus
from kbread.knom import (CompoundNoun, TypeSequence, TypeSequenceMapping, read_compounds,
                         read_mappings)
from kbread.ternary import TernaryInstance, read_role_tuples, read_tuples
from kbread.tsv import FormatError

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
