import random

import pytest
from hypothesis import given, settings, strategies as st

from kbread.cli import main
from kbread.kb import KB_FILENAMES, KnowledgeBase, load_kb, load_kb_dir
from kbread.tsv import FormatError, iter_folded_rows, norm_token
from synth import (KB_CATEGORIES, KB_NOUNS, KB_VERBS, lookup_svo_exists, random_kb_inputs,
                   read_outcome, reference_kb_rows, scan_roles_for, scan_svo_any_verb)


def make_kb(tmp_path, **contents):
    paths = {}
    for name, text in contents.items():
        path = tmp_path / f"{name}.tsv"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return load_kb(**paths)


class TestLoading:
    def test_fixture_triples_queryable(self, kb):
        assert kb.svo_exists("net", "caught", "butterfly")
        assert kb.svo_exists("butterfly", "has", "spots")
        assert kb.types_of("butterfly") == {"animal"}

    def test_empty_paths_give_empty_stores(self):
        kb = load_kb()
        assert not kb.svo_exists("a", "b", "c")
        assert kb.svo_any_verb("a", "b") == set()
        assert kb.types_of("a") == frozenset()
        assert kb.roles_for("a", "b") == set()
        assert kb.prep_senses("with") == []
        assert kb.synonyms_of("run") == frozenset()
        assert kb.relations_between("a", "b") == set()

    def test_duplicate_svo_rows_sum(self, tmp_path):
        kb = make_kb(tmp_path, svo="cat\tchased\tmouse\t2\ncat\tchased\tmouse\t2\n")
        assert kb.svo_exists("cat", "chased", "mouse")

    def test_malformed_svo_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "svo.tsv"
        path.write_text("a\tb\tc\t1\na\tb\tc\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_kb(svo=str(path))
        assert "svo.tsv:2" in str(err.value)

    def test_zero_count_rejected(self, tmp_path):
        path = tmp_path / "svo.tsv"
        path.write_text("a\tb\tc\t0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_kb(svo=str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        kb = make_kb(tmp_path, isa="# comment\n\n \t# indented\tcomment\nsun\tstar\n")
        assert kb.types_of("sun") == {"star"}

    def test_two_loads_answer_identically(self, kb_dir):
        a = load_kb_dir(kb_dir)
        b = load_kb_dir(kb_dir)
        probes = [("net", "caught", "butterfly"), ("butterfly", "using", "net"),
                  ("x", "y", "z")]
        for s, v, o in probes:
            assert a.svo_exists(s, v, o) == b.svo_exists(s, v, o)
        assert a.prep_senses("with") == b.prep_senses("with")
        assert a.stats() == b.stats()


GOOD_ROWS = {
    "svo": "net\tcaught\tbutterfly\t3",
    "isa": "sun\tstar",
    "roles": "caught\tnet\tinstrument",
    "prepdefs": "with\tusing",
    "synsets": "run,jog",
    "relations": "worksfor\tshubert\tcnn",
}


# A one-column synsets row cannot have an empty field: a line holding only
# whitespace is skipped as blank.
@pytest.mark.parametrize("name,bad_row,message", [
    pytest.param("svo", "net\tcaught\tbutterfly", "expected 4 columns", id="svo-columns"),
    pytest.param("svo", "net\t\tbutterfly\t3", "empty field", id="svo-empty"),
    pytest.param("isa", "sun\tstar\tbright", "expected 2 columns", id="isa-columns"),
    pytest.param("isa", "\tstar", "empty field", id="isa-empty"),
    pytest.param("roles", "caught\tnet", "expected 3 columns", id="roles-columns"),
    pytest.param("roles", "caught\tnet\t", "empty field", id="roles-empty"),
    pytest.param("roles", ", ,\tnet\tinstrument", "empty verb list", id="roles-no-verbs"),
    pytest.param("prepdefs", "with", "expected 2 columns", id="prepdefs-columns"),
    pytest.param("prepdefs", "with\t ", "empty field", id="prepdefs-empty"),
    pytest.param("synsets", "run\tjog", "expected 1 columns", id="synsets-columns"),
    pytest.param("synsets", ",", "empty verb list", id="synsets-no-verbs"),
    pytest.param("relations", "worksfor\tshubert", "expected 3 columns", id="relations-columns"),
    pytest.param("relations", "worksfor\t\tcnn", "empty field", id="relations-empty"),
])
def test_malformed_kb_row_names_file_and_line(tmp_path, capsys, name, bad_row, message):
    filename = KB_FILENAMES[name]
    (tmp_path / filename).write_text(f"{GOOD_ROWS[name]}\n# comment\n{bad_row}\n",
                                     encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_kb_dir(tmp_path)
    assert f"{filename}:3: {message}" in str(err.value)
    assert main(["kb-check", "--kb-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{filename}:3: {message}" in captured.err
    assert "Traceback" not in captured.err


class TestSvoQueries:
    def test_exists_at_threshold(self, kb):
        assert kb.svo_exists("net", "caught", "butterfly")

    def test_unstored_direction_is_false(self, kb):
        assert not kb.svo_exists("butterfly", "caught", "net")

    def test_below_threshold_is_false(self, tmp_path):
        kb = make_kb(tmp_path, svo="cat\tate\tfish\t2\n")
        assert not kb.svo_exists("cat", "ate", "fish")

    def test_any_verb_collects_all_verbs(self, tmp_path):
        kb = make_kb(tmp_path, svo=("butterfly\thas\tspots\t4\n"
                                    "butterfly\tcan see\tspots\t3\n"))
        assert kb.svo_any_verb("butterfly", "spots") == {"has", "can see"}

    def test_any_verb_unknown_pair(self, kb):
        assert kb.svo_any_verb("zig", "zag") == set()

    def test_any_verb_filters_below_threshold(self, tmp_path):
        kb = make_kb(tmp_path, svo=("a\tv1\tb\t3\n"
                                    "a\tv2\tb\t5\n"
                                    "a\tv3\tb\t2\n"))
        assert kb.svo_any_verb("a", "b") == {"v1", "v2"}


class TestTypes:
    def test_single_category(self, kb):
        assert kb.types_of("butterfly") == {"animal"}

    def test_unknown_is_empty(self, kb):
        assert kb.types_of("quux") == frozenset()

    def test_multiple_assertions_all_returned(self, tmp_path):
        kb = make_kb(tmp_path, isa="bat\tanimal\nbat\tequipment\n")
        assert kb.types_of("bat") == {"animal", "equipment"}


class TestRoles:
    def test_surface_filler_match(self, kb):
        assert kb.roles_for("caught", "net") == {"instrument"}

    def test_no_matching_entry(self, kb):
        assert kb.roles_for("caught", "spots") == set()

    def test_category_filler_match(self, kb):
        assert kb.roles_for("shoot", "dagger") == {"instrument"}

    def test_synonym_group_member_reaches_entry(self, tmp_path):
        kb = make_kb(tmp_path,
                     roles="seize\tnet\tinstrument\n",
                     synsets="seize,grab\n")
        assert kb.roles_for("grab", "net") == {"instrument"}


class TestPrepSenses:
    def test_order_preserved(self, kb):
        assert kb.prep_senses("with") == ["has", "contains", "using"]

    def test_unmapped_is_empty(self, kb):
        assert kb.prep_senses("despite") == []

    def test_multiword_senses(self, kb):
        assert kb.prep_senses("for") == ["used for", "has purpose"]


class TestSynonyms:
    def test_groups_merge_transitively(self, tmp_path):
        kb = make_kb(tmp_path, synsets="run,jog\njog,sprint\nwalk\n")
        assert kb.synonyms_of("run") == {"run", "jog", "sprint"}
        assert kb.synonyms_of("sprint") == {"run", "jog", "sprint"}
        assert kb.synonyms_of("walk") == {"walk"}


class TestRelations:
    def test_pairs_and_membership(self, kb):
        assert "acquired" in kb.relations_between("BNY Mellon", "insight")
        assert "acquired" not in kb.relations_between("insight", "bny mellon")

    def test_relations_between(self, kb):
        assert kb.relations_between("shubert", "cnn") == {"worksfor"}
        assert kb.relations_between("cnn", "shubert") == set()


class TestNormalization:
    def test_case_fold_closure(self, kb):
        assert kb.svo_exists("NET", "Caught", "BUTTERFLY")
        assert kb.types_of("Butterfly") == kb.types_of("butterfly")
        assert kb.prep_senses("WITH") == kb.prep_senses("with")

    def test_internal_spaces_normalized(self, tmp_path):
        kb = make_kb(tmp_path, isa="soichi  noguchi\tperson\n")
        assert kb.types_of("Soichi   Noguchi") == {"person"}


#: Field characters: case that folds to other letters, Unicode whitespace
#: (NBSP, the separator \x1c and an em space), a comment mark and U+FEFF.
FIELD_CHARS = "aZßİﬁ #\xa0\x1c\u2003\ufeff"


@pytest.fixture(scope="class")
def rows_dir(tmp_path_factory):
    """One directory for every example of a property, which rewrites its file."""
    return tmp_path_factory.mktemp("rows")


class TestLoaderFold:
    """Every loaded field is exactly ``norm_token`` of the field as written,
    for case that folds to other letters and for Unicode whitespace."""

    @settings(deadline=None, max_examples=100)
    @given(fields=st.lists(st.text(alphabet="aZßİﬁ \xa0\x1c\u2003", min_size=1)
                           .filter(str.strip), min_size=3, max_size=3))
    def test_fields_load_as_norm_token(self, tmp_path_factory, fields):
        rel, arg1, arg2 = fields
        kb = make_kb(tmp_path_factory.mktemp("kb"), relations="\t".join(fields) + "\n")
        assert kb.relations_between(arg1, arg2) == {norm_token(rel)}

    @pytest.mark.parametrize("blank", ["", "\xa0", "\x1c", "   ", "\u2003 \xa0"])
    def test_all_whitespace_field_is_empty(self, tmp_path, blank):
        with pytest.raises(FormatError, match=r"relations\.tsv:1: empty field"):
            make_kb(tmp_path, relations=f"worksfor\t{blank}\tcnn\n")

    @settings(deadline=None, max_examples=300)
    @given(lines=st.lists(st.lists(st.text(alphabet=FIELD_CHARS, max_size=4),
                                   min_size=1, max_size=4).map("\t".join), max_size=4),
           width=st.integers(min_value=1, max_value=4))
    def test_rows_equal_the_field_by_field_fold(self, rows_dir, lines, width):
        """``iter_folded_rows`` folds each line once; it yields what folding each
        stripped field on its own yields, or fails at the same line with the
        same message."""
        path = rows_dir / "rows.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        columns = tuple(f"c{i}" for i in range(width))
        assert read_outcome(iter_folded_rows(path, columns)) == read_outcome(reference_kb_rows(path, columns))


@st.composite
def svo_store(draw):
    tokens = st.sampled_from(["a", "b", "c"])
    rows = draw(st.lists(
        st.tuples(tokens, tokens, tokens, st.integers(min_value=1, max_value=6)),
        max_size=12))
    return rows


@settings(deadline=None, max_examples=40)
@given(rows=svo_store(),
       low=st.integers(min_value=1, max_value=5),
       bump=st.integers(min_value=1, max_value=3))
def test_raising_threshold_never_enables_triples(tmp_path_factory, rows, low, bump):
    tmp = tmp_path_factory.mktemp("svo")
    text = "".join(f"{s}\t{v}\t{o}\t{c}\n" for s, v, o, c in rows)
    path = tmp / "svo.tsv"
    path.write_text(text, encoding="utf-8")
    kb = load_kb(svo=str(path))
    for s, v, o, _ in rows:
        if kb.svo_exists(s, v, o, low + bump):
            assert kb.svo_exists(s, v, o, low)
        assert kb.svo_any_verb(s, o, low + bump) <= kb.svo_any_verb(s, o, low)


class TestAgainstOracles:
    """Each query answers from its load-time index exactly what a scan of
    the constructor inputs in ``synth`` answers, on random KBs drawn from a
    seed: merged synonym groups, multi-verb role entries, noun and category
    fillers, verbs and nouns the KB does not know, and a triple count
    threshold of 1-5 given at query time."""

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(min_value=0))
    def test_queries_equal_scans(self, seed):
        rng = random.Random(seed)
        inputs = random_kb_inputs(rng)
        min_count = rng.randint(1, 5)
        kb = KnowledgeBase(**inputs)
        verbs = KB_VERBS + ("V1", "unknown")
        nouns = KB_NOUNS + KB_CATEGORIES + ("N2", "unknown")
        for verb in verbs:
            for n2 in nouns:
                assert kb.roles_for(verb, n2) == scan_roles_for(inputs, verb, n2)
        for s in nouns:
            for o in nouns:
                assert (kb.svo_any_verb(s, o, min_count)
                        == scan_svo_any_verb(inputs, s, o, min_count))
                for verb in verbs:
                    assert (kb.svo_exists(s, verb, o, min_count)
                            == lookup_svo_exists(inputs, s, verb, o, min_count))


class TestLoadKbDir:
    def test_a_missing_directory_is_an_error(self, tmp_path):
        missing = str(tmp_path / "kbb")
        with pytest.raises(FileNotFoundError) as exc:
            load_kb_dir(missing)
        assert str(exc.value) == f"knowledge directory not found: {missing}"

    def test_a_regular_file_is_not_a_directory(self, tmp_path):
        isa = tmp_path / "isa.tsv"
        isa.write_text("cat\tanimal\n", encoding="utf-8")
        with pytest.raises(NotADirectoryError) as exc:
            load_kb_dir(str(isa))
        assert str(exc.value) == f"{isa}: not a directory"

    def test_a_directory_without_knowledge_files_is_an_empty_store(self, tmp_path):
        assert set(load_kb_dir(tmp_path).stats().values()) == {0}
