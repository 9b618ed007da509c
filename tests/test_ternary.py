import operator

import pytest
from hypothesis import Phase, given, settings, strategies as st

from kbread.features import PPInstance
from kbread.model import AttachmentModel
from kbread.ternary import (RelationVerbMap, RoleTemplate, TernaryInstance,
                            annotate_relations, apply_role_templates, extract_ternary,
                            learn_role_templates, map_relations_to_verbs,
                            read_role_tuples, read_tuples, write_templates, write_ternary)
from kbread.tsv import FormatError, iter_rows, norm_token
from test_kb import make_kb


def tup(n0, v, n1, p, n2):
    return PPInstance(v=v, n1=n1, p=p, n2=n2, n0=n0)


def verb_model(*preps, noun_features=()):
    """Hand-built model attaching every tuple whose preposition is listed,
    unless a listed feature pushes it to the noun."""
    weights = {f"F15:({p})": 5.0 for p in preps}
    weights.update({name: -20.0 for name in noun_features})
    return AttachmentModel(weights)


@pytest.fixture
def fixture_tuples(fixtures_dir):
    return read_tuples(f"{fixtures_dir}/tuples.tsv")


class TestExtract:
    def test_verb_attachments_promoted(self, kb, fixture_tuples):
        model = verb_model("from", "in", "as", "with",
                           noun_features=["F8:(expect,decline,in,rates)"])
        out = extract_ternary(fixture_tuples, model, kb)
        assert [(t.n0, t.v, t.p) for t in out] == [
            ("bny mellon", "acquired", "from"),
            ("david", "married", "in"),
            ("shubert", "joined", "as"),
            ("kushner", "played", "with"),
        ]

    def test_noun_attachment_yields_nothing(self, kb):
        model = AttachmentModel({"F15:(of)": -5.0})
        out = extract_ternary([tup("sam", "ate", "bowl", "of", "rice")], model, kb)
        assert out == []

    def test_counts_follow_model_decisions(self, kb):
        tuples = [tup(f"s{i}", "v", "n", "with" if i < 6 else "of", "x")
                  for i in range(10)]
        model = AttachmentModel({"F15:(with)": 5.0, "F15:(of)": -5.0})
        assert len(extract_ternary(tuples, model, kb)) == 6

    def test_quads_without_leading_noun_rejected(self, kb):
        model = AttachmentModel({})
        with pytest.raises(ValueError):
            extract_ternary([PPInstance(v="a", n1="b", p="c", n2="d")], model, kb)


class TestRelationMaps:
    def test_overlap_produces_map(self, kb, fixture_tuples):
        maps = map_relations_to_verbs(kb, fixture_tuples, min_support=1)
        assert RelationVerbMap("worksfor", "joined", "as", 1) in maps
        assert RelationVerbMap("acquired", "acquired", "from", 1) in maps

    def test_no_overlap_no_map(self, kb):
        maps = map_relations_to_verbs(kb, [tup("nobody", "met", "anyone", "at", "noon")],
                                      min_support=1)
        assert maps == []

    def test_support_boundary(self, kb):
        tuples = [tup("shubert", "joined", "cnn", "as", f"role{i}") for i in range(3)]
        assert map_relations_to_verbs(kb, tuples, min_support=3) == [
            RelationVerbMap("worksfor", "joined", "as", 3)]
        assert map_relations_to_verbs(kb, tuples, min_support=4) == []

    def test_annotation_and_tie_break(self):
        maps = [RelationVerbMap("zeta", "join", "as", 5),
                RelationVerbMap("alpha", "join", "as", 5),
                RelationVerbMap("beta", "join", "as", 9)]
        from kbread.ternary import TernaryInstance
        inst = TernaryInstance("a", "join", "b", "as", "c")
        (out,) = annotate_relations([inst], maps)
        assert out.relation == "beta"
        (out,) = annotate_relations([inst], maps[:2])
        assert out.relation == "alpha"
        (out,) = annotate_relations([TernaryInstance("a", "quit", "b", "as", "c")], maps)
        assert out.relation is None

    def test_annotated_relation_agrees_with_source_map(self, kb, fixture_tuples):
        model = verb_model("from", "in", "as", "with",
                           noun_features=["F8:(expect,decline,in,rates)"])
        maps = map_relations_to_verbs(kb, fixture_tuples, min_support=1)
        by_vp = {(m.verb, m.preposition): m.relation for m in maps}
        out = annotate_relations(extract_ternary(fixture_tuples, model, kb), maps)
        assert any(t.relation for t in out)
        for t in out:
            if t.relation is not None:
                assert by_vp[(t.v, t.p)] == t.relation


class TestRoleTemplates:
    def test_fixture_templates(self, kb, fixtures_dir):
        labeled = read_role_tuples(f"{fixtures_dir}/tuples_roles.tsv")
        templates = learn_role_templates(labeled, kb, min_support=3)
        assert [(t.label, t.verb, t.arg1_type, t.preposition, t.arg2_type, t.support)
                for t in templates] == [
            ("np_v_np_pp.beneficiary", "buy", "jewelry", "for", "person", 3)]

    def test_untyped_nouns_contribute_nothing(self, kb):
        labeled = [(tup("x", "frob", "gizmo", "with", "whatsit"),
                    "np_v_np_pp.instrument")]
        assert learn_role_templates(labeled, kb, min_support=1) == []

    def test_same_shape_two_labels_gives_two_templates(self, tmp_path):
        kb = make_kb(tmp_path, isa="coin\tmoney\ntoken\tmoney\nman\tperson\nwoman\tperson\n")
        labeled = [(tup("x", "give", "coin", "for", "man"), "np_v_np_pp.asset"),
                   (tup("y", "give", "token", "for", "woman"), "np_v_np_pp.beneficiary")]
        templates = learn_role_templates(labeled, kb, min_support=1)
        assert {(t.label, t.arg1_type, t.arg2_type) for t in templates} == {
            ("np_v_np_pp.asset", "money", "person"),
            ("np_v_np_pp.beneficiary", "money", "person"),
        }

    def test_rejects_unknown_labels(self, kb):
        with pytest.raises(ValueError):
            learn_role_templates([(tup("a", "b", "c", "d", "e"), "np_v_np_pp.mangler")],
                                 kb, min_support=1)

    def test_raising_support_never_adds_templates(self, kb, fixtures_dir):
        labeled = read_role_tuples(f"{fixtures_dir}/tuples_roles.tsv")
        lo = set(learn_role_templates(labeled, kb, min_support=1))
        hi = {(t.label, t.verb, t.arg1_type, t.preposition, t.arg2_type)
              for t in learn_role_templates(labeled, kb, min_support=2)}
        assert hi <= {(t.label, t.verb, t.arg1_type, t.preposition, t.arg2_type)
                      for t in lo}


class TestSupportThreshold:
    @pytest.mark.parametrize("min_support", [0, -1])
    def test_below_one_rejected(self, kb, fixture_tuples, min_support):
        with pytest.raises(ValueError, match="min_support"):
            map_relations_to_verbs(kb, fixture_tuples, min_support)
        with pytest.raises(ValueError, match="min_support"):
            learn_role_templates([], kb, min_support)


class TestApplyTemplates:
    def test_round_trip_recovers_training_labels(self, kb, fixtures_dir):
        labeled = read_role_tuples(f"{fixtures_dir}/tuples_roles.tsv")
        templates = learn_role_templates(labeled, kb, min_support=1)
        model = verb_model("for", "with")
        out = apply_role_templates(templates, [t for t, _ in labeled], model, kb)
        assert [t.role_label for t in out] == [label for _, label in labeled]

    def test_untyped_filler_stays_unlabeled(self, kb):
        labeled = [(tup("paula", "hit", "ball", "with", "stick"),
                    "np_v_np_pp.instrument")]
        templates = learn_role_templates(labeled, kb, min_support=1)
        model = verb_model("with")
        (out,) = apply_role_templates(templates,
                                      [tup("paula", "hit", "ball", "with", "joy")],
                                      model, kb)
        assert out.role_label is None

    def test_noun_attached_tuples_dropped(self, kb):
        model = AttachmentModel({"F15:(with)": -5.0})
        out = apply_role_templates([], [tup("a", "hit", "b", "with", "c")], model, kb)
        assert out == []

    def test_tie_breaks_by_support_then_label(self, tmp_path):
        kb = make_kb(tmp_path, isa="coin\tmoney\nman\tperson\n")
        labeled = ([(tup("x", "give", "coin", "for", "man"), "np_v_np_pp.asset")] * 2
                   + [(tup("y", "give", "coin", "for", "man"), "np_v_np_pp.beneficiary")] * 2)
        templates = learn_role_templates(labeled, kb, min_support=1)
        model = verb_model("for")
        (out,) = apply_role_templates(templates, [tup("z", "give", "coin", "for", "man")],
                                      model, kb)
        assert out.role_label == "np_v_np_pp.asset"


class TestFiles:
    def test_read_tuples_rejects_wrong_width(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\tc\td\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_tuples(path)
        assert "t.tsv:1" in str(err.value)

    def test_read_role_tuples_validates_label(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\tc\td\te\tnp_v_np_pp.unknown\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_role_tuples(path)

    def test_write_ternary_format(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_ternary([TernaryInstance("a", "b", "c", "d", "e", relation="rel"),
                       TernaryInstance("f", "g", "h", "i", "j", role_label="np_v_np_pp.topic")],
                      path)
        assert path.read_text(encoding="utf-8") == (
            "a\tb\tc\td\te\trel\t-\n"
            "f\tg\th\ti\tj\t-\tnp_v_np_pp.topic\n")


#: Words as the readers hand them over: folded, not empty, without a comma.
#: One in four starts with "#" and one in four with a byte-order mark; as a
#: row's first field such a word would read back as a comment line or
#: without its mark, so a writer rejects it.
WORDS = (st.builds(operator.add, st.sampled_from(("", "", "#", "\ufeff")), st.text(max_size=8))
         .map(norm_token).filter(lambda w: w and "," not in w))


#: The writers' round-trip properties shrink a failing example but do not
#: explain it: to explain, Hypothesis traces every line the test runs, which
#: made one failure take minutes and hundreds of MB to report.
ROUND_TRIP = settings(deadline=None, max_examples=100,
                      phases=[phase for phase in Phase if phase is not Phase.explain])


def assert_rows_read_back(write, objects, path, rows):
    """``write(objects, path)`` writes lines that ``tsv.iter_rows`` reads
    back as ``rows``; or, when a row starts with "#" or U+FEFF, it raises
    ``ValueError`` and writes nothing."""
    if any(row[0].startswith(("#", "\ufeff")) for row in rows):
        with pytest.raises(ValueError, match="starts with '#' or U\\+FEFF"):
            write(objects, path)
        assert not path.exists()
    else:
        write(objects, path)
        assert [fields for _, fields in iter_rows(path)] == rows


class TestWritersRoundTrip:
    """The output files have no reader; each row read back through
    ``tsv.iter_rows`` holds the written object's fields, ``-`` for None, and
    a row that reading would lose is rejected."""

    @ROUND_TRIP
    @given(instances=st.lists(st.builds(TernaryInstance, WORDS, WORDS, WORDS, WORDS, WORDS,
                                        st.none() | WORDS, st.none() | WORDS), max_size=5))
    def test_ternary_rows_hold_each_instance(self, tmp_path_factory, instances):
        path = tmp_path_factory.mktemp("ternary") / "ternary.tsv"
        assert_rows_read_back(write_ternary, instances, path,
                              [[t.n0, t.v, t.n1, t.p, t.n2, t.relation or "-",
                                t.role_label or "-"] for t in instances])

    @ROUND_TRIP
    @given(templates=st.lists(st.builds(RoleTemplate, WORDS, WORDS, WORDS, WORDS, WORDS,
                                        st.integers(min_value=1)), max_size=5))
    def test_template_rows_hold_each_template(self, tmp_path_factory, templates):
        path = tmp_path_factory.mktemp("templates") / "templates.tsv"
        assert_rows_read_back(write_templates, templates, path,
                              [[t.label, t.verb, t.arg1_type, t.preposition,
                                t.arg2_type, str(t.support)] for t in templates])
