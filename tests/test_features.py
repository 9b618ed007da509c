import copy
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from kbread.features import (FAMILIES, FeatureConfig,
                             PPInstance, expand_with_synonyms,
                             extract_features, extractor, feature_name,
                             knowledge_files, parse_feature_name, read_corpus)
from kbread.kb import KB_FILENAMES, KnowledgeBase, load_kb
from kbread.ternary import read_role_tuples, read_tuples
from kbread.tsv import FormatError
from synth import KB_CATEGORIES, KB_NOUNS, KB_VERBS, random_kb_inputs, reference_features
from test_model import fixture_instances  # noqa: F401  (a fixture)

ALL = FeatureConfig(enabled_families=frozenset(FAMILIES))

SENTENCE_1 = PPInstance(v="caught", n1="butterfly", p="with", n2="net", n0="alice")
SENTENCE_2 = PPInstance(v="caught", n1="butterfly", p="with", n2="spots", n0="dog")

# The net sentence: the "using" sense of "with" holds as a corpus triple
# between (butterfly, net), so both the sense feature F6 and the matching
# noun-noun feature F2 fire (F6 implies F2 by definition).
EXPECTED_1 = {
    "F1:(net,caught,butterfly)",
    "F2:(butterfly,using,net)",
    "F3:isA(butterfly,animal)",
    "F4:isA(net,device)",
    "F5:hasRole(net,instrument)",
    "F6:def(with,using)",
    "F7:isA(alice,person)",
    "F8:(caught,butterfly,with,net)",
    "F9:(caught,butterfly,with)",
    "F10:(caught,with,net)",
    "F11:(butterfly,with,net)",
    "F12:(caught,with)",
    "F13:(butterfly,with)",
    "F14:(with,net)",
    "F15:(with)",
}

EXPECTED_2 = {
    "F2:(butterfly,has,spots)",
    "F3:isA(butterfly,animal)",
    "F4:isA(spots,pattern)",
    "F6:def(with,has)",
    "F7:isA(dog,animal)",
    "F8:(caught,butterfly,with,spots)",
    "F9:(caught,butterfly,with)",
    "F10:(caught,with,spots)",
    "F11:(butterfly,with,spots)",
    "F12:(caught,with)",
    "F13:(butterfly,with)",
    "F14:(with,spots)",
    "F15:(with)",
}


class TestReferenceSentences:
    def test_net_sentence_exact(self, kb):
        assert extract_features(SENTENCE_1, kb, ALL) == EXPECTED_1

    def test_spots_sentence_exact(self, kb):
        assert extract_features(SENTENCE_2, kb, ALL) == EXPECTED_2

    def test_default_config_drops_f2_and_f6(self, kb):
        feats = extract_features(SENTENCE_1, kb)
        assert feats == {f for f in EXPECTED_1 if not f.startswith(("F2:", "F6:"))}


class TestKnowledgeFamilies:
    def test_unknown_words_give_only_lexical_features(self, kb):
        inst = PPInstance(v="zzz", n1="yyy", p="qqq", n2="www")
        feats = extract_features(inst, kb, ALL)
        assert feats == {
            "F8:(zzz,yyy,qqq,www)", "F9:(zzz,yyy,qqq)", "F10:(zzz,qqq,www)",
            "F11:(yyy,qqq,www)", "F12:(zzz,qqq)", "F13:(yyy,qqq)",
            "F14:(qqq,www)", "F15:(qqq)",
        }

    def test_f1_requires_reversed_order(self, tmp_path):
        path = tmp_path / "svo.tsv"
        path.write_text("net\tcaught\tbutterfly\t5\n", encoding="utf-8")
        kb = load_kb(svo=str(path))
        cfg = FeatureConfig(enabled_families=frozenset(["F1"]))
        fires = extract_features(
            PPInstance(v="caught", n1="butterfly", p="with", n2="net"), kb, cfg)
        assert fires == {"F1:(net,caught,butterfly)"}
        # Same tuple with the nouns swapped: stored direction no longer matches.
        silent = extract_features(
            PPInstance(v="caught", n1="net", p="with", n2="butterfly"), kb, cfg)
        assert silent == set()

    def test_f7_skipped_without_discourse_noun(self, kb):
        inst = PPInstance(v="caught", n1="butterfly", p="with", n2="net")
        feats = extract_features(inst, kb, ALL)
        assert not any(f.startswith("F7:") for f in feats)

    def test_f6_sense_cutoff(self, tmp_path):
        (tmp_path / "svo.tsv").write_text("a\tlate\tb\t5\n", encoding="utf-8")
        (tmp_path / "prepdefs.tsv").write_text(
            "by\tearly\nby\tlate\n", encoding="utf-8")
        kb = load_kb(svo=str(tmp_path / "svo.tsv"),
                     prepdefs=str(tmp_path / "prepdefs.tsv"))
        inst = PPInstance(v="v", n1="a", p="by", n2="b")
        wide = FeatureConfig(enabled_families=frozenset(["F6"]), max_prep_senses=5)
        narrow = FeatureConfig(enabled_families=frozenset(["F6"]), max_prep_senses=1)
        assert extract_features(inst, kb, wide) == {"F6:def(by,late)"}
        assert extract_features(inst, kb, narrow) == set()

    def test_lexical_features_ignore_kb(self, kb):
        inst = PPInstance(v="caught", n1="butterfly", p="with", n2="net")
        lex = frozenset(f"F{i}" for i in range(8, 16))
        with_kb = extract_features(inst, kb, FeatureConfig(enabled_families=lex))
        without = extract_features(inst, load_kb(), FeatureConfig(enabled_families=lex))
        assert with_kb == without

    def test_growing_kb_never_removes_features(self, tmp_path, kb):
        inst = PPInstance(v="caught", n1="butterfly", p="with", n2="net", n0="alice")
        small = extract_features(inst, load_kb(), ALL)
        big = extract_features(inst, kb, ALL)
        assert small <= big

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_random_kb_subsets_preserve_monotonicity(self, tmp_path_factory, data):
        words = ("caught", "butterfly", "net", "with", "alice", "animal", "device")
        svo_rows = data.draw(st.lists(
            st.tuples(st.sampled_from(words), st.sampled_from(words),
                      st.sampled_from(words)),
            max_size=8))
        isa_rows = data.draw(st.lists(
            st.tuples(st.sampled_from(words), st.sampled_from(words)), max_size=8))
        keep_svo = data.draw(st.integers(min_value=0, max_value=len(svo_rows)))
        keep_isa = data.draw(st.integers(min_value=0, max_value=len(isa_rows)))

        def build(svo, isa):
            tmp = tmp_path_factory.mktemp("kbsub")
            (tmp / "svo.tsv").write_text(
                "".join(f"{s}\t{v}\t{o}\t3\n" for s, v, o in svo), encoding="utf-8")
            (tmp / "isa.tsv").write_text(
                "".join(f"{n}\t{c}\n" for n, c in isa), encoding="utf-8")
            return load_kb(svo=str(tmp / "svo.tsv"), isa=str(tmp / "isa.tsv"))

        inst = PPInstance(v="caught", n1="butterfly", p="with", n2="net", n0="alice")
        subset = extract_features(inst, build(svo_rows[:keep_svo], isa_rows[:keep_isa]), ALL)
        full = extract_features(inst, build(svo_rows, isa_rows), ALL)
        assert subset <= full

    def test_case_folding_of_inputs(self, kb):
        upper = PPInstance(v="CAUGHT", n1="Butterfly", p="With", n2="NET", n0="Alice")
        assert extract_features(upper, kb, ALL) == EXPECTED_1


def random_world(seed, data):
    """A random KB drawn from ``seed`` (with senses for "with" and "on"), a
    drawn config, and a strategy of instances whose nouns come from a pool
    of eleven words, so a run of instances reuses nouns in every slot."""
    rng = random.Random(seed)
    inputs = random_kb_inputs(rng)
    inputs["prepdefs"] = [(p, v) for p in ("with", "on")
                          for v in rng.sample(KB_VERBS, rng.randint(0, 8))]
    cfg = FeatureConfig(data.draw(st.frozensets(st.sampled_from(FAMILIES), min_size=1)),
                        data.draw(st.integers(min_value=0, max_value=6)),
                        data.draw(st.integers(min_value=1, max_value=5)))
    unknown = ("unknown", "Two  Words")
    nouns = st.sampled_from(KB_NOUNS + KB_CATEGORIES + unknown)
    instances = st.builds(PPInstance, v=st.sampled_from(KB_VERBS + unknown), n1=nouns,
                          p=st.sampled_from(("with", "on", "of")), n2=nouns,
                          n0=st.none() | nouns)
    return KnowledgeBase(**inputs), cfg, instances


class TestAgainstReference:
    """extract_features spells each name itself; the names must be exactly
    those the feature_name-built reference gives, on random KBs drawn from a
    seed, with random instances, family subsets, sense cut-offs and triple
    count thresholds."""

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(min_value=0), data=st.data())
    def test_extraction_equals_reference(self, seed, data):
        kb, cfg, instances = random_world(seed, data)
        for _ in range(10):
            inst = data.draw(instances)
            feats = extract_features(inst, kb, cfg)
            assert feats == reference_features(inst, kb, cfg)
            for name in feats:
                assert feature_name(*parse_feature_name(name)) == name


class TestExtractor:
    """One extractor serves many instances and keeps each noun's category
    names for as long as it lives; what it returns must not depend on which
    instances it saw before."""

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(min_value=0), data=st.data())
    def test_one_extractor_over_many_instances_equals_reference(self, seed, data):
        kb, cfg, instances = random_world(seed, data)
        extract = extractor(kb, cfg)
        for inst in data.draw(st.lists(instances, min_size=30, max_size=40)):
            feats = extract(inst)
            assert len(set(feats)) == len(feats)
            assert set(feats) == reference_features(inst, kb, cfg)

    def test_each_extractor_reads_its_own_kb(self):
        inst = PPInstance(v="caught", n1="net", p="with", n2="net", n0="net")
        device = extractor(KnowledgeBase(isa=[("net", "device")]), ALL)
        tool = extractor(KnowledgeBase(isa=[("net", "tool")]), ALL)
        knowledge = [[name for name in extract(inst) if name.startswith(("F3", "F4", "F7"))]
                     for extract in (device, tool, device)]
        assert knowledge == [["F3:isA(net,device)", "F4:isA(net,device)", "F7:isA(net,device)"],
                             ["F3:isA(net,tool)", "F4:isA(net,tool)", "F7:isA(net,tool)"],
                             ["F3:isA(net,device)", "F4:isA(net,device)", "F7:isA(net,device)"]]

    @pytest.mark.parametrize("families", [["F6"], ["F2", "F6"]])
    def test_f6_keeps_a_sense_seen_min_svo_count_times(self, families):
        kb = KnowledgeBase(svo=[("a", "using", "b", 3), ("a", "has", "b", 2)],
                           prepdefs=[("with", "has"), ("with", "using")])
        cfg = FeatureConfig(enabled_families=frozenset(families), min_svo_count=3)
        feats = extractor(kb, cfg)(PPInstance(v="v", n1="a", p="with", n2="b"))
        assert [name for name in feats if name.startswith("F6")] == ["F6:def(with,using)"]


#: The knowledge file whose rows fill each store of a KnowledgeBase, by attribute.
STORES = {"_svo": "svo", "_types": "isa", "_roles": "roles", "_prepdefs": "prepdefs",
          "_synonyms": "synsets", "_relations": "relations"}


class RecordingStore(dict):
    """A copy of a store that adds its file's key to ``touched`` on each
    ``get``, the one way the queries read a store."""

    def __init__(self, store, key, touched):
        super().__init__(store)
        self.key, self.touched = key, touched

    def get(self, *args):
        self.touched.add(self.key)
        return super().get(*args)


def recording_kb(kb):
    """A copy of ``kb`` whose stores record their reads, and the set of the
    keys of ``KB_FILENAMES`` whose stores were read."""
    assert {name for name, value in vars(kb).items() if isinstance(value, dict)} == set(STORES)
    touched, recording = set(), copy.copy(kb)
    for name, key in STORES.items():
        setattr(recording, name, RecordingStore(getattr(kb, name), key, touched))
    return recording, touched


class TestKnowledgeFiles:
    """``knowledge_files`` names exactly the files whose stores a family's
    lookups read: a command loads only those, so a file left out would
    leave a store empty and change features without an error."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_family_reads_the_files_of_its_table_row(self, kb, fixture_instances, family):
        recording, touched = recording_kb(kb)
        extract = extractor(recording, FeatureConfig(enabled_families=frozenset([family]),
                                                     min_svo_count=1))
        for inst in fixture_instances:
            extract(inst)
        assert touched == knowledge_files([family])
        assert knowledge_files([family]) <= KB_FILENAMES.keys()

    def test_synonym_expansion_reads_only_synsets(self, kb, fixture_instances):
        recording, touched = recording_kb(kb)
        assert len(expand_with_synonyms(fixture_instances, recording)) > len(fixture_instances)
        assert touched == {"synsets"}


class TestFeatureNames:
    def test_known_examples_parse(self):
        assert parse_feature_name("F11:(butterfly,with,net)") == \
            ("F11", ("butterfly", "with", "net"))
        assert parse_feature_name("F4:isA(net,device)") == ("F4", ("net", "device"))
        assert parse_feature_name("F5:hasRole(net,instrument)") == \
            ("F5", ("net", "instrument"))

    def test_rejects_garbage(self):
        for bad in ("", "F16:(a)", "F3:isB(a,b)", "F8:(a,b", "notafeature"):
            with pytest.raises(ValueError):
                parse_feature_name(bad)

    @given(family=st.sampled_from(FAMILIES),
           parts=st.lists(st.text(alphabet="abcdefghij -", min_size=1, max_size=8)
                          .filter(lambda s: s.strip()),
                          min_size=1, max_size=4))
    def test_round_trip(self, family, parts):
        name = feature_name(family, parts)
        assert parse_feature_name(name) == (family, tuple(parts))

    @settings(deadline=None, max_examples=100)
    @given(words=st.lists(st.text(st.characters(blacklist_characters=",\t\n\r",
                                                blacklist_categories=("Cs",)),
                                  min_size=1, max_size=6),
                          min_size=4, max_size=4))
    def test_round_trip_of_tokens_the_reader_accepts(self, tmp_path_factory, words):
        path = tmp_path_factory.mktemp("corpus") / "c.tsv"
        path.write_text("\t".join(words) + "\n", encoding="utf-8")
        try:
            insts = read_corpus(path)
        except FormatError:
            insts = []
        assume(insts)
        (inst,) = insts
        parts = (inst.v, inst.n1, inst.p, inst.n2)
        for family in FAMILIES:
            assert parse_feature_name(feature_name(family, parts)) == (family, parts)


@pytest.mark.parametrize("reader, row", [
    (read_corpus, "see\ta,b\twith\tc"),
    (read_tuples, "sam\tsee\ta\tb,with\tc"),
    (read_role_tuples, "sam\tbuy\tring,box\tfor\tmom\tnp_v_np_pp.beneficiary"),
])
def test_readers_reject_commas_in_tokens(tmp_path, reader, row):
    path = tmp_path / "rows.tsv"
    path.write_text("# one data row\n" + row + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"rows\.tsv:2: token contains a comma"):
        reader(path)


class TestSynonymExpansion:
    def test_copy_per_other_member(self, kb):
        inst = PPInstance(v="caught", n1="fly", p="with", n2="net", label="V")
        out = expand_with_synonyms([inst], kb)
        assert out == [inst,
                       PPInstance(v="captured", n1="fly", p="with", n2="net", label="V")]

    def test_unknown_verb_passes_through(self, kb):
        inst = PPInstance(v="devoured", n1="cake", p="with", n2="fork")
        assert expand_with_synonyms([inst], kb) == [inst]

    def test_group_of_three_adds_two_copies(self, tmp_path):
        (tmp_path / "synsets.tsv").write_text("run,jog,sprint\n", encoding="utf-8")
        kb = load_kb(synsets=str(tmp_path / "synsets.tsv"))
        inst = PPInstance(v="run", n1="race", p="in", n2="park")
        out = expand_with_synonyms([inst], kb)
        assert [i.v for i in out] == ["run", "jog", "sprint"]


class TestCorpusReader:
    def test_four_columns_unlabeled_quad(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("eat\tcake\twith\tfork\n", encoding="utf-8")
        (inst,) = read_corpus(path)
        assert inst == PPInstance(v="eat", n1="cake", p="with", n2="fork")

    def test_five_columns_need_format_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("eat\tcake\twith\tfork\tV\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_corpus(path)
        assert "c.tsv:1" in str(err.value)

    def test_five_columns_as_labeled_quads(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("format=quad\neat\tcake\twith\tfork\tV\n", encoding="utf-8")
        (inst,) = read_corpus(path)
        assert inst.label == "V" and inst.n0 is None

    def test_five_columns_as_tuples(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("format=tuple\nsam\teat\tcake\twith\tfork\n", encoding="utf-8")
        (inst,) = read_corpus(path)
        assert inst.n0 == "sam" and inst.label is None

    def test_six_columns_labeled_tuple(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("sam\teat\tcake\twith\tfork\tN\n", encoding="utf-8")
        (inst,) = read_corpus(path)
        assert inst.n0 == "sam" and inst.label == "N"

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("sam\teat\tcake\twith\tfork\tX\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_corpus(path)

    def test_fixture_corpus_loads(self, fixtures_dir):
        instances = read_corpus(f"{fixtures_dir}/quads_labeled.tsv")
        assert len(instances) == 20
        assert all(i.label in ("V", "N") for i in instances)
