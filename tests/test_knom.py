import random

import pytest
from hypothesis import given, settings, strategies as st

from kbread.kb import KnowledgeBase
from kbread.knom import (CompoundNoun, TypeSequence, TypeSequenceMapping,
                         baseline_mappings, learn_mappings, mine_sequences,
                         predict_instances, read_compounds, read_mappings,
                         sample_predictions, type_compound, write_mappings,
                         write_predictions)
from kbread.tsv import FormatError, norm_token
from synth import (KNOM_WORDS, PLANTED, all_pairs_predict_instances, planted_corpus,
                   product_mine_sequences, random_knom_world, random_mapping,
                   scan_relations_between)
from test_kb import make_kb


def cn(tokens, source="c0"):
    return CompoundNoun(tuple(tokens), source)


#: Compound tokens with inner spaces and colons, some of which look like
#: the start of a sequence element without being one.
TOKENS = st.one_of(
    st.sampled_from(["astro one", "New  York", "a:b", "type:x", "lex:", "x :y", ":"]),
    st.text(alphabet="ab :", min_size=1, max_size=6),
).filter(norm_token)


class TestTypeCompound:
    def test_fixture_sequence(self, kb):
        seqs = type_compound(cn(["japanese", "astronaut", "soichi noguchi"]), kb)
        assert TypeSequence((("type", "country"), ("type", "profession"),
                             ("type", "person"))) in seqs

    def test_all_untyped_stays_literal(self, kb):
        (seq,) = type_compound(cn(["blue", "gizmo"]), kb)
        assert seq.elements == (("lex", "blue"), ("lex", "gizmo"))

    def test_multi_typed_token_multiplies_candidates(self, tmp_path):
        kb = make_kb(tmp_path, isa="bat\tanimal\nbat\tequipment\ncave\tplace\n")
        seqs = type_compound(cn(["bat", "cave"]), kb)
        assert len(seqs) == 2
        assert {s.elements for s in seqs} == {
            (("type", "animal"), ("type", "place")),
            (("type", "equipment"), ("type", "place")),
        }


class TestMining:
    def test_threshold_and_support_sets(self, tmp_path):
        kb = make_kb(tmp_path, isa="".join(f"city{i}\tcity\n" for i in range(4)))
        corpus = [cn([f"city{i}", "street"], f"s{i}") for i in range(4)]
        corpus += [cn(["odd", "one"], "x0")]
        mined = mine_sequences(corpus, kb, min_support=4)
        assert len(mined) == 1
        assert mined[0].sequence.elements == (("type", "city"), ("lex", "street"))
        assert [c.source for c in mined[0].supporters] == ["s0", "s1", "s2", "s3"]

    def test_below_threshold_dropped(self, tmp_path):
        kb = make_kb(tmp_path, isa="a\tthing\n")
        corpus = [cn(["a", "b"], f"s{i}") for i in range(9)]
        assert mine_sequences(corpus, kb, min_support=10) == []

    def test_threshold_one_keeps_everything(self, kb):
        corpus = [cn(["blue", "gizmo"], "s0"), cn(["red", "widget"], "s1")]
        assert len(mine_sequences(corpus, kb, min_support=1)) == 2

    def test_duplicate_source_counts_once(self, tmp_path):
        kb = make_kb(tmp_path, isa="a\tthing\n")
        corpus = [cn(["a", "b"], "dup"), cn(["a", "b"], "dup")]
        mined = mine_sequences(corpus, kb, min_support=1)
        assert len(mined[0].supporters) == 1


class TestLearning:
    def test_fixture_mappings(self, kb, fixtures_dir):
        corpus = read_compounds(f"{fixtures_dir}/compounds.tsv")
        mined = mine_sequences(corpus, kb, min_support=3)
        mappings = learn_mappings(mined, kb, min_support=3)
        expected_seq = (("type", "country"), ("type", "profession"), ("type", "person"))
        assert [(m.relation, m.arg1_pos, m.arg2_pos, m.sequence.elements, m.support)
                for m in mappings] == [
            ("citizenofcountry", 3, 1, expected_seq, 3),
            ("personhasjobposition", 3, 2, expected_seq, 3),
        ]

    def test_supporters_without_kb_instances_give_no_mapping(self, tmp_path):
        kb = make_kb(tmp_path, isa="a\tthing\nb\tstuff\n")
        corpus = [cn(["a", "b"], f"s{i}") for i in range(12)]
        mined = mine_sequences(corpus, kb, min_support=10)
        assert mined and learn_mappings(mined, kb, min_support=1) == []

    def test_exact_threshold_is_kept(self, tmp_path):
        isa = "".join(f"boss{i}\tperson\nfirm{i}\tcompany\n" for i in range(3))
        rel = "".join(f"runs\tboss{i}\tfirm{i}\n" for i in range(3))
        kb = make_kb(tmp_path, isa=isa, relations=rel)
        corpus = [cn([f"firm{i}", f"boss{i}"], f"s{i}") for i in range(3)]
        mined = mine_sequences(corpus, kb, min_support=3)
        assert len(learn_mappings(mined, kb, min_support=3)) == 1
        assert learn_mappings(mined, kb, min_support=4) == []


class TestPrediction:
    def test_new_instance_from_unseen_compound(self, kb, fixtures_dir):
        corpus = read_compounds(f"{fixtures_dir}/compounds.tsv")
        mined = mine_sequences(corpus, kb, min_support=3)
        mappings = learn_mappings(mined, kb, min_support=3)
        fresh = [cn(["japanese", "golfer", "padraig harrington"], "new0")]
        preds = predict_instances(mappings, fresh, kb)
        by_rel = {p.relation: p for p in preds}
        assert by_rel["citizenofcountry"].arg1 == "padraig harrington"
        assert by_rel["citizenofcountry"].arg2 == "japanese"
        assert not by_rel["citizenofcountry"].known
        assert by_rel["personhasjobposition"].known

    def test_non_matching_compound_contributes_nothing(self, kb):
        mapping = TypeSequenceMapping("citizenofcountry", 3, 1,
                                      TypeSequence((("type", "country"),
                                                    ("type", "profession"),
                                                    ("type", "person"))), 3)
        assert predict_instances([mapping], [cn(["blue", "gizmo"], "x")], kb) == []

    def test_duplicates_collapse_to_smallest_source(self, kb):
        mapping = TypeSequenceMapping("citizenofcountry", 3, 1,
                                      TypeSequence((("type", "country"),
                                                    ("type", "profession"),
                                                    ("type", "person"))), 3)
        twins = [cn(["irish", "golfer", "padraig harrington"], "b1"),
                 cn(["irish", "golfer", "padraig harrington"], "a1")]
        preds = predict_instances([mapping], twins, kb)
        assert len(preds) == 1
        assert preds[0].source == "a1"

    def test_order_independence(self, kb, fixtures_dir):
        corpus = read_compounds(f"{fixtures_dir}/compounds.tsv")
        mined = mine_sequences(corpus, kb, min_support=3)
        mappings = learn_mappings(mined, kb, min_support=3)
        forward = predict_instances(mappings, corpus, kb)
        backward = predict_instances(mappings, list(reversed(corpus)), kb)
        assert forward == backward


class TestBaseline:
    def test_types_become_wildcards(self):
        mp = TypeSequenceMapping("authorship", 3, 1,
                                 TypeSequence((("type", "book"), ("lex", "author"),
                                               ("type", "person"))), 11)
        (out,) = baseline_mappings([mp])
        assert out.sequence.elements == (("any", "*"), ("lex", "author"), ("any", "*"))

    def test_all_type_sequences_discarded(self):
        mp = TypeSequenceMapping("citizenofcountry", 3, 1,
                                 TypeSequence((("type", "country"), ("type", "profession"),
                                               ("type", "person"))), 12)
        assert baseline_mappings([mp]) == []

    def test_mixed_sequence_keeps_one_wildcard(self):
        mp = TypeSequenceMapping("r", 1, 2,
                                 TypeSequence((("type", "a"), ("lex", "of"),
                                               ("lex", "x"))), 10)
        (out,) = baseline_mappings([mp])
        assert out.sequence.elements == (("any", "*"), ("lex", "of"), ("lex", "x"))

    def test_baseline_overpredicts_and_knom_stays_typed(self, tmp_path):
        isa = "".join(f"book{i}\tbook\nwriter{i}\tperson\n" for i in range(10))
        rels = "".join(f"authorship\twriter{i}\tbook{i}\n" for i in range(10))
        kb = make_kb(tmp_path, isa=isa, relations=rels)
        corpus = [cn([f"book{i}", "author", f"writer{i}"], f"s{i}") for i in range(10)]
        mined = mine_sequences(corpus, kb, min_support=10)
        mappings = learn_mappings(mined, kb, min_support=10)
        assert len(mappings) == 1
        # Distractors violate the types but share the lexical anchor.
        distractors = [cn([f"thing{i}", "author", f"gadget{i}"], f"d{i}")
                       for i in range(5)]
        truth = {(f"writer{i}", f"book{i}") for i in range(10)}
        knom_preds = predict_instances(mappings, corpus + distractors, kb)
        base_preds = predict_instances(baseline_mappings(mappings),
                                       corpus + distractors, kb)
        knom_pairs = {(p.arg1, p.arg2) for p in knom_preds}
        base_pairs = {(p.arg1, p.arg2) for p in base_preds}
        assert knom_pairs <= truth
        assert knom_pairs < base_pairs
        assert not {(f"gadget{i}", f"thing{i}") for i in range(5)} <= knom_pairs


class TestPlantedRecovery:
    def test_planted_mappings_learned_exactly(self, tmp_path):
        compounds, isa_rows, relation_rows = planted_corpus()
        kb = make_kb(tmp_path,
                     isa="".join(f"{n}\t{c}\n" for n, c in isa_rows),
                     relations="".join(f"{r}\t{a}\t{b}\n" for r, a, b in relation_rows))
        mined = mine_sequences(compounds, kb, min_support=10)
        learned = learn_mappings(mined, kb, min_support=10)
        got = {(m.relation, m.arg1_pos, m.arg2_pos, m.sequence.elements)
               for m in learned}
        assert got == set(PLANTED)
        assert all(m.support == 12 for m in learned)

    def test_higher_threshold_returns_nothing(self, tmp_path):
        compounds, isa_rows, relation_rows = planted_corpus()
        kb = make_kb(tmp_path,
                     isa="".join(f"{n}\t{c}\n" for n, c in isa_rows),
                     relations="".join(f"{r}\t{a}\t{b}\n" for r, a, b in relation_rows))
        mined = mine_sequences(compounds, kb, min_support=10)
        assert learn_mappings(mined, kb, min_support=13) == []


class TestSamplingAndFiles:
    def test_sampling_is_seeded_and_capped(self, kb, fixtures_dir):
        corpus = read_compounds(f"{fixtures_dir}/compounds.tsv")
        mined = mine_sequences(corpus, kb, min_support=3)
        mappings = learn_mappings(mined, kb, min_support=3)
        preds = predict_instances(mappings, corpus, kb)
        assert sample_predictions(preds, size=100, seed=0) == preds
        small = sample_predictions(preds * 30, size=4, seed=0)
        assert len(small) == 4
        assert small == sample_predictions(preds * 30, size=4, seed=0)

    def test_mappings_round_trip(self, tmp_path, kb, fixtures_dir):
        corpus = read_compounds(f"{fixtures_dir}/compounds.tsv")
        mined = mine_sequences(corpus, kb, min_support=3)
        mappings = learn_mappings(mined, kb, min_support=3)
        path = tmp_path / "mappings.tsv"
        write_mappings(mappings, path)
        assert read_mappings(path) == mappings

    @settings(deadline=None, max_examples=100)
    @given(words=st.lists(TOKENS, min_size=2, max_size=6, unique_by=norm_token),
           seed=st.integers(min_value=0))
    def test_learned_mappings_round_trip(self, tmp_path_factory, words, seed):
        rng = random.Random(seed)
        words = [norm_token(w) for w in words]
        corpus = [cn(rng.choices(words, k=rng.randint(2, 3)), f"s{i}")
                  for i in range(rng.randint(1, 8))]
        types = {w: {rng.choice(("person", "tv show", "a:b"))}
                 for w in words if rng.random() < 0.5}
        pairs = {(rng.choice(words), rng.choice(words)) for _ in range(6)}
        pairs.add(corpus[0].tokens[:2])
        kb = KnowledgeBase({}, types, [], {}, {}, {"r": pairs})
        mappings = learn_mappings(mine_sequences(corpus, kb, 1), kb, 1)
        assert mappings
        path = tmp_path_factory.mktemp("knom") / "mappings.tsv"
        write_mappings(mappings, path)
        assert read_mappings(path) == mappings

    def test_upper_cased_mappings_predict_identically(self, tmp_path, kb, fixtures_dir):
        corpus = read_compounds(f"{fixtures_dir}/compounds.tsv")
        mappings = learn_mappings(mine_sequences(corpus, kb, min_support=3), kb, min_support=3)
        lower = tmp_path / "mappings.tsv"
        write_mappings(mappings, lower)
        upper = tmp_path / "upper.tsv"
        upper.write_text(lower.read_text(encoding="utf-8").upper()
                         .replace("TYPE:", "type:").replace("LEX:", "lex:"), encoding="utf-8")
        outputs = []
        for path in (lower, upper):
            out = tmp_path / f"predicted-{path.name}"
            write_predictions(predict_instances(read_mappings(path), corpus, kb), out)
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") == 6
        assert outputs[1] == outputs[0]

    def test_read_compounds_rejects_short_rows(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("id1\tonly\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_compounds(path)

    def test_predictions_file_format(self, tmp_path, kb):
        from kbread.knom import Prediction
        path = tmp_path / "p.tsv"
        write_predictions([Prediction("r", "x", "y", "s1", True),
                           Prediction("r", "x", "z", "s2", False)], path)
        assert path.read_text(encoding="utf-8") == (
            "r\tx\ty\ts1\tknown\nr\tx\tz\ts2\tnew\n")


class TestInputChecks:
    @pytest.mark.parametrize("min_support", [0, -3])
    def test_support_threshold_below_one_rejected(self, kb, min_support):
        with pytest.raises(ValueError, match="min_support"):
            mine_sequences([cn(["blue", "gizmo"])], kb, min_support)
        with pytest.raises(ValueError, match="min_support"):
            learn_mappings([], kb, min_support)

    def test_negative_sample_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            sample_predictions([], size=-2)
        assert sample_predictions([], size=0) == []


class TestAgainstOracles:
    """The indexed and pruned code returns exactly what the brute-force
    oracles in ``synth`` return, on random worlds drawn from a seed."""

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0))
    def test_pair_index_equals_scan(self, seed):
        kb, _ = random_knom_world(random.Random(seed))
        for arg1 in KNOM_WORDS + ("W1", "unknown"):
            for arg2 in KNOM_WORDS:
                assert kb.relations_between(arg1, arg2) == scan_relations_between(kb, arg1, arg2)

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(min_value=0), min_support=st.integers(min_value=1, max_value=5))
    def test_pruned_mining_equals_product(self, seed, min_support):
        kb, corpus = random_knom_world(random.Random(seed))
        assert (mine_sequences(corpus, kb, min_support)
                == product_mine_sequences(corpus, kb, min_support))

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(min_value=0), min_support=st.integers(min_value=1, max_value=5))
    def test_indexed_prediction_equals_all_pairs(self, seed, min_support):
        rng = random.Random(seed)
        kb, corpus = random_knom_world(rng)
        drawn = [random_mapping(rng) for _ in range(rng.randint(0, 12))]
        mined = mine_sequences(corpus, kb, min_support)
        learned = learn_mappings(rng.sample(mined, min(len(mined), 10)), kb, 1)
        mappings = drawn + learned + baseline_mappings(drawn + learned)
        assert (predict_instances(mappings, corpus, kb)
                == all_pairs_predict_instances(mappings, corpus, kb))
