import random

import pytest

from kbread.collins import fit_counts, predict
from kbread.features import NOUN, VERB, PPInstance
from synth import backoff_oracle, random_attachment_corpus


def quad(v, n1, p, n2, label=None):
    return PPInstance(v=v, n1=n1, p=p, n2=n2, label=label)


class TestFitCounts:
    def test_three_copies_tally(self):
        data = [quad("give", "aid", "to", "city", VERB)] * 3
        counts = fit_counts(data)
        assert counts.pattern_counts(("v", "n1", "p", "n2"))[("give", "aid", "to", "city")] == (3, 0)
        assert counts.pattern_counts(("v", "p"))[("give", "to")] == (3, 0)
        assert counts.pattern_counts(("p",))[("to",)] == (3, 0)

    def test_counts_match_brute_force_recount(self):
        rng = random.Random(1)
        train, _ = random_attachment_corpus(rng)
        counts = fit_counts(train)
        for pattern in (("v", "n1", "p"), ("v", "p", "n2"), ("n1", "p", "n2")):
            table = counts.pattern_counts(pattern)
            for key, (cv, cn) in table.items():
                match = [t for t in train
                         if all(getattr(t, s) == k for s, k in zip(pattern, key))]
                assert cv == sum(1 for t in match if t.label == VERB)
                assert cn == sum(1 for t in match if t.label == NOUN)

    def test_concatenation_adds_counts(self):
        rng = random.Random(2)
        a, _ = random_attachment_corpus(rng)
        b, _ = random_attachment_corpus(rng)
        whole = fit_counts(a + b).pattern_counts(("p",))
        pa = fit_counts(a).pattern_counts(("p",))
        pb = fit_counts(b).pattern_counts(("p",))
        for key in whole:
            expected = tuple(pa.get(key, (0, 0))[i] + pb.get(key, (0, 0))[i] for i in (0, 1))
            assert whole[key] == expected

    def test_empty_and_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            fit_counts([])
        with pytest.raises(ValueError):
            fit_counts([quad("a", "b", "c", "d")])

    def test_marginal_consistency(self):
        rng = random.Random(3)
        train, _ = random_attachment_corpus(rng)
        counts = fit_counts(train)
        quads = counts.pattern_counts(("v", "n1", "p", "n2"))
        triples = counts.pattern_counts(("v", "n1", "p"))
        for (v, n1, p), cell in triples.items():
            cv = sum(c[0] for k, c in quads.items() if k[:3] == (v, n1, p))
            cn = sum(c[1] for k, c in quads.items() if k[:3] == (v, n1, p))
            assert cell == (cv, cn)


class TestPredict:
    def test_of_always_noun(self):
        data = [quad("give", "aid", "of", "city", VERB)] * 10
        counts = fit_counts(data)
        label, p = predict(counts, quad("give", "aid", "of", "city"))
        assert label == NOUN

    def test_quad_level_ratio(self):
        data = [quad("a", "b", "with", "c", VERB)] * 4 + [quad("a", "b", "with", "c", NOUN)]
        counts = fit_counts(data)
        label, p = predict(counts, quad("a", "b", "with", "c"))
        assert label == VERB
        assert p == pytest.approx(0.8)

    def test_unseen_everything_defaults_to_noun(self):
        counts = fit_counts([quad("a", "b", "with", "c", VERB)])
        label, p = predict(counts, quad("x", "y", "zunder", "w"))
        assert label == NOUN

    def test_observed_quad_shadows_lower_levels(self):
        data = [quad("a", "b", "with", "c", VERB)]
        # Pile contrary evidence on every shallower level.
        data += [quad("a", "b", "with", "zz", NOUN)] * 20
        data += [quad("a", "qq", "with", "c", NOUN)] * 20
        counts = fit_counts(data)
        label, p = predict(counts, quad("a", "b", "with", "c"))
        assert (label, p) == (VERB, 1.0)

    def test_tie_goes_to_verb(self):
        data = [quad("a", "b", "with", "c", VERB), quad("a", "b", "with", "c", NOUN)]
        counts = fit_counts(data)
        label, p = predict(counts, quad("a", "b", "with", "c"))
        assert label == VERB
        assert p == pytest.approx(0.5)

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(4)
        for _ in range(20):
            train, test = random_attachment_corpus(rng)
            counts = fit_counts(train)
            for inst in test:
                assert predict(counts, inst)[0] == backoff_oracle(train, inst)

    def test_training_order_irrelevant(self):
        rng = random.Random(5)
        train, test = random_attachment_corpus(rng)
        shuffled = list(train)
        rng.shuffle(shuffled)
        a = fit_counts(train)
        b = fit_counts(shuffled)
        for inst in test:
            assert predict(a, inst) == predict(b, inst)
