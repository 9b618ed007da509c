import random

import pytest

from kbread.evaluation import (compare, evaluate, format_reports,
                               write_prep_chart, write_reports_tsv)
from kbread.features import NOUN, VERB, PPInstance


def gold_instance(p, label):
    return PPInstance(v="v", n1="n1", p=p, n2="n2", label=label)


@pytest.fixture
def hand_tallied():
    """Ten instances, three with "of"; predictions miss exactly two "of"
    quads, so overall accuracy is 0.8 and the non-"of" slice is perfect."""
    gold = [gold_instance("of", NOUN), gold_instance("of", NOUN),
            gold_instance("of", NOUN), gold_instance("with", VERB),
            gold_instance("with", NOUN), gold_instance("in", VERB),
            gold_instance("in", NOUN), gold_instance("on", VERB),
            gold_instance("as", VERB), gold_instance("from", NOUN)]
    predictions = [VERB, VERB, NOUN, VERB, NOUN, VERB, NOUN, VERB, VERB, NOUN]
    return predictions, gold


class TestEvaluate:
    def test_all_correct_is_one_everywhere(self):
        gold = [gold_instance("with", VERB), gold_instance("of", NOUN)]
        report = evaluate([VERB, NOUN], gold)
        assert report.accuracy == 1.0
        assert report.accuracy_excl_of == 1.0
        assert all(s.accuracy == 1.0 for s in report.per_prep.values())

    def test_hand_tallied_of_split(self, hand_tallied):
        predictions, gold = hand_tallied
        report = evaluate(predictions, gold)
        assert report.accuracy == pytest.approx(0.8)
        assert report.n_excl_of == 7
        assert report.accuracy_excl_of == pytest.approx(1.0)

    def test_gold_distribution_recount(self, hand_tallied):
        predictions, gold = hand_tallied
        report = evaluate(predictions, gold)
        for prep, stats in report.per_prep.items():
            subset = [i for i in gold if i.p == prep]
            assert stats.n == len(subset)
            assert stats.gold_verb == sum(1 for i in subset if i.label == VERB)
            assert stats.gold_noun == sum(1 for i in subset if i.label == NOUN)

    def test_partition_property(self, hand_tallied):
        predictions, gold = hand_tallied
        report = evaluate(predictions, gold)
        assert sum(s.correct for s in report.per_prep.values()) == report.correct
        assert sum(s.n for s in report.per_prep.values()) == report.n

    def test_misaligned_sets_rejected(self):
        with pytest.raises(ValueError):
            evaluate([VERB], [gold_instance("of", NOUN), gold_instance("in", VERB)])

    def test_unlabeled_gold_rejected(self):
        with pytest.raises(ValueError):
            evaluate([VERB], [PPInstance(v="v", n1="a", p="of", n2="b")])

    def test_permutation_invariance(self, hand_tallied):
        predictions, gold = hand_tallied
        paired = list(zip(predictions, gold))
        random.Random(0).shuffle(paired)
        shuffled = evaluate([p for p, _ in paired], [g for _, g in paired])
        original = evaluate(predictions, gold)
        assert shuffled.accuracy == original.accuracy
        assert shuffled.per_prep == original.per_prep


class TestCompare:
    def test_reports_per_method_in_order(self, hand_tallied):
        _, gold = hand_tallied
        methods = {"always_verb": lambda insts: [VERB] * len(insts),
                   "echo_gold": lambda insts: [inst.label for inst in insts]}
        reports = compare(methods, gold)
        assert [r.method for r in reports] == ["always_verb", "echo_gold"]
        assert reports[1].accuracy == 1.0

    def test_adding_a_method_changes_no_other_row(self, hand_tallied):
        _, gold = hand_tallied
        one = compare({"always_verb": lambda insts: [VERB] * len(insts)}, gold)
        two = compare({"always_verb": lambda insts: [VERB] * len(insts),
                       "always_noun": lambda insts: [NOUN] * len(insts)}, gold)
        assert one[0] == two[0]

    def test_deterministic(self, hand_tallied):
        _, gold = hand_tallied
        methods = {"always_verb": lambda insts: [VERB] * len(insts)}
        assert compare(methods, gold) == compare(methods, gold)


class TestRendering:
    def test_text_table_contains_scopes(self, hand_tallied):
        predictions, gold = hand_tallied
        text = format_reports([evaluate(predictions, gold, method="demo")])
        assert "== demo ==" in text
        assert "overall" in text and "excl_of" in text
        assert "0.8000" in text

    def test_tsv_and_chart_files(self, tmp_path, hand_tallied):
        predictions, gold = hand_tallied
        report = evaluate(predictions, gold, method="demo")
        tsv = tmp_path / "report.tsv"
        chart = tmp_path / "chart.tsv"
        write_reports_tsv([report], tsv)
        write_prep_chart([report], chart)
        tsv_text = tsv.read_text(encoding="utf-8")
        assert "demo\toverall\t10\t8\t0.8000\t-\t-" in tsv_text
        assert "demo\texcl_of\t7\t7\t1.0000\t-\t-" in tsv_text
        chart_lines = chart.read_text(encoding="utf-8").strip().split("\n")
        assert chart_lines[0] == "#method\tpreposition\taccuracy"
        assert "demo\tof\t0.3333" in chart_lines
