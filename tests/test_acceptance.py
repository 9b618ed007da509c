"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import contextlib
import filecmp
import random
import time

from kbread.cli import main as cli_main
from kbread.collins import fit_counts, predict
from kbread.evaluation import evaluate
from kbread.features import (FAMILIES, NOUN, VERB, FeatureConfig,
                             extract_features, read_corpus)
from kbread.model import (AttachmentModel, TrainConfig, classify, gradient,
                          train_em, train_supervised)
from kbread.ternary import (apply_role_templates, extract_ternary,
                            learn_role_templates, read_role_tuples,
                            read_tuples)
from kbread.knom import baseline_mappings, learn_mappings, mine_sequences
from test_kb import make_kb
from test_model import fd_gradient, random_problem
from synth import (PLANTED, backoff_oracle, planted_corpus,
                   random_attachment_corpus, two_cluster_data)


@contextlib.contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_feature_exactness(kb):
    with report(1, "feature exactness on the two reference sentences"):
        started = time.monotonic()
        cfg = FeatureConfig(enabled_families=frozenset(FAMILIES))
        from test_features import EXPECTED_1, EXPECTED_2, SENTENCE_1, SENTENCE_2
        assert extract_features(SENTENCE_1, kb, cfg) == EXPECTED_1
        assert extract_features(SENTENCE_2, kb, cfg) == EXPECTED_2
        assert time.monotonic() - started < 1.0


def test_criterion_2_gradient_matches_finite_differences():
    with report(2, "analytic gradient vs central finite differences"):
        rng = random.Random(20)
        for _ in range(20):
            model, data = random_problem(rng, max_features=10, max_instances=20)
            analytic = gradient(model, data)
            numeric = fd_gradient(model, data)
            for name in analytic:
                scale = max(1.0, abs(analytic[name]), abs(numeric[name]))
                assert abs(analytic[name] - numeric[name]) / scale < 1e-5


def test_criterion_3_em_sanity():
    with report(3, "EM sanity (degenerate case, Q monotone, benchmark)"):
        started = time.monotonic()
        cfg = TrainConfig()

        # (a) no unlabeled data: decisions identical to supervised training.
        labeled, _, _ = two_cluster_data(seed=100)
        supervised = train_supervised(labeled, cfg)
        degenerate = train_em(labeled, [], cfg)
        rng = random.Random(0)
        pool = [f"{c}{i}" for c in "ab" for i in range(6)]
        for _ in range(100):
            fv = frozenset(f for f in pool if rng.random() < 0.3)
            assert classify(degenerate, fv) == classify(supervised, fv)

        # (b, c) over ten fixed seeds: the maximization step never lowers the
        # posterior-weighted objective, and held-out accuracy with unlabeled
        # data is at least the supervised-only accuracy on average.
        em_accuracy = supervised_accuracy = 0.0
        for seed in range(10):
            labeled, unlabeled, test = two_cluster_data(seed=seed)
            sup = train_supervised(labeled, cfg)
            em = train_em(labeled, unlabeled, cfg)
            for record in em.history:
                if record["phase"] == "em":
                    assert record["q_end"] >= record["q_start"] - 1e-12

            def accuracy(model):
                return sum(classify(model, fv)[0] == y for fv, y in test) / len(test)

            em_accuracy += accuracy(em)
            supervised_accuracy += accuracy(sup)
        assert em_accuracy / 10 >= supervised_accuracy / 10
        assert time.monotonic() - started < 30.0


def test_criterion_4_collins_oracle_equivalence():
    with report(4, "back-off predictions match the brute-force oracle"):
        rng = random.Random(4)
        for _ in range(100):
            train, test = random_attachment_corpus(rng, max_quads=50)
            counts = fit_counts(train)
            for inst in test:
                decision, _ = predict(counts, inst)
                assert decision == backoff_oracle(train, inst)
                if inst.p == "of":
                    assert decision == NOUN


def test_criterion_5_ternary_gating_and_round_trip(kb, fixtures_dir):
    with report(5, "ternary gating and template round-trip"):
        # Exhaustive gating: emitted instances are exactly the verb-attached
        # inputs, so nothing originates from a noun-attached tuple.
        tuples = read_tuples(f"{fixtures_dir}/tuples.tsv")
        cfg = FeatureConfig()
        model = AttachmentModel({"F15:(from)": 5.0, "F15:(in)": 5.0,
                                 "F15:(as)": 5.0, "F15:(with)": 5.0,
                                 "F8:(expect,decline,in,rates)": -20.0}, feature_config=cfg)
        verb_inputs = {(t.n0, t.v, t.n1, t.p, t.n2) for t in tuples
                       if classify(model, extract_features(t, kb, cfg))[0] == VERB}
        noun_inputs = {(t.n0, t.v, t.n1, t.p, t.n2) for t in tuples} - verb_inputs
        emitted = {(t.n0, t.v, t.n1, t.p, t.n2)
                   for t in extract_ternary(tuples, model, kb)}
        assert noun_inputs and emitted == verb_inputs
        assert not emitted & noun_inputs

        # Applying templates to their own training tuples recovers every
        # label whose template survived the support threshold.
        labeled = read_role_tuples(f"{fixtures_dir}/tuples_roles.tsv")
        apply_model = AttachmentModel({"F15:(for)": 5.0, "F15:(with)": 5.0})
        for min_support in (1, 3):
            templates = learn_role_templates(labeled, kb, min_support=min_support)
            surviving = {t.label for t in templates}
            out = apply_role_templates(templates, [t for t, _ in labeled],
                                       apply_model, kb)
            recovered = 0
            expected = 0
            for (inst, label), result in zip(labeled, out):
                if label in surviving:
                    expected += 1
                    recovered += result.role_label == label
            assert expected > 0 and recovered == expected


def test_criterion_6_planted_mapping_recovery(tmp_path):
    with report(6, "planted compound-noun mappings recovered exactly"):
        compounds, isa_rows, relation_rows = planted_corpus()
        kb = make_kb(tmp_path,
                     isa="".join(f"{n}\t{c}\n" for n, c in isa_rows),
                     relations="".join(f"{r}\t{a}\t{b}\n" for r, a, b in relation_rows))
        mined = mine_sequences(compounds, kb, min_support=10)
        learned = learn_mappings(mined, kb, min_support=10)
        assert {(m.relation, m.arg1_pos, m.arg2_pos, m.sequence.elements)
                for m in learned} == set(PLANTED)
        assert all(m.support == 12 for m in learned)
        assert learn_mappings(mined, kb, min_support=13) == []

        kept = baseline_mappings(learned)
        all_type = {m.relation for m in learned
                    if all(kind == "type" for kind, _ in m.sequence.elements)}
        assert {m.relation for m in kept} == {m.relation for m in learned} - all_type
        assert all_type == {"workplace", "residence", "teamsport"}


def test_criterion_7_eval_partition_and_of_split(kb, fixtures_dir):
    with report(7, "per-preposition counts partition the overall tally"):
        # Hand-tallied fixture: ten instances, both errors on "of" quads.
        from test_evaluation import gold_instance
        gold = [gold_instance("of", NOUN), gold_instance("of", NOUN),
                gold_instance("of", NOUN), gold_instance("with", VERB),
                gold_instance("with", NOUN), gold_instance("in", VERB),
                gold_instance("in", NOUN), gold_instance("on", VERB),
                gold_instance("as", VERB), gold_instance("from", NOUN)]
        predictions = [VERB, VERB, NOUN, VERB, NOUN, VERB, NOUN, VERB, VERB, NOUN]
        hand = evaluate(predictions, gold)
        assert hand.accuracy == 0.8
        assert hand.accuracy_excl_of == 1.0

        # Partition property on every labeled fixture evaluation.
        test_set = read_corpus(f"{fixtures_dir}/quads_test.tsv")
        train_set = read_corpus(f"{fixtures_dir}/quads_labeled.tsv")
        cfg = FeatureConfig()
        model = train_supervised(
            [(extract_features(i, kb, cfg), i.label) for i in train_set],
            TrainConfig())
        model_report = evaluate(
            [classify(model, extract_features(i, kb, cfg))[0] for i in test_set],
            test_set)
        counts = fit_counts(train_set)
        collins_report = evaluate([predict(counts, i)[0] for i in test_set], test_set)
        for rep in (hand, model_report, collins_report):
            assert sum(s.correct for s in rep.per_prep.values()) == rep.correct
            assert sum(s.n for s in rep.per_prep.values()) == rep.n


def test_criterion_8_cli_runs_are_byte_identical(fixtures_dir, kb_dir, tmp_path):
    with report(8, "end-to-end command pipelines reproduce byte-identically"):
        outputs = []
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            model = str(base / "model.tsv")
            pred = str(base / "pred.tsv")
            rep = str(base / "report.txt")
            rep_tsv = str(base / "report.tsv")
            assert cli_main(["train", "--labeled", f"{fixtures_dir}/quads_labeled.tsv",
                             "--unlabeled", f"{fixtures_dir}/quads_unlabeled.tsv",
                             "--kb-dir", kb_dir, "--model-out", model,
                             "--seed", "0"]) == 0
            assert cli_main(["predict", "--model", model, "--input",
                             f"{fixtures_dir}/quads_test.tsv", "--kb-dir", kb_dir,
                             "--out", pred, "--seed", "0"]) == 0
            assert cli_main(["eval", "--test", f"{fixtures_dir}/quads_test.tsv",
                             "--model", model, "--collins-train",
                             f"{fixtures_dir}/quads_labeled.tsv", "--kb-dir", kb_dir,
                             "--out", rep, "--tsv-out", rep_tsv, "--seed", "0"]) == 0
            outputs.append((model, model + ".log", pred, rep, rep_tsv))
        for first, second in zip(*outputs):
            assert filecmp.cmp(first, second, shallow=False), (first, second)
