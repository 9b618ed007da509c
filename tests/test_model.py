import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kbread.features import FAMILIES, NOUN, VERB, FeatureConfig, PPInstance, feature_name
from kbread.model import (AttachmentModel, TrainConfig, classify, classify_many,
                          expected_log_likelihood, gradient, load_model,
                          save_model, train_em, train_supervised)
from synth import sorted_sum_classify, two_cluster_data

NO_REG = TrainConfig(l2_penalty=0.0)


def fd_gradient(model, data, h=1e-6):
    """Central finite differences of the log likelihood, one weight at a time."""
    names = set(model.weights)
    for fv, _ in data:
        names |= set(fv)
    out = {}
    for name in names:
        shifted = {}
        for sign in (+1, -1):
            w = dict(model.weights)
            w[name] = w.get(name, 0.0) + sign * h
            shifted[sign] = expected_log_likelihood(
                AttachmentModel(w, config=model.config), data)
        out[name] = (shifted[+1] - shifted[-1]) / (2 * h)
    return out


def random_problem(rng, max_features=10, max_instances=20):
    pool = [f"f{i}" for i in range(rng.randint(2, max_features))]
    data = []
    for _ in range(rng.randint(1, max_instances)):
        fv = frozenset(f for f in pool if rng.random() < 0.5) or frozenset([pool[0]])
        data.append((fv, rng.choice((VERB, NOUN))))
    weights = {f: rng.uniform(-2, 2) for f in pool}
    cfg = TrainConfig(l2_penalty=rng.choice((0.0, 1e-4, 0.1)))
    return AttachmentModel(weights, config=cfg), data


class TestPredictProba:
    """The probability of verb attachment that ``classify`` returns."""

    def test_zero_weights_give_half(self):
        model = AttachmentModel({})
        assert classify(model, frozenset(["a", "b"]))[1] == 0.5

    def test_single_weight_matches_logistic(self):
        model = AttachmentModel({"x": 2.0})
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert classify(model, frozenset(["x"]))[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8808, abs=1e-4)

    def test_unseen_features_are_zero_weight(self):
        model = AttachmentModel({"x": 3.0})
        assert classify(model, frozenset(["y", "z"]))[1] == 0.5

    def test_extreme_scores_stay_inside_open_interval(self):
        for z in (1e4, -1e4, 700.0, -700.0):
            model = AttachmentModel({"x": z})
            p = classify(model, frozenset(["x"]))[1]
            assert 0.0 < p < 1.0

    def test_decision_threshold(self):
        model = AttachmentModel({"x": 0.1, "y": -0.1})
        assert classify(model, frozenset(["x"]))[0] == VERB
        assert classify(model, frozenset(["y"]))[0] == NOUN
        assert classify(model, frozenset())[0] == VERB  # ties go to the verb


class TestClassifyMany:
    NAMES = tuple(f"f{i}" for i in range(12))

    @settings(deadline=None, max_examples=200)
    @given(weights=st.dictionaries(
               st.sampled_from(NAMES[:8]),
               st.one_of(st.floats(-1e4, 1e4, allow_nan=False),
                         st.sampled_from((1e4, -1e4, 0.0, -0.0)))),
           fvs=st.lists(st.frozensets(st.sampled_from(NAMES)), max_size=12))
    def test_matches_sorted_sum_oracle_exactly(self, weights, fvs):
        # f8..f11 never carry a weight; empty sets and ±1e4 weights are drawn.
        # The CLI passes a generator, so the property does too.
        model = AttachmentModel(weights)
        assert classify_many(model, iter(fvs)) == [sorted_sum_classify(weights, fv)
                                                   for fv in fvs]

    def test_single_views_agree_with_the_batch(self):
        model = AttachmentModel({"a": 0.7, "b": -1.9, "c": 1e-3})
        fvs = [frozenset(), frozenset(["a"]), frozenset(["a", "b", "z"]),
               frozenset(["c", "b"])]
        batch = classify_many(model, fvs)
        assert [classify(model, fv) for fv in fvs] == batch


class TestLogLikelihood:
    def test_zero_weights_give_n_log_half(self):
        model = AttachmentModel({}, config=NO_REG)
        data = [(frozenset(["a"]), VERB), (frozenset(["b"]), NOUN),
                (frozenset(["a", "b"]), VERB)]
        assert expected_log_likelihood(model, data) == pytest.approx(
            3 * -math.log(2), abs=1e-12)

    def test_single_instance_closed_form(self):
        model = AttachmentModel({"x": 2.0}, config=NO_REG)
        data = [(frozenset(["x"]), VERB)]
        assert expected_log_likelihood(model, data) == pytest.approx(
            2.0 - math.log(1.0 + math.exp(2.0)), abs=1e-12)

    def test_never_positive(self):
        rng = random.Random(7)
        for _ in range(25):
            model, data = random_problem(rng)
            assert expected_log_likelihood(model, data) <= 0.0

    def test_posteriors_rejected(self):
        with pytest.raises(ValueError):
            train_supervised([(frozenset(["a"]), (0.5, 0.5))])

    def test_finite_at_extreme_scores(self):
        for z in (1e4, -1e4):
            model = AttachmentModel({"x": z}, config=NO_REG)
            data = [(frozenset(["x"]), VERB), (frozenset(["x"]), NOUN)]
            assert math.isfinite(expected_log_likelihood(model, data))
            assert all(math.isfinite(v) for v in gradient(model, data).values())

    def test_expected_matches_conditional_on_hard_labels(self):
        rng = random.Random(8)
        model, data = random_problem(rng)
        soft = [(fv, (1.0, 0.0) if y == VERB else (0.0, 1.0)) for fv, y in data]
        assert expected_log_likelihood(model, soft) == pytest.approx(
            expected_log_likelihood(model, data), abs=1e-12)


class TestGradient:
    def test_balanced_labels_cancel(self):
        model = AttachmentModel({}, config=NO_REG)
        fv = frozenset(["a"])
        g = gradient(model, [(fv, VERB), (fv, NOUN)])
        assert g["a"] == pytest.approx(0.0, abs=1e-15)

    def test_uniform_posterior_contributes_nothing(self):
        model = AttachmentModel({}, config=NO_REG)
        g = gradient(model, [(frozenset(["a", "b"]), (0.5, 0.5))])
        assert all(v == pytest.approx(0.0, abs=1e-15) for v in g.values())

    def test_matches_finite_differences(self):
        rng = random.Random(42)
        for _ in range(25):
            model, data = random_problem(rng)
            analytic = gradient(model, data)
            numeric = fd_gradient(model, data)
            for name in analytic:
                scale = max(1.0, abs(analytic[name]), abs(numeric[name]))
                assert abs(analytic[name] - numeric[name]) / scale < 1e-5

    def test_penalty_pulls_unused_weights_down(self):
        model = AttachmentModel({"idle": 2.0}, config=TrainConfig(l2_penalty=0.5))
        g = gradient(model, [(frozenset(["a"]), VERB)])
        assert g["idle"] == pytest.approx(-1.0, abs=1e-12)


class TestTrainSupervised:
    def test_separable_toy_reaches_full_accuracy(self):
        data = [(frozenset(["a"]), VERB), (frozenset(["a"]), VERB),
                (frozenset(["b"]), NOUN), (frozenset(["b"]), NOUN)]
        model = train_supervised(data, NO_REG)
        assert all(classify(model, fv)[0] == y for fv, y in data)

    def test_single_verb_instance_pushes_up(self):
        model = train_supervised([(frozenset(["a"]), VERB)], NO_REG)
        assert classify(model, frozenset(["a"]))[1] > 0.5

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_supervised([], NO_REG)

    def test_objective_never_below_start(self):
        rng = random.Random(3)
        for _ in range(5):
            _, data = random_problem(rng)
            cfg = TrainConfig()
            model = train_supervised(data, cfg)
            start = expected_log_likelihood(AttachmentModel({}, config=cfg), data)
            assert expected_log_likelihood(model, data) >= start - 1e-12

    def test_duplicated_dataset_classifies_identically(self):
        data = [(frozenset(["a"]), VERB), (frozenset(["a"]), VERB),
                (frozenset(["a"]), NOUN), (frozenset(["b"]), NOUN),
                (frozenset(["a", "b"]), VERB)]
        single = train_supervised(data, NO_REG)
        double = train_supervised(data + data, NO_REG)
        for fv, _ in data:
            assert classify(single, fv)[0] == classify(double, fv)[0]

    def test_label_flip_negates_probabilities(self):
        rng = random.Random(11)
        pool = [f"f{i}" for i in range(4)]
        data = []
        for _ in range(12):
            fv = frozenset(f for f in pool if rng.random() < 0.5) or frozenset([pool[0]])
            data.append((fv, rng.choice((VERB, NOUN))))
        flipped = [(fv, NOUN if y == VERB else VERB) for fv, y in data]
        m = train_supervised(data, NO_REG)
        m_flip = train_supervised(flipped, NO_REG)
        for fv, _ in data:
            assert classify(m_flip, fv)[1] == pytest.approx(
                1.0 - classify(m, fv)[1], abs=1e-6)

    def test_decisions_invariant_under_feature_renaming(self):
        rng = random.Random(13)
        _, data = random_problem(rng)
        renamed = [(frozenset(f + "_renamed" for f in fv), y) for fv, y in data]
        m = train_supervised(data, TrainConfig())
        m2 = train_supervised(renamed, TrainConfig())
        for (fv, _), (fv2, _) in zip(data, renamed):
            assert classify(m, fv)[0] == classify(m2, fv2)[0]


class TestTrainEM:
    def test_no_unlabeled_matches_supervised_decisions(self):
        labeled, _, test = two_cluster_data(seed=0, n_test=100)
        cfg = TrainConfig()
        supervised = train_supervised(labeled, cfg)
        em = train_em(labeled, [], cfg)
        for fv, _ in test:
            assert classify(em, fv) == classify(supervised, fv)

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            train_em([], [frozenset(["a"])], TrainConfig())

    def test_maximization_never_lowers_q(self):
        labeled, unlabeled, _ = two_cluster_data(seed=1)
        model = train_em(labeled, unlabeled, TrainConfig())
        iters = [r for r in model.history if r["phase"] == "em"]
        assert iters
        for record in iters:
            assert record["q_end"] >= record["q_start"] - 1e-12

    def test_labeled_objective_never_decreases_across_iterations(self):
        labeled, unlabeled, _ = two_cluster_data(seed=2)
        model = train_em(labeled, unlabeled, TrainConfig())
        lls = [r["ll"] for r in model.history if r["phase"] == "em"]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_unlabeled_data_never_hurts_held_out_accuracy(self):
        # The posterior-weighted objective is concave, so its semi-supervised
        # fixed point coincides with the supervised optimum: accuracy must
        # not drop when unlabeled data is added.
        for seed in range(5):
            labeled, unlabeled, test = two_cluster_data(seed=seed)
            cfg = TrainConfig()
            sup = train_supervised(labeled, cfg)
            em = train_em(labeled, unlabeled, cfg)

            def acc(m):
                return sum(classify(m, fv)[0] == y for fv, y in test) / len(test)

            assert acc(em) >= acc(sup)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["l2_penalty", "convergence_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})


def _pp_word(text):
    """``text`` as a PPInstance holds it, or None when it rejects it."""
    try:
        return PPInstance(v=text, n1="n1", p="p", n2="n2").v
    except ValueError:
        return None


PP_WORDS = st.text(min_size=1, max_size=8).map(_pp_word).filter(bool)
FEATURE_NAMES = st.builds(feature_name, st.sampled_from(FAMILIES),
                          st.lists(PP_WORDS, min_size=1, max_size=4))
TRAIN_CONFIGS = st.builds(
    TrainConfig,
    l2_penalty=st.floats(min_value=0, allow_infinity=False),
    max_em_iters=st.integers(min_value=1),
    max_gradient_steps=st.integers(min_value=1),
    convergence_tol=st.floats(min_value=0, exclude_min=True, allow_infinity=False))
FEATURE_CONFIGS = st.none() | st.builds(
    FeatureConfig,
    enabled_families=st.frozensets(st.sampled_from(FAMILIES), min_size=1),
    max_prep_senses=st.integers(min_value=0))


class TestModelFile:
    @settings(deadline=None, max_examples=100)
    @given(weights=st.dictionaries(FEATURE_NAMES, st.floats(allow_nan=False,
                                                            allow_infinity=False)),
           config=TRAIN_CONFIGS, feature_config=FEATURE_CONFIGS,
           n_labeled=st.integers(min_value=0), n_unlabeled=st.integers(min_value=0))
    def test_any_model_round_trips(self, tmp_path_factory, weights, config, feature_config,
                                   n_labeled, n_unlabeled):
        model = AttachmentModel(weights, config, n_labeled, n_unlabeled, feature_config)
        path = tmp_path_factory.mktemp("model") / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights == weights
        assert loaded.config == config
        assert loaded.feature_config == feature_config
        assert (loaded.n_labeled, loaded.n_unlabeled) == (n_labeled, n_unlabeled)

    def test_round_trip_reproduces_predictions_exactly(self, tmp_path):
        labeled, unlabeled, test = two_cluster_data(seed=5)
        model = train_em(labeled, unlabeled, TrainConfig())
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights == model.weights
        assert loaded.config == model.config
        assert loaded.n_labeled == model.n_labeled
        assert loaded.n_unlabeled == model.n_unlabeled
        for fv, _ in test:
            assert classify(loaded, fv)[1] == classify(model, fv)[1]

    def test_feature_settings_survive_round_trip(self, tmp_path):
        from kbread.features import FeatureConfig
        model = train_supervised([(frozenset(["a"]), VERB)], TrainConfig())
        model.feature_config = FeatureConfig(
            enabled_families=frozenset(["F1", "F8", "F15"]), max_prep_senses=2)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_config == model.feature_config

    def test_old_category_scheme_header_is_ignored(self, tmp_path):
        from kbread.features import FeatureConfig
        model = train_supervised([(frozenset(["a"]), VERB)], TrainConfig())
        model.feature_config = FeatureConfig()
        path = tmp_path / "model.tsv"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert "#category_scheme" not in text and "#learning_rate" not in text
        # Older files also carry the deleted learning_rate setting.
        path.write_text(text.replace("#max_prep_senses", "#category_scheme\tdefault\n"
                                     "#learning_rate\t0.5\n#max_prep_senses"),
                        encoding="utf-8")
        loaded = load_model(path)
        assert loaded.weights == model.weights
        assert loaded.feature_config == model.feature_config

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("hello\tworld\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_model(path)
