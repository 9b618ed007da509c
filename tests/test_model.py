import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.special import expit

import kbread
from kbread.features import (FAMILIES, NOUN, VERB, FeatureConfig, PPInstance, extractor,
                             feature_name, read_corpus)
from kbread.model import (MODEL_SETTINGS, AttachmentModel, TrainConfig, _expit, _intern,
                          _logistic, _newton, _Problem, classify, classify_instances,
                          classify_many, expected_log_likelihood, gradient, load_model,
                          save_model, train_em, train_supervised)
from kbread.ternary import extract_ternary, read_tuples
from kbread.tsv import FormatError
from synth import sorted_sum_classify, two_cluster_data

NO_REG = TrainConfig(l2_penalty=0.0)
#: Targets other than a label or a verb probability in [0, 1].
BAD_TARGETS = [(0.5, 0.5), "X", math.nan, -0.1, 1.1]


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


def norm(vector):
    return math.sqrt(sum(v * v for v in vector.values()))


def supervised_ll_after(data, cfg, steps):
    """The labeled objective after ``steps`` Newton iterations; the
    optimizer is deterministic, so a lower cap replays a prefix of a run."""
    if steps == 0:
        return expected_log_likelihood(AttachmentModel({}, config=cfg), data)
    capped = train_supervised(data, replace(cfg, max_gradient_steps=steps))
    return capped.history[0]["ll"]


def optimizer_cases():
    """(labeled data, config) pairs: random problems at each penalty, plus
    the two-cluster data with and without a penalty."""
    rng = random.Random(17)
    for _ in range(12):
        model, data = random_problem(rng)
        yield data, model.config
    for seed in range(3):
        labeled, _, _ = two_cluster_data(seed=seed)
        yield labeled, TrainConfig()
        yield labeled, NO_REG


class TestNewton:
    """The truncated-Newton optimizer behind every training call."""

    @pytest.mark.parametrize("data, cfg", list(optimizer_cases()))
    def test_converges_on_gradient(self, data, cfg):
        model = train_supervised(data, cfg)
        record = model.history[0]
        assert record["steps"] < cfg.max_gradient_steps
        assert record["grad_norm"] < cfg.convergence_tol
        assert record["grad_norm"] == pytest.approx(norm(gradient(model, data)),
                                                    rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("data, cfg", list(optimizer_cases()))
    def test_no_iteration_lowers_the_objective(self, data, cfg):
        steps = train_supervised(data, cfg).history[0]["steps"]
        lls = [supervised_ll_after(data, cfg, k) for k in range(steps + 1)]
        assert all(b >= a for a, b in zip(lls, lls[1:]))

    def test_a_step_that_would_lower_the_objective_is_halved(self):
        # From w = 30 on one feature the full Newton step overshoots; each
        # accepted step must still raise the objective, up to convergence.
        class Recording(_Problem):
            def value(self, w):
                v = super().value(w)
                if accepted and v < accepted[-1]:   # the step is halved
                    rejected.append(v)
                return v

            def derivatives(self, w):          # called at each accepted ``w``
                accepted.append(super().value(w))
                return super().derivatives(w)

        rejected, accepted = [], []
        cfg = TrainConfig(l2_penalty=0.1)
        problem = Recording([[0], [0], [0]], 1, [1.0, 0.0, 0.0], cfg.l2_penalty)
        w, value, steps, grad_norm = _newton(problem, np.array([30.0]), cfg)
        assert rejected
        assert len(accepted) == steps + 1
        assert accepted == sorted(accepted) and accepted[-1] == value
        assert grad_norm < cfg.convergence_tol
        assert w[0] == pytest.approx(-0.6039, abs=1e-4)

    def test_weights_do_not_depend_on_the_blas_thread_count(self):
        # Over 15,000 features, so a BLAS dot would split its vectors across
        # threads (OpenBLAS does above 10,000); conjugate gradient amplifies
        # any change in the rounding of its inner products.
        script = (
            "import random\n"
            "from kbread.model import train_supervised\n"
            "rng = random.Random(5)\n"
            "data = [(frozenset({f'w{rng.randrange(60000)}' for _ in range(6)}\n"
            "                  | {f'{y}{rng.randrange(5)}'}), y)\n"
            "        for y in ['V', 'N'] * 1500]\n"
            "print(sorted(train_supervised(data).weights.items()))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            outputs.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(outputs) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_unpenalized_separable_data_gives_finite_weights(self, seed):
        labeled, _, _ = two_cluster_data(seed=seed)
        model = train_supervised(labeled, NO_REG)
        assert all(math.isfinite(w) for w in model.weights.values())
        assert all(classify(model, fv)[0] == y for fv, y in labeled)


def same_bits(a, b):
    """Whether two float64 arrays hold the same bits, any NaN equal to any NaN."""
    nan = np.isnan(a)
    return (a.shape == b.shape and (nan == np.isnan(b)).all()
            and (a[~nan].view(np.uint64) == b[~nan].view(np.uint64)).all())


def scipy_pack(rows, n_features):
    """The rows of a :class:`_Problem` as a scipy CSR matrix, columns unsorted."""
    indptr = np.cumsum([0, *map(len, rows)])
    indices = np.array([c for row in rows for c in row], dtype=np.intp)
    return csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(rows), n_features))


#: Doubles within 40 ulps of where ``exp(-x)`` overflows (x = -709.78),
#: turns subnormal (708.40), underflows to zero (745.13) or is too small to
#: change ``1 + exp(-x)`` (36.74), of either sign.
EDGES = [float(x) for c in (709.782712893384, 708.3964185322641, 745.1332191019411,
                            36.7368005696771)
         for sign in (1.0, -1.0)
         for x in sign * c + np.arange(-40, 41) * np.spacing(c)]
#: Signed zeros, infinities, NaN and subnormals.
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
           -1e-310, 1e-300]


@st.composite
def packs(draw):
    """``(rows, n_features, w, u)``: rows of distinct column ids in drawn
    order, some or all of them empty, and a value per column and per row."""
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), unique=True) if n else st.just([]),
                         max_size=15))
    values = st.one_of(st.floats(), st.sampled_from((0.0, -0.0, 1e308, -1e308)))
    return (rows, n, draw(st.lists(values, min_size=n, max_size=n)),
            draw(st.lists(values, min_size=len(rows), max_size=len(rows))))


class TestAgainstScipy:
    """Training computes without scipy what scipy's ``expit`` and CSR and
    CSC products compute, bit for bit; these tests use scipy as the oracle."""

    @settings(deadline=None, max_examples=300)
    @given(x=st.lists(st.one_of(st.floats(), st.floats(-746.0, 746.0),
                                st.sampled_from(EDGES + SPECIAL)), max_size=40))
    @example(x=SPECIAL)
    @example(x=EDGES)
    @example(x=[])
    def test_expit_is_scipy_expit(self, x):
        x = np.array(x, dtype=np.float64)
        assert same_bits(_expit(x), expit(x))

    def test_expit_agrees_on_random_scores(self):
        x = np.random.default_rng(3).normal(0.0, 300.0, 200_000)
        assert same_bits(_expit(x), expit(x))

    def test_expit_overflow_gives_zero_without_a_warning(self):
        # Warnings are errors under the test configuration.
        assert _expit(np.array([-709.7827128933841, -1e308, -math.inf])).tolist() == [0.0] * 3

    @settings(deadline=None, max_examples=300)
    @given(pack=packs())
    @example(pack=([], 0, [], []))
    @example(pack=([], 3, [1.0, -0.0, 2.0], []))
    @example(pack=([[], [], []], 2, [1.0, 2.0], [-0.0, 1.0, math.nan]))
    @example(pack=([[2, 0, 1], [], [1]], 3, [1e308, 1e308, -1e308], [-0.0, 5.0, -0.0]))
    def test_products_are_scipy_csr_and_csc_products(self, pack):
        rows, n, w, u = pack
        w, u = np.array(w, dtype=np.float64), np.array(u, dtype=np.float64)
        problem, X = _Problem(rows, n), scipy_pack(rows, n)
        assert same_bits(problem.scores(w), X @ w)
        assert same_bits(problem.feature_sums(u), X.T @ u)

    def test_no_module_mentions_scipy(self):
        assert [path.name for path in Path(kbread.__file__).parent.glob("*.py")
                if "scipy" in path.read_text(encoding="utf-8")] == []


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
    # f8..f11 never carry a weight; empty sets and ±1e4 and ±0.0 weights are drawn.
    WEIGHTS = st.dictionaries(st.sampled_from(NAMES[:8]),
                              st.one_of(st.floats(-1e4, 1e4, allow_nan=False),
                                        st.sampled_from((1e4, -1e4, 0.0, -0.0))))
    SETS = st.lists(st.frozensets(st.sampled_from(NAMES)), max_size=12)
    WEIGHTS_AND_SETS = given(weights=WEIGHTS, fvs=SETS)

    @settings(deadline=None, max_examples=200)
    @WEIGHTS_AND_SETS
    def test_matches_sorted_sum_oracle_exactly(self, weights, fvs):
        # The CLI passes a generator, so the property does too.
        model = AttachmentModel(weights)
        assert classify_many(model, iter(fvs)) == [sorted_sum_classify(weights, fv)
                                                   for fv in fvs]

    @settings(deadline=None, max_examples=200)
    @WEIGHTS_AND_SETS
    def test_matches_the_packed_training_scorer(self, weights, fvs):
        # Training scores packed rows, inference one instance at a time; the
        # packing here keeps the never-weighted names, each adding a zero.
        vocab = {}
        rows = _intern(fvs, vocab)
        w = np.array([weights.get(name, 0.0) for name in vocab], dtype=float)
        packed = [_logistic(z) for z in _Problem(rows, len(vocab)).scores(w).tolist()]
        assert [p for _, p in classify_many(AttachmentModel(weights), fvs)] == packed

    @settings(deadline=None, max_examples=200)
    @given(weights=WEIGHTS, zeros=st.dictionaries(st.sampled_from(NAMES),
                                                  st.sampled_from((0.0, -0.0))), fvs=SETS)
    def test_zero_weights_score_as_missing_names(self, weights, zeros, fvs):
        # Training keeps no zero weight: a name without one must score the same.
        padded = AttachmentModel({**zeros, **weights})
        assert classify_many(padded, fvs) == classify_many(AttachmentModel(weights), fvs)

    def test_single_views_agree_with_the_batch(self):
        model = AttachmentModel({"a": 0.7, "b": -1.9, "c": 1e-3})
        fvs = [frozenset(), frozenset(["a"]), frozenset(["a", "b", "z"]),
               frozenset(["c", "b"])]
        batch = classify_many(model, fvs)
        assert [classify(model, fv) for fv in fvs] == batch


class CountingKB:
    """A knowledge base that counts the calls of the lookups only F1, F2, F5
    and F6 make; every other attribute is the wrapped one's."""

    LOOKUPS = ("svo_exists", "svo_any_verb", "roles_for", "prep_senses")

    def __init__(self, kb):
        self.kb = kb
        self.calls = Counter()

    def __getattr__(self, name):
        lookup = getattr(self.kb, name)
        if name not in self.LOOKUPS:
            return lookup

        def counted(*args):
            self.calls[name] += 1
            return lookup(*args)
        return counted


#: Every family, with the triple threshold at 1 so that F1, F2 and F6 fire on the fixtures.
EVERY_FAMILY = FeatureConfig(enabled_families=frozenset(FAMILIES), min_svo_count=1)


@pytest.fixture(scope="module")
def fixture_instances(fixtures_dir):
    """Every quad and 5-tuple of the fixtures, in file order."""
    quads = [inst for name in ("quads_labeled.tsv", "quads_test.tsv", "quads_unlabeled.tsv")
             for inst in read_corpus(os.path.join(fixtures_dir, name))]
    return quads + read_tuples(os.path.join(fixtures_dir, "tuples.tsv"))


def bits(decisions):
    """Decisions with each probability as its exact bits."""
    return [(label, p.hex()) for label, p in decisions]


class TestClassifyInstances:
    """``classify_instances`` extracts only the families a model weights and
    decides bit for bit as ``classify_many`` over every enabled family."""

    #: Weight names that no feature carries; "F4" names a weighted family all the same.
    STRAY_NAMES = ("junk", "F4", "F99:x")

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_decides_as_classify_many_over_every_enabled_family(self, kb, fixture_instances,
                                                                 data):
        extract = extractor(kb, EVERY_FAMILY)
        pool = sorted({name for inst in fixture_instances for name in extract(inst)})
        names = data.draw(st.lists(st.sampled_from([*pool, *self.STRAY_NAMES]), unique=True))
        model = AttachmentModel({name: data.draw(st.floats(-3, 3)) for name in names})
        cfg = FeatureConfig(
            enabled_families=data.draw(st.frozensets(st.sampled_from(FAMILIES), min_size=1)),
            max_prep_senses=data.draw(st.integers(0, 5)),
            min_svo_count=data.draw(st.sampled_from((1, FeatureConfig().min_svo_count))))
        expected = classify_many(model, map(extractor(kb, cfg), fixture_instances))
        scored = classify_instances(replace(model, feature_config=cfg), kb, fixture_instances)
        assert bits(scored) == bits(expected)

    @pytest.mark.parametrize("weights", [{}, {"F8:(a,b,c,d)": 1.5, "junk": -2.0, "F99:x": 3.0}],
                             ids=["no-weight", "no-enabled-family"])
    def test_no_weighted_family_decides_v_at_one_half(self, kb, fixture_instances, weights):
        counting = CountingKB(kb)
        cfg = FeatureConfig(enabled_families=frozenset({"F1", "F2", "F5", "F6"}), min_svo_count=1)
        model = AttachmentModel(weights, feature_config=cfg)
        decisions = classify_instances(model, counting, fixture_instances)
        assert decisions == [(VERB, 0.5)] * len(fixture_instances)
        assert bits(decisions) == bits(classify_many(model, map(extractor(kb, cfg),
                                                                fixture_instances)))
        assert not counting.calls

    def test_unweighted_knowledge_families_make_no_lookup(self, kb, fixture_instances):
        # A model trained on the other families: F1, F2, F5 and F6 are
        # enabled but unweighted, so scoring must not look them up.
        lookup_free = replace(EVERY_FAMILY, enabled_families=EVERY_FAMILY.enabled_families
                              - {"F1", "F2", "F5", "F6"})
        model = train_supervised([(extractor(kb, lookup_free)(inst), inst.label)
                                  for inst in fixture_instances if inst.label])
        model.feature_config = EVERY_FAMILY
        counting = CountingKB(kb)
        list(map(extractor(counting, EVERY_FAMILY), fixture_instances))
        assert set(counting.calls) == set(CountingKB.LOOKUPS)   # the spy sees every lookup
        counting.calls.clear()
        decisions = classify_instances(model, counting, fixture_instances)
        tuples = [inst for inst in fixture_instances if inst.n0]
        extract_ternary(tuples, model, counting)
        assert not counting.calls
        expected = classify_many(model, map(extractor(kb, EVERY_FAMILY), fixture_instances))
        assert bits(decisions) == bits(expected)
        assert {label for label, _ in decisions} == {VERB, NOUN}


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
            train_supervised([(frozenset(["a"]), 0.5)])

    @pytest.mark.parametrize("target", [0.0, 0.5, 1.0, *BAD_TARGETS], ids=repr)
    @pytest.mark.parametrize("train", [train_supervised, lambda data: train_em(data, [])],
                             ids=["supervised", "em"])
    def test_training_rejects_every_target_but_a_label(self, train, target):
        data = [(frozenset(["a"]), VERB), (frozenset(["b"]), target)]
        with pytest.raises(ValueError, match="training requires hard labels"):
            train(data)

    @pytest.mark.parametrize("target", BAD_TARGETS, ids=repr)
    @pytest.mark.parametrize("operation", [expected_log_likelihood, gradient])
    def test_other_targets_rejected(self, operation, target):
        model = AttachmentModel({"a": 0.5})
        with pytest.raises(ValueError, match="a label or a verb probability"):
            operation(model, [(frozenset(["a"]), VERB), (frozenset(["b"]), target)])

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2 ** 32), p=st.floats(0.0, 1.0))
    def test_a_verb_probability_mixes_the_two_labels(self, seed, p):
        # Both operations are linear in each target, and "V" is 1.0, "N" 0.0.
        model, data = random_problem(random.Random(seed))
        def at(target):
            return [(fv, target) for fv, _ in data]
        mixed = {VERB: p, NOUN: 1.0 - p}
        assert expected_log_likelihood(model, at(p)) == pytest.approx(
            sum(q * expected_log_likelihood(model, at(y)) for y, q in mixed.items()),
            rel=1e-12, abs=1e-12)
        by_label = {y: gradient(model, at(y)) for y in mixed}
        for name, value in gradient(model, at(p)).items():
            assert value == pytest.approx(sum(q * by_label[y][name] for y, q in mixed.items()),
                                          rel=1e-12, abs=1e-12)

    def test_finite_at_extreme_scores(self):
        for z in (1e4, -1e4):
            model = AttachmentModel({"x": z}, config=NO_REG)
            data = [(frozenset(["x"]), VERB), (frozenset(["x"]), NOUN)]
            assert math.isfinite(expected_log_likelihood(model, data))
            assert all(math.isfinite(v) for v in gradient(model, data).values())

    def test_expected_matches_conditional_on_hard_labels(self):
        rng = random.Random(8)
        model, data = random_problem(rng)
        soft = [(fv, 1.0 if y == VERB else 0.0) for fv, y in data]
        assert expected_log_likelihood(model, soft) == pytest.approx(
            expected_log_likelihood(model, data), abs=1e-12)


class TestGradient:
    def test_balanced_labels_cancel(self):
        model = AttachmentModel({}, config=NO_REG)
        fv = frozenset(["a"])
        g = gradient(model, [(fv, VERB), (fv, NOUN)])
        assert g["a"] == pytest.approx(0.0, abs=1e-15)

    NAMES = tuple(f"f{i}" for i in range(8))
    SETS = st.frozensets(st.sampled_from(NAMES), min_size=1)

    # Weights within ±2 over 8 names keep every probability inside the
    # interval ``classify`` clamps to, so it is the model's own posterior.
    @settings(deadline=None, max_examples=200)
    @given(weights=st.dictionaries(st.sampled_from(NAMES), st.floats(-2.0, 2.0)),
           labeled=st.lists(st.tuples(SETS, st.sampled_from((VERB, NOUN))), max_size=12),
           unlabeled=st.lists(SETS, min_size=1, max_size=12),
           l2=st.sampled_from((0.0, 1e-4, 0.1)))
    @example(weights={}, labeled=[], unlabeled=[frozenset(["f0", "f1"])], l2=0.0)
    def test_uniform_posterior_contributes_nothing(self, weights, labeled, unlabeled, l2):
        # At the model's own posteriors unlabeled data adds nothing to the
        # gradient, at any weights: so EM cannot move a supervised optimum.
        model = AttachmentModel(weights, config=TrainConfig(l2_penalty=l2))
        own = [(fv, classify(model, fv)[1]) for fv in unlabeled]
        before, after = gradient(model, labeled), gradient(model, labeled + own)
        assert set(before) <= set(after)
        assert all(abs(v - before.get(name, 0.0)) < 1e-12 for name, v in after.items())

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

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_labeled_objective_never_decreases_across_iterations(self, cap):
        # A converged supervised fit is a fixed point, so cap the Newton
        # iterations to leave EM something to do.
        labeled, unlabeled, _ = two_cluster_data(seed=2)
        model = train_em(labeled, unlabeled, TrainConfig(max_gradient_steps=cap))
        lls = [r["ll"] for r in model.history if r["phase"] == "em"]
        assert len(lls) > 1
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        # ``ll`` is the labeled objective over every weight, the unlabeled-only ones too.
        assert lls[-1] == pytest.approx(expected_log_likelihood(model, labeled), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_converges_at_the_first_iteration_on_two_clusters(self, seed):
        labeled, unlabeled, _ = two_cluster_data(seed=seed)
        model = train_em(labeled, unlabeled, TrainConfig())
        assert [r["iter"] for r in model.history if r["phase"] == "em"] == [1]

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32), l2=st.sampled_from((1e-4, 1e-2, 0.1, 1.0)))
    def test_supervised_optimum_is_a_fixed_point(self, seed, l2):
        # At the model's own posteriors the unlabeled gradient vanishes, so
        # Q's gradient at the supervised optimum is the labeled one, which
        # the supervised fit left below tolerance: the M-step takes no
        # Newton step and every weight stays as it is.
        rng = random.Random(seed)
        _, labeled = random_problem(rng)
        _, unlabeled = random_problem(rng)
        unlabeled = [fv for fv, _ in unlabeled]
        cfg = TrainConfig(l2_penalty=l2, max_em_iters=1)
        sup = train_supervised(labeled, cfg)
        em = train_em(labeled, unlabeled, cfg)
        assert sup.history[0]["grad_norm"] < cfg.convergence_tol
        record = em.history[1]
        assert record["m_steps"] == 0
        assert record["q_end"] == record["q_start"]
        assert record["ll"] == sup.history[0]["ll"]
        # Bit for bit (``hex`` tells -0.0 from 0.0); a feature only the
        # unlabeled data holds keeps its starting weight, 0.0, and so no row.
        assert ({name: weight.hex() for name, weight in em.weights.items()}
                == {name: weight.hex() for name, weight in sup.weights.items()})

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

    def test_the_default_l2_penalty_takes_fewer_newton_iterations_than_1e_4(self):
        # The default penalty keeps the fit away from interpolating the
        # labeled data, so Newton converges sooner (9 iterations against 13
        # here); the counts repeat exactly, unlike a time.
        labeled, _, _ = two_cluster_data(seed=0, n_labeled=200)
        default, earlier = (train_supervised(labeled, cfg).history[0]["steps"]
                            for cfg in (TrainConfig(), TrainConfig(l2_penalty=1e-4)))
        assert default < earlier


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
FEATURE_CONFIGS = st.builds(
    FeatureConfig,
    enabled_families=st.frozensets(st.sampled_from(FAMILIES), min_size=1),
    max_prep_senses=st.integers(min_value=0),
    min_svo_count=st.integers(min_value=1))


#: For each FeatureConfig field: its setting (the model header key, flag and
#: config key), a text other than the default and the value that text sets.
FEATURE_FIELDS = {"enabled_families": ("families", "F1,F8", frozenset({"F1", "F8"})),
                  "max_prep_senses": ("max_prep_senses", "0", 0),
                  "min_svo_count": ("min_svo_count", "1", 1)}
#: The same for each TrainConfig field; the text is as the model file spells it.
TRAIN_FIELDS = {"l2_penalty": ("l2_penalty", "0.5", 0.5),
                "max_em_iters": ("max_em_iters", "3", 3),
                "max_gradient_steps": ("max_gradient_steps", "7", 7),
                "convergence_tol": ("convergence_tol", "0.01", 0.01)}
SETTING_FIELDS = {TrainConfig: TRAIN_FIELDS, FeatureConfig: FEATURE_FIELDS}
#: The AttachmentModel attribute that holds each settings class.
CONFIG_ATTR = {TrainConfig: "config", FeatureConfig: "feature_config"}
#: Each row of MODEL_SETTINGS, as (class, field, key), with the key as its id.
SETTINGS = [pytest.param(cls, name, key, id=key) for cls, name, key, _, _ in MODEL_SETTINGS]


def model_file(tmp_path, *setting_lines, model=None):
    """A saved model's file (by default one with the default settings) with
    its setting lines replaced by ``setting_lines``."""
    path = tmp_path / "model.tsv"
    save_model(model or AttachmentModel({"F15:(with)": 0.5}), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")
              and line.split("\t")[0][1:] not in {key for _, _, key, _, _ in MODEL_SETTINGS}]
    rows = [line for line in lines if not line.startswith("#")]
    path.write_text("\n".join(header + list(setting_lines) + rows) + "\n", encoding="utf-8")
    return path


def other_settings_model():
    """A model whose every setting has the value of ``SETTING_FIELDS``, not its default."""
    def other(cls):
        return cls(**{name: value for name, (_, _, value) in SETTING_FIELDS[cls].items()})

    return AttachmentModel({"F15:(with)": 0.5}, n_labeled=4, n_unlabeled=2,
                           **{attr: other(cls) for cls, attr in CONFIG_ATTR.items()})


def settings_of_model(model):
    return {cls: getattr(model, attr) for cls, attr in CONFIG_ATTR.items()}


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

    def test_every_field_is_a_setting_with_its_own_key(self):
        assert ({(cls, name) for cls, name, _, _, _ in MODEL_SETTINGS}
                == {(cls, f.name) for cls in (TrainConfig, FeatureConfig) for f in fields(cls)})
        assert len({key for _, _, key, _, _ in MODEL_SETTINGS}) == len(MODEL_SETTINGS)
        for cls, fields_ in SETTING_FIELDS.items():
            assert set(fields_) == {f.name for f in fields(cls)}
            assert all(getattr(cls(), name) != value for name, (_, _, value) in fields_.items())

    @pytest.mark.parametrize("cls,name,key", SETTINGS)
    def test_each_setting_is_its_own_header_line(self, tmp_path, cls, name, key):
        _, text, value = SETTING_FIELDS[cls][name]
        cfg = replace(cls(), **{name: value})
        save_model(AttachmentModel({}, **{CONFIG_ATTR[cls]: cfg}), tmp_path / "saved.tsv")
        assert f"#{key}\t{text}\n" in (tmp_path / "saved.tsv").read_text(encoding="utf-8")
        loaded = load_model(model_file(tmp_path, f"#{key}\t{text}"))
        expected = {TrainConfig: TrainConfig(), FeatureConfig: FeatureConfig(), cls: cfg}
        assert settings_of_model(loaded) == expected

    def test_a_model_without_setting_lines_has_the_default_settings(self, tmp_path):
        saved = other_settings_model()
        loaded = load_model(model_file(tmp_path, model=saved))
        assert (loaded.config, loaded.feature_config) == (TrainConfig(), FeatureConfig())
        assert (loaded.weights, loaded.n_labeled, loaded.n_unlabeled) == (saved.weights, 4, 2)

    def test_a_model_keeps_the_l2_penalty_it_stores(self, tmp_path):
        # Models trained at the earlier default, 1e-4, load with it.
        assert load_model(model_file(tmp_path, "#l2_penalty\t0.0001")).config.l2_penalty == 1e-4

    def test_a_model_without_an_l2_penalty_line_has_the_default(self, tmp_path):
        assert load_model(model_file(tmp_path)).config.l2_penalty == 0.1

    @pytest.mark.parametrize("cls,name,key", SETTINGS)
    def test_a_model_without_one_setting_line_has_its_default(self, tmp_path, cls, name, key):
        saved = other_settings_model()
        path = tmp_path / "model.tsv"
        save_model(saved, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(f"#{key}\t")]
        assert len(kept) == len(lines) - 1
        path.write_text("".join(kept), encoding="utf-8")
        expected = settings_of_model(saved)
        expected[cls] = replace(expected[cls], **{name: getattr(cls(), name)})
        assert settings_of_model(load_model(path)) == expected

    @pytest.mark.parametrize("line", ["#familes\tF1", "#l2\t0.5", "#\t0", "#Families\tF1"])
    def test_an_unknown_header_key_is_an_error_at_its_line(self, tmp_path, line):
        path = model_file(tmp_path, "#families\tF1", line, "#min_svo_count\t2")
        with pytest.raises(FormatError) as exc:
            load_model(path)
        lineno = path.read_text(encoding="utf-8").splitlines().index(line) + 1
        key = line.split("\t")[0]
        assert str(exc.value) == f"{path}:{lineno}: unknown header key {key!r}"

    def test_a_file_of_another_format_is_not_reported_by_its_keys(self, tmp_path):
        path = tmp_path / "other.tsv"
        path.write_text("#kbread-model\t2\n#new_setting\t1\nF15:(with)\t0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="1: not a kbread-model v1 file"):
            load_model(path)

    @pytest.mark.parametrize("key,text", [
        ("families", "F1,F99"), ("families", ""), ("max_prep_senses", "five"),
        ("max_prep_senses", "-1"), ("min_svo_count", "0"), ("min_svo_count", "1.5"),
        ("l2_penalty", "-1"), ("l2_penalty", "inf"), ("max_em_iters", "0"),
        ("max_gradient_steps", "2.5"), ("convergence_tol", "0"), ("convergence_tol", "nan"),
    ])
    def test_bad_setting_line_alone_is_an_error_at_its_line(self, tmp_path, key, text):
        path = model_file(tmp_path, f"#{key}\t{text}")
        lines = path.read_text(encoding="utf-8").splitlines()
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.lineno == lines.index(f"#{key}\t{text}") + 1

    @pytest.mark.parametrize("key", ["n_labeled", "n_unlabeled"])
    def test_a_negative_instance_count_is_an_error_at_its_line(self, tmp_path, key):
        path = tmp_path / "model.tsv"
        save_model(AttachmentModel({"F15:(with)": 0.5}, n_labeled=4, n_unlabeled=2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"#{key}\t"))
        lines[lineno - 1] = f"#{key}\t-7"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}:{lineno}: #{key} '-7': an instance count must be >= 0"

    @pytest.mark.parametrize("lines,message", [
        (["#l2_penalty\t-1", "F15:(with)\t0.5", "F1:(at)\tmuch"],
         "#l2_penalty '-1': l2_penalty must be finite and nonnegative"),
        (["#bogus\t1", "#l2_penalty\t-1"], "unknown header key '#bogus'"),
        (["#l2_penalty", "#bogus\t1"], "malformed header line"),
        (["#l2_penalty\t0.5\t1", "#bogus\t1"], "malformed header line"),
        (["F15:(with)\tmuch", "#bogus\t1"], "weight is not a number: 'much'"),
    ], ids=["setting-then-weight", "key-then-setting", "one-column-header",
            "three-column-header", "non-numeric-weight"])
    def test_the_first_fault_in_file_order_is_reported(self, tmp_path, lines, message):
        path = tmp_path / "model.tsv"
        path.write_text("\n".join(["#kbread-model\t1", *lines]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("first", ["F15:(with)\t0.5", "#l2_penalty\t0.5", "#n_labeled\t3"],
                             ids=["weight", "setting", "count"])
    def test_the_format_line_comes_first(self, tmp_path, first):
        path = tmp_path / "model.tsv"
        path.write_text(f"{first}\n#kbread-model\t1\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}:1: not a kbread-model v1 file"

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("hello\tworld\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_model(path)
