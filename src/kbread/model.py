"""Binary attachment classifier: a logistic model over sparse boolean
feature sets.

The probability of verb attachment is the logistic function of the summed
weights of the present features. Supervised training maximizes the
L2-penalized conditional log likelihood by full-batch gradient ascent with
a backtracking step size, so the objective never decreases across accepted
steps.
Semi-supervised training wraps the same ascent in an
expectation-maximization loop: the current model supplies posteriors for
unlabeled instances, labeled instances keep hard 1/0 posteriors, and each
maximization step ascends the posterior-weighted (expected complete-data)
objective. Convergence is tracked on the labeled-data objective, which the
loop never decreases; with no unlabeled data the loop degenerates to
supervised training exactly.

Training data items are ``(feature_set, target)`` pairs where the target is
a hard label (``"V"``/``"N"``) or, for the posterior-weighted operations, a
``(p_verb, p_noun)`` pair.
"""

import math
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

from .features import VERB, NOUN, FeatureConfig, format_families, parse_families
from .tsv import FormatError, write_lines

_FIRST_STEP = 0.5
_MIN_STEP = 1e-12
_P_EPS = 1e-12

MODEL_FORMAT = "kbread-model"
MODEL_VERSION = "1"


@dataclass
class TrainConfig:
    """Training settings. The ``train`` flags and the model header are made
    from these fields, and each field's type parses its text."""

    l2_penalty: float = 1e-4
    max_em_iters: int = 20
    max_gradient_steps: int = 200
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if not 0 <= self.l2_penalty < math.inf:
            raise ValueError("l2_penalty must be finite and nonnegative")
        if self.max_em_iters < 1 or self.max_gradient_steps < 1:
            raise ValueError("iteration caps must be >= 1")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and positive")


@dataclass
class AttachmentModel:
    """Feature weights plus training metadata. Unseen features have
    implicit weight zero."""

    weights: dict[str, float]
    config: TrainConfig = field(default_factory=TrainConfig)
    n_labeled: int = 0
    n_unlabeled: int = 0
    feature_config: FeatureConfig | None = None
    history: list[dict] = field(default_factory=list, repr=False)


# -- targets -------------------------------------------------------------


def _posterior_pair(target):
    if isinstance(target, str):
        if target == VERB:
            return 1.0, 0.0
        if target == NOUN:
            return 0.0, 1.0
        raise ValueError(f"unknown label {target!r}")
    p1, p0 = target
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p0 <= 1.0):
        raise ValueError(f"posterior weights must lie in [0, 1], got {target!r}")
    return float(p1), float(p0)


# -- packed objective -----------------------------------------------------


def _intern(fvs, vocab):
    """Map feature sets to id tuples, growing the vocabulary in place.

    Names are interned in sorted order per instance so the layout (and
    hence float summation order) does not depend on set iteration order.
    """
    rows = []
    for fv in fvs:
        rows.append(tuple(vocab.setdefault(name, len(vocab)) for name in sorted(fv)))
    return rows


def _weights_over(weights, vocab):
    """A model's weights as a vector over a vocabulary; names without a
    weight get zero."""
    w = np.zeros(len(vocab))
    for name, i in vocab.items():
        w[i] = weights.get(name, 0.0)
    return w


class _Problem:
    """Posterior-weighted, L2-penalized conditional objective over instances
    packed as the rows of a sparse 0/1 matrix.

    :meth:`scores` and :meth:`grad` are the only code that sums feature
    weights. Each row keeps its columns in the order :func:`_intern` gave
    them and the matrix is never canonicalised: sorting column ids would
    change the order, and so the rounding, of every sum.
    """

    def __init__(self, rows, n_features, pairs=(), l2=0.0):
        counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indices = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=indptr[-1])
        self.X = csr_matrix((np.ones(len(indices)), indices, indptr),
                            shape=(len(rows), n_features))
        self.l2 = l2
        self.p1 = np.array([p[0] for p in pairs], dtype=np.float64)
        self.p0 = np.array([p[1] for p in pairs], dtype=np.float64)

    def scores(self, w):
        return self.X @ w

    def value(self, w):
        z = self.scores(w)
        softplus = np.logaddexp(0.0, z)
        data = self.p1 @ z - (self.p1 + self.p0) @ softplus
        return float(data - 0.5 * self.l2 * (w @ w))

    def grad(self, w):
        z = self.scores(w)
        coef = self.p1 - (self.p1 + self.p0) * expit(z)
        return self.X.T @ coef - self.l2 * w


def _ascend(problem, w, cfg):
    """Gradient ascent with backtracking: the step size starts at
    ``_FIRST_STEP``, doubles after each accepted step and halves while a step
    would lower the objective, so only non-decreasing steps are accepted.
    Returns ``(w, value, accepted_steps)``."""
    value = problem.value(w)
    lr = _FIRST_STEP
    steps = 0
    for _ in range(cfg.max_gradient_steps):
        g = problem.grad(w)
        lr *= 2.0
        while True:
            w_new = w + lr * g
            value_new = problem.value(w_new)
            if value_new >= value:
                break
            lr *= 0.5
            if lr < _MIN_STEP:
                return w, value, steps
        steps += 1
        gain = value_new - value
        w, value = w_new, value_new
        if gain < cfg.convergence_tol:
            break
    return w, value, steps


def _model_problem(model, data):
    """Pack data with hard or posterior targets against a model's weights;
    returns (problem, w, vocab)."""
    items = [(fv, _posterior_pair(t)) for fv, t in data]
    vocab = {name: i for i, name in enumerate(model.weights)}
    rows = _intern([fv for fv, _ in items], vocab)
    pairs = [p for _, p in items]
    problem = _Problem(rows, len(vocab), pairs, model.config.l2_penalty)
    return problem, _weights_over(model.weights, vocab), vocab


def _logistic(z: float) -> float:
    """Probability of verb attachment for one score, clamped into the open
    interval (0, 1)."""
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        p = e / (1.0 + e)
    return min(max(p, _P_EPS), 1.0 - _P_EPS)


# -- public operations ---------------------------------------------------


def classify_many(model: AttachmentModel, fvs) -> list[tuple[str, float]]:
    """Decision plus probability of verb attachment for each feature set;
    verb attachment wins at p >= 0.5.

    Each score sums the present weights in sorted feature order, so results
    are bit-stable across processes. Names without a weight are left out of
    the packing: adding zero never changes a sum that starts at zero.
    ``fvs`` may be a generator; only the packed rows are kept, not the
    feature sets.
    """
    weights = model.weights
    vocab = {}
    rows = _intern(([name for name in fv if name in weights] for fv in fvs), vocab)
    z = _Problem(rows, len(vocab)).scores(_weights_over(weights, vocab))
    return [((VERB if p >= 0.5 else NOUN), p) for p in map(_logistic, z.tolist())]


def classify(model: AttachmentModel, fv) -> tuple[str, float]:
    """Decision plus probability for one feature set."""
    return classify_many(model, [fv])[0]


def expected_log_likelihood(model: AttachmentModel, data) -> float:
    """Posterior-weighted conditional log likelihood, minus the L2 term.

    Each item is ``(feature_set, target)`` with a hard label or a
    ``(p_verb, p_noun)`` pair. With hard labels this is the plain
    conditional log likelihood.
    """
    problem, w, _ = _model_problem(model, data)
    return problem.value(w)


def gradient(model: AttachmentModel, data) -> dict[str, float]:
    """Gradient of the posterior-weighted objective in weight space.

    Covers every feature present in the data or carrying a model weight
    (the penalty term contributes to the latter even when absent from the
    data).
    """
    problem, w, vocab = _model_problem(model, data)
    g = problem.grad(w)
    return {name: float(g[i]) for name, i in vocab.items()}


def train_supervised(data, cfg: TrainConfig | None = None) -> AttachmentModel:
    """Fit weights to labeled data by gradient ascent: :func:`train_em`
    without unlabeled data."""
    return train_em(data, (), cfg)


def train_em(labeled, unlabeled, cfg: TrainConfig | None = None) -> AttachmentModel:
    """Fit weights to labeled plus unlabeled data.

    ``labeled`` holds ``(feature_set, label)`` pairs, ``unlabeled`` bare
    feature sets. Weights start from zero and ascend the labeled objective
    until it improves by less than ``convergence_tol`` or the step cap is
    reached. With unlabeled data, EM follows: each iteration fixes
    posteriors (hard for labeled instances, model probabilities for
    unlabeled ones), then ascends the posterior-weighted objective, and the
    loop stops when the labeled-data objective change drops below
    ``convergence_tol`` or after ``max_em_iters`` iterations.
    """
    labeled = list(labeled)
    unlabeled = list(unlabeled)
    if not labeled:
        raise ValueError("training requires at least one labeled instance")
    if not all(isinstance(t, str) for _, t in labeled):
        raise ValueError("training requires hard labels")
    cfg = cfg or TrainConfig()
    lab_pairs = [_posterior_pair(t) for _, t in labeled]
    vocab = {}
    lab_rows = _intern([fv for fv, _ in labeled], vocab)
    w, ll, steps = _ascend(_Problem(lab_rows, len(vocab), lab_pairs, cfg.l2_penalty),
                           np.zeros(len(vocab)), cfg)
    history = [{"phase": "supervised", "steps": steps, "ll": ll}]

    if unlabeled:
        unlab_rows = _intern(unlabeled, vocab)
        w = np.pad(w, (0, len(vocab) - len(w)))
        problem = _Problem(lab_rows + unlab_rows, len(vocab),
                           lab_pairs + [(0.5, 0.5)] * len(unlab_rows), cfg.l2_penalty)
        lab_problem = _Problem(lab_rows, len(vocab), lab_pairs, cfg.l2_penalty)
        unlab = slice(len(lab_rows), None)
        # Not ``ll``: ``w @ w`` over the padded ``w`` may round differently.
        ll_prev = lab_problem.value(w)
        for t in range(1, cfg.max_em_iters + 1):
            p1 = expit(problem.scores(w)[unlab])
            problem.p1[unlab] = p1
            problem.p0[unlab] = 1.0 - p1
            q_start = problem.value(w)
            w, q_end, steps = _ascend(problem, w, cfg)
            ll = lab_problem.value(w)
            history.append({"phase": "em", "iter": t, "q_start": q_start,
                            "q_end": q_end, "ll": ll, "m_steps": steps})
            if abs(ll - ll_prev) < cfg.convergence_tol:
                break
            ll_prev = ll

    weights = {name: float(w[i]) for name, i in vocab.items()}
    return AttachmentModel(weights, cfg, n_labeled=len(labeled), n_unlabeled=len(unlabeled),
                           history=history)


# -- model files ------------------------------------------------------------


def save_model(model: AttachmentModel, path) -> None:
    """Write a model as a versioned TSV; loading reproduces predictions
    exactly (weights are stored with round-trip float precision)."""
    lines = [
        f"#{MODEL_FORMAT}\t{MODEL_VERSION}",
        *(f"#{f.name}\t{getattr(model.config, f.name)!r}" for f in fields(TrainConfig)),
        f"#n_labeled\t{model.n_labeled}",
        f"#n_unlabeled\t{model.n_unlabeled}",
    ]
    if model.feature_config is not None:
        fc = model.feature_config
        lines.append(f"#families\t{format_families(fc.enabled_families)}")
        lines.append(f"#max_prep_senses\t{fc.max_prep_senses}")
    for name in sorted(model.weights):
        lines.append(f"{name}\t{model.weights[name]!r}")
    write_lines(path, lines)


def load_model(path) -> AttachmentModel:
    """Read a model file. Header keys of older files (``learning_rate``,
    ``category_scheme``) are ignored. A header value that does not parse, or
    that the settings' own checks reject, is a FormatError at its line, and
    so is a header key or feature name that an earlier line already set."""
    header = {}
    weights = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if line.startswith("#"):
                if len(cols) != 2:
                    raise FormatError(path, lineno, "malformed header line")
                if cols[0][1:] in header:
                    raise FormatError(path, lineno, f"repeated header key {cols[0]!r}")
                header[cols[0][1:]] = (cols[1], lineno)
                continue
            if len(cols) != 2:
                raise FormatError(path, lineno, "expected feature-name and weight")
            try:
                weight = float(cols[1])
            except ValueError:
                raise FormatError(path, lineno,
                                  f"weight is not a number: {cols[1]!r}") from None
            if not math.isfinite(weight):
                raise FormatError(path, lineno, f"weight is not finite: {cols[1]!r}")
            if cols[0] in weights:
                raise FormatError(path, lineno, f"repeated feature {cols[0]!r}")
            weights[cols[0]] = weight
    if header.get(MODEL_FORMAT, (None,))[0] != MODEL_VERSION:
        raise FormatError(path, 1, f"not a {MODEL_FORMAT} v{MODEL_VERSION} file")

    def value(key, convert, settings=None, field=None):
        """A header value, checked as ``settings(field=value)``."""
        text, lineno = header[key]
        try:
            parsed = convert(text)
            if settings is not None:
                settings(**{field or key: parsed})
        except ValueError as exc:
            raise FormatError(path, lineno, f"#{key} {text!r}: {exc}") from None
        return parsed

    try:
        cfg = TrainConfig(**{f.name: value(f.name, f.type, TrainConfig)
                             for f in fields(TrainConfig)})
    except KeyError as missing:
        raise FormatError(path, 1, f"missing header field {missing}") from None
    feature_config = None
    if "families" in header:
        given = {"enabled_families": value("families", parse_families,
                                           FeatureConfig, "enabled_families")}
        if "max_prep_senses" in header:
            given["max_prep_senses"] = value("max_prep_senses", int, FeatureConfig)
        feature_config = FeatureConfig(**given)
    counts = {key: value(key, int) for key in ("n_labeled", "n_unlabeled") if key in header}
    return AttachmentModel(weights=weights, config=cfg, feature_config=feature_config,
                           **counts)
