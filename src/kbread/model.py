"""Binary attachment classifier: a logistic model over sparse boolean
feature sets.

The probability of verb attachment is the logistic function of the summed
weights of the present features; :func:`classify_instances` extracts only
the families the model holds a weight in. Supervised training maximizes
the L2-penalized conditional log likelihood by truncated Newton (Newton-CG;
Lin, Weng & Keerthi, JMLR 2008), accepting only steps that do not lower the
objective, until it converges. Semi-supervised training wraps the same
optimizer in an expectation-maximization loop: the current model supplies
posteriors for unlabeled instances, labeled instances keep hard 1/0
posteriors, and each maximization step maximizes the posterior-weighted
(expected complete-data) objective. The loop stops at its fixed point, when
a maximization step moves no weight; with no unlabeled data it degenerates
to supervised training exactly.

Training data items are ``(feature_set, target)`` pairs where the target is
a hard label (``"V"``/``"N"``) or, for the posterior-weighted operations, the
probability of verb attachment; a feature set is a set or list of names
without repeats. :data:`MODEL_SETTINGS` lists the settings a model file stores.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from itertools import chain

# numpy is imported inside the functions that build or evaluate the packed
# objective, not here. Only training, expected_log_likelihood and gradient
# use it; ``kbread.cli`` imports this module for MODEL_SETTINGS, which makes
# the setting flags when the parser is built, and no command but ``train``
# should pay for loading numpy.

from .features import VERB, NOUN, FeatureConfig, extractor, format_families, parse_families
from .tsv import FormatError, iter_lines, write_rows

_CG_MAX_ITERS = 50
_CG_RTOL = 0.1
_P_EPS = 1e-12

MODEL_FORMAT = "kbread-model"
MODEL_VERSION = "1"


@dataclass
class TrainConfig:
    """Training settings. Each field is a row of :data:`MODEL_SETTINGS`, and
    its type parses its text."""

    l2_penalty: float = 0.1         # as accurate as 1e-4 held out, in half the Newton iterations
    max_em_iters: int = 20
    max_gradient_steps: int = 200   # caps the Newton iterations of each optimization
    convergence_tol: float = 1e-6   # each optimization stops once ‖g‖ is below it

    def __post_init__(self):
        if not 0 <= self.l2_penalty < math.inf:
            raise ValueError("l2_penalty must be finite and nonnegative")
        if self.max_em_iters < 1 or self.max_gradient_steps < 1:
            raise ValueError("iteration caps must be >= 1")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and positive")


#: Every setting a model file stores, in header order, as ``(class, field,
#: key, parse, spell)``: ``key`` names its header line, its flag and its
#: --config key, ``parse`` reads its text and ``spell`` writes it back.
MODEL_SETTINGS = (
    *((TrainConfig, f.name, f.name, f.type, repr) for f in fields(TrainConfig)),
    (FeatureConfig, "enabled_families", "families", parse_families, format_families),
    (FeatureConfig, "max_prep_senses", "max_prep_senses", int, str),
    (FeatureConfig, "min_svo_count", "min_svo_count", int, str),
)
#: The ``(class, field, parse)`` of each setting, by its header key.
_SETTING_OF = {key: (cls, name, parse) for cls, name, key, parse, _ in MODEL_SETTINGS}
_COUNTS = ("n_labeled", "n_unlabeled")
#: Every key a model header may hold. Files written before ``learning_rate``
#: and ``category_scheme`` were deleted hold them, and they are ignored.
_HEADER_KEYS = {MODEL_FORMAT, *_COUNTS, "learning_rate", "category_scheme", *_SETTING_OF}


@dataclass
class AttachmentModel:
    """Feature weights plus training metadata. A feature without a weight
    scores 0.0, so training keeps no zero weight."""

    weights: dict[str, float]
    config: TrainConfig = field(default_factory=TrainConfig)
    n_labeled: int = 0
    n_unlabeled: int = 0
    feature_config: FeatureConfig = FeatureConfig()
    history: list[dict] = field(default_factory=list, repr=False)


# -- targets -------------------------------------------------------------


def _target(target):
    """The probability of verb attachment a target gives: 1.0 for ``"V"``,
    0.0 for ``"N"``, or a number in [0, 1] as it is."""
    if isinstance(target, str) and target in (VERB, NOUN):
        return 1.0 if target == VERB else 0.0
    if isinstance(target, numbers.Real) and 0.0 <= target <= 1.0:
        return float(target)
    raise ValueError(f"a target is a label or a verb probability in [0, 1], got {target!r}")


# -- packed objective -----------------------------------------------------


def _intern(fvs, vocab):
    """Map feature sets to id tuples, growing the vocabulary in place.

    Names are interned in sorted order per instance so the layout (and
    hence float summation order) does not depend on set or list order.
    """
    rows = []
    for fv in fvs:
        rows.append(tuple(vocab.setdefault(name, len(vocab)) for name in sorted(fv)))
    return rows


class _Problem:
    """Posterior-weighted, L2-penalized conditional objective over instances
    packed as the rows of a sparse 0/1 matrix, kept as a row id and a column
    id per nonzero. Each row's target ``y`` is a hard label or the
    probability of verb attachment (1.0 for ``"V"``).

    :meth:`scores` sums feature weights for training; :func:`classify_many`
    computes the same sums one instance at a time, without numpy, and a
    property test pins the two equal. Both products are sequential bincount
    sums, not BLAS or CSR: each adds its terms one at a time from +0.0, in
    :func:`_intern`'s column order, which sorting would change. Inner
    products are numpy sums, not BLAS dots, whose rounding depends on how
    many threads split a long vector.
    """

    def __init__(self, rows, n_features, y=(), l2=0.0):
        import numpy as np
        counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        self.rows = np.repeat(np.arange(len(rows)), counts)
        self.cols = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=len(self.rows))
        self.shape = (len(rows), n_features)
        self.l2 = l2
        self.y = np.array(y, dtype=np.float64)

    def scores(self, w):           # X·w
        import numpy as np
        return np.bincount(self.rows, weights=w[self.cols], minlength=self.shape[0])

    def feature_sums(self, u):     # Xᵀ·u
        import numpy as np
        return np.bincount(self.cols, weights=u[self.rows], minlength=self.shape[1])

    def value(self, w):
        import numpy as np
        z = self.scores(w)
        data = self.y * z - np.logaddexp(0.0, z)
        return float(data.sum() - 0.5 * self.l2 * (w * w).sum())

    def derivatives(self, w):
        """The gradient at ``w`` and the row weights ``D`` of ``−Hessian = X.T D X + l2 I``."""
        z = self.scores(w)
        sigma = _expit(z)
        return self.feature_sums(self.y - sigma) - self.l2 * w, sigma * _expit(-z)


def _newton(problem, w, cfg):
    """Maximize the objective from ``w`` by truncated Newton. Each iteration
    solves ``(X.T D X + l2 I) d = g`` by conjugate gradient from zero, for at
    most ``_CG_MAX_ITERS`` products or until the residual is below
    ``_CG_RTOL * ‖g‖``, then halves the step ``d`` while it would lower the
    objective. Stops when ``‖g‖`` falls below ``convergence_tol``, after
    ``max_gradient_steps`` iterations, or at an uncounted iteration whose
    step cannot move ``w``. Returns ``(w, value, iterations, ‖g‖)``."""
    import numpy as np
    scale = max(1.0, problem.l2)    # the system over ``scale`` keeps ``l2 * v`` finite
    l2 = problem.l2 / scale
    value, steps = problem.value(w), 0
    g, curvature = problem.derivatives(w)
    while steps < cfg.max_gradient_steps and math.sqrt((g * g).sum()) >= cfg.convergence_tol:
        curvature, d, r = curvature / scale, np.zeros_like(g), g / scale
        p, rr = r, (r * r).sum()
        stop = _CG_RTOL ** 2 * rr
        for _ in range(_CG_MAX_ITERS):
            hp = problem.feature_sums(curvature * problem.scores(p)) + l2 * p
            if (php := (p * hp).sum()) <= 0:
                break
            alpha = rr / php
            d, r = d + alpha * p, r - alpha * hp
            rr, rr_old = (r * r).sum(), rr
            if rr <= stop:
                break
            p = r + (rr / rr_old) * p
        t = 1.0                     # halving ends once ``t * d`` cannot move ``w``
        while (value_new := problem.value(w_new := w + t * d)) < value:
            t *= 0.5
        if (w_new == w).all():      # it would repeat unchanged up to the cap
            break
        steps += 1
        w, value = w_new, value_new
        g, curvature = problem.derivatives(w)
    return w, value, steps, math.sqrt((g * g).sum())


def _model_problem(model, data):
    """Pack data with hard or posterior targets against a model's weights;
    returns (problem, w, vocab)."""
    import numpy as np
    items = [(fv, _target(t)) for fv, t in data]
    vocab = {name: i for i, name in enumerate(model.weights)}
    rows = _intern([fv for fv, _ in items], vocab)
    problem = _Problem(rows, len(vocab), [y for _, y in items], model.config.l2_penalty)
    w = np.array([model.weights.get(name, 0.0) for name in vocab], dtype=float)
    return problem, w, vocab


def _expit(x):
    """``1/(1+exp(-x))`` for each element of an array, bit for bit as C computes
    it: ``math.exp`` is the C library's, and numpy's ``exp`` may differ in the last
    bit. Where ``exp(-x)`` overflows, and ``math.exp`` would raise, it is 0.0."""
    import numpy as np
    m = np.where(x < -math.log(np.finfo(float).max), np.inf, -x).tolist()
    return 1.0 / (1.0 + np.fromiter(map(math.exp, m), dtype=np.float64, count=len(m)))


def _logistic(z: float) -> float:
    """Probability of verb attachment for one score, clamped into the open
    interval (0, 1). Training's vectorised E-step and gradient use
    :func:`_expit` instead; this one takes no array, so that scoring never
    loads numpy."""
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

    Each score adds the present weights in sorted feature order, starting
    from +0.0, so results are bit-stable across processes and equal to the
    packed scores training computes. Names without a weight are skipped:
    adding zero never changes a sum that starts at +0.0. ``fvs`` holds sets
    or lists of names without repeats; it may be a generator, read one at a time.
    """
    weights = model.weights
    decisions = []
    for fv in fvs:
        z = 0.0
        for name in sorted([name for name in fv if name in weights]):
            z += weights[name]      # not sum(): Python 3.12 compensates float sums
        p = _logistic(z)
        decisions.append(((VERB if p >= 0.5 else NOUN), p))
    return decisions


def scored_families(model: AttachmentModel, cfg: FeatureConfig) -> frozenset[str]:
    """The families ``cfg`` enables that a weight's name starts with (before ``:``)."""
    return cfg.enabled_families & {name.partition(":")[0] for name in model.weights}


def classify_instances(model: AttachmentModel, kb, cfg: FeatureConfig | None, instances):
    """:func:`classify_many` on each instance's features that ``cfg`` (by default
    the model's ``feature_config``) enables, extracting only the :func:`scored_families`."""
    cfg = cfg or model.feature_config
    families = scored_families(model, cfg)
    if not families:                # every score is +0.0, and FeatureConfig needs a family
        return [(VERB, 0.5) for _ in instances]
    extract = extractor(kb, replace(cfg, enabled_families=families))
    return classify_many(model, map(extract, instances))


def classify(model: AttachmentModel, fv) -> tuple[str, float]:
    """Decision plus probability for one feature set."""
    return classify_many(model, [fv])[0]


def expected_log_likelihood(model: AttachmentModel, data) -> float:
    """Posterior-weighted conditional log likelihood, minus the L2 term.

    Each item is ``(feature_set, target)`` with a hard label or the
    probability of verb attachment. With hard labels this is the plain
    conditional log likelihood.
    """
    problem, w, _ = _model_problem(model, data)
    return problem.value(w)


def gradient(model: AttachmentModel, data) -> dict[str, float]:
    """Gradient of the posterior-weighted objective in weight space. Each
    item's target is a hard label or the probability of verb attachment.

    Covers every feature present in the data or carrying a model weight
    (the penalty term contributes to the latter even when absent from the
    data).
    """
    problem, w, vocab = _model_problem(model, data)
    g, _ = problem.derivatives(w)
    return {name: float(g[i]) for name, i in vocab.items()}


def train_supervised(data, cfg: TrainConfig | None = None) -> AttachmentModel:
    """Fit weights to labeled data by truncated Newton: :func:`train_em`
    without unlabeled data."""
    return train_em(data, (), cfg)


def train_em(labeled, unlabeled, cfg: TrainConfig | None = None) -> AttachmentModel:
    """Fit weights to labeled plus unlabeled data.

    ``labeled`` holds ``(feature_set, label)`` pairs, ``unlabeled`` bare
    feature sets, each a set or list of names without repeats. Weights start
    from zero and maximize the labeled objective by :func:`_newton`. With
    unlabeled data, EM follows: each iteration fixes posteriors (hard for
    labeled instances, model probabilities for unlabeled ones), maximizes
    the posterior-weighted objective the same way and logs the labeled one
    as ``ll``. It stops at its fixed point, an M-step that moves no weight,
    or after ``max_em_iters`` iterations. The model keeps only the nonzero
    weights: a name without one scores 0.0, as a zero weight would.
    """
    labeled = list(labeled)
    unlabeled = list(unlabeled)
    if not labeled:
        raise ValueError("training requires at least one labeled instance")
    if not all(t in (VERB, NOUN) for _, t in labeled):
        raise ValueError("training requires hard labels")
    import numpy as np
    cfg = cfg or TrainConfig()
    lab_y = [_target(t) for _, t in labeled]
    vocab = {}
    lab_rows = _intern([fv for fv, _ in labeled], vocab)
    lab_problem = _Problem(lab_rows, len(vocab), lab_y, cfg.l2_penalty)
    w, ll, steps, grad_norm = _newton(lab_problem, np.zeros(len(vocab)), cfg)
    history = [{"phase": "supervised", "steps": steps, "ll": ll, "grad_norm": grad_norm}]

    if unlabeled:
        n = len(vocab)              # the labeled features, which ``lab_problem`` covers
        unlab_rows = _intern(unlabeled, vocab)
        w = np.pad(w, (0, len(vocab) - n))
        problem = _Problem(lab_rows + unlab_rows, len(vocab),
                           lab_y + [0.5] * len(unlab_rows), cfg.l2_penalty)
        unlab = slice(len(lab_rows), None)
        for t in range(1, cfg.max_em_iters + 1):
            problem.y[unlab] = _expit(problem.scores(w)[unlab])
            q_start = problem.value(w)
            w, q_end, steps, grad_norm = _newton(problem, w, cfg)
            ll = float(lab_problem.value(w[:n]) - 0.5 * cfg.l2_penalty * (w[n:] ** 2).sum())
            history.append({"phase": "em", "iter": t, "q_start": q_start, "q_end": q_end,
                            "ll": ll, "m_steps": steps, "grad_norm": grad_norm})
            if steps == 0:
                break

    weights = {name: float(w[i]) for name, i in vocab.items() if w[i] != 0.0}
    return AttachmentModel(weights, cfg, n_labeled=len(labeled), n_unlabeled=len(unlabeled),
                           history=history)


# -- model files ------------------------------------------------------------


def save_model(model: AttachmentModel, path) -> None:
    """Write a model as a versioned TSV; loading reproduces predictions
    exactly (weights are stored with round-trip float precision)."""
    header = [
        f"#{MODEL_FORMAT}\t{MODEL_VERSION}",
        *(f"#{key}\t{spell(getattr(model.config, name))}"
          for cls, name, key, _, spell in MODEL_SETTINGS if cls is TrainConfig),
        f"#n_labeled\t{model.n_labeled}",
        f"#n_unlabeled\t{model.n_unlabeled}",
        *(f"#{key}\t{spell(getattr(model.feature_config, name))}"
          for cls, name, key, _, spell in MODEL_SETTINGS if cls is FeatureConfig),
    ]
    write_rows(path, ([name, repr(model.weights[name])] for name in sorted(model.weights)), header)


def load_model(path) -> AttachmentModel:
    """Read a model file in one pass, checking each line where it stands, so
    that of several faults the first in file order is reported. The first
    line must be the format line. A setting whose line the file lacks is the
    default, and older keys (``learning_rate``, ``category_scheme``) are
    ignored. An unknown header key is a FormatError at its line, and so is
    a header value that does not parse, a negative count, a setting its own
    checks reject, and a header key or feature name an earlier line set."""
    lines = iter_lines(path)
    if next(lines, (1, None))[1] != f"#{MODEL_FORMAT}\t{MODEL_VERSION}":
        raise FormatError(path, 1, f"not a {MODEL_FORMAT} v{MODEL_VERSION} file")
    seen, settings, counts, weights = {MODEL_FORMAT}, {TrainConfig: {}, FeatureConfig: {}}, {}, {}
    for lineno, line in lines:
        cols = line.split("\t")
        if line.startswith("#"):
            if len(cols) != 2:
                raise FormatError(path, lineno, "malformed header line")
            key, text = cols[0][1:], cols[1]
            if key in seen:
                raise FormatError(path, lineno, f"repeated header key {cols[0]!r}")
            if key not in _HEADER_KEYS:
                raise FormatError(path, lineno, f"unknown header key {cols[0]!r}")
            seen.add(key)
            try:
                if key in _SETTING_OF:
                    cls, name, parse = _SETTING_OF[key]
                    settings[cls][name] = parse(text)
                    cls(**{name: settings[cls][name]})      # the setting's own checks
                elif key in _COUNTS:
                    counts[key] = int(text)
                    if counts[key] < 0:
                        raise ValueError("an instance count must be >= 0")
            except ValueError as exc:
                raise FormatError(path, lineno, f"#{key} {text!r}: {exc}") from None
            continue
        if len(cols) != 2:
            raise FormatError(path, lineno, "expected feature-name and weight")
        try:
            weight = float(cols[1])
        except ValueError:
            raise FormatError(path, lineno, f"weight is not a number: {cols[1]!r}") from None
        if not math.isfinite(weight):
            raise FormatError(path, lineno, f"weight is not finite: {cols[1]!r}")
        if cols[0] in weights:
            raise FormatError(path, lineno, f"repeated feature {cols[0]!r}")
        weights[cols[0]] = weight
    return AttachmentModel(weights=weights, config=TrainConfig(**settings[TrainConfig]),
                           feature_config=FeatureConfig(**settings[FeatureConfig]), **counts)
