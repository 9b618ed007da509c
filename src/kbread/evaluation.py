"""Attachment accuracy reports: overall, per preposition, and with the
trivially noun-attached "of" quads excluded."""

from __future__ import annotations

from dataclasses import dataclass, field

from .features import NOUN, VERB
from .tsv import norm_token, write_lines


@dataclass
class PrepStats:
    n: int = 0
    correct: int = 0
    gold_verb: int = 0
    gold_noun: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.n


@dataclass
class EvalReport:
    method: str
    n: int = 0
    correct: int = 0
    n_excl_of: int = 0
    correct_excl_of: int = 0
    per_prep: dict[str, PrepStats] = field(default_factory=dict)

    @property
    def accuracy(self) -> float | None:
        if self.n == 0:
            return None
        return self.correct / self.n

    @property
    def accuracy_excl_of(self) -> float | None:
        if self.n_excl_of == 0:
            return None
        return self.correct_excl_of / self.n_excl_of


def evaluate(predictions, gold, method: str = "model") -> EvalReport:
    """Score aligned predictions against labeled instances.

    ``predictions`` is a sequence of "V"/"N" decisions parallel to ``gold``;
    a length mismatch, a missing gold label, or an invalid decision raises.
    Prepositions are folded with ``norm_token``, as the back-off baseline
    folds them, so "Of" counts as "of".
    """
    predictions = list(predictions)
    gold = list(gold)
    if len(predictions) != len(gold):
        raise ValueError(f"{len(predictions)} predictions for {len(gold)} gold instances")
    report = EvalReport(method=method, n=len(gold))
    for pred, inst in zip(predictions, gold):
        if inst.label not in (VERB, NOUN):
            raise ValueError("gold instances must be labeled")
        if pred not in (VERB, NOUN):
            raise ValueError(f"invalid prediction {pred!r}")
        prep = norm_token(inst.p)
        stats = report.per_prep.setdefault(prep, PrepStats())
        stats.n += 1
        if inst.label == VERB:
            stats.gold_verb += 1
        else:
            stats.gold_noun += 1
        hit = pred == inst.label
        if hit:
            report.correct += 1
            stats.correct += 1
        if prep != "of":
            report.n_excl_of += 1
            if hit:
                report.correct_excl_of += 1
    return report


def compare(predictors: dict, gold) -> list[EvalReport]:
    """Run several named predictors over the same instances.

    Each predictor is a callable mapping the list of instances to the list
    of "V"/"N" decisions, one per instance. One report per method, in dict
    order.
    """
    gold = list(gold)
    return [evaluate(predict(gold), gold, method=name)
            for name, predict in predictors.items()]


def _fmt(acc) -> str:
    return "-" if acc is None else f"{acc:.4f}"


def format_reports(reports) -> str:
    """Aligned-column text table, one block per method."""
    lines = []
    for report in reports:
        lines.append(f"== {report.method} ==")
        lines.append(f"{'scope':<12}{'n':>6}{'correct':>9}{'accuracy':>10}")
        lines.append(f"{'overall':<12}{report.n:>6}{report.correct:>9}{_fmt(report.accuracy):>10}")
        lines.append(f"{'excl_of':<12}{report.n_excl_of:>6}{report.correct_excl_of:>9}"
                     f"{_fmt(report.accuracy_excl_of):>10}")
        lines.append(f"{'prep':<12}{'n':>6}{'correct':>9}{'accuracy':>10}{'gold_V':>8}{'gold_N':>8}")
        for prep in sorted(report.per_prep):
            s = report.per_prep[prep]
            lines.append(f"{prep:<12}{s.n:>6}{s.correct:>9}{_fmt(s.accuracy):>10}"
                         f"{s.gold_verb:>8}{s.gold_noun:>8}")
        lines.append("")
    return "\n".join(lines)


def write_reports_tsv(reports, path) -> None:
    """Machine-readable report: method, scope, n, correct, accuracy,
    gold verb/noun counts (per-preposition rows only)."""
    lines = ["#method\tscope\tn\tcorrect\taccuracy\tgold_verb\tgold_noun"]
    for r in reports:
        lines.append(f"{r.method}\toverall\t{r.n}\t{r.correct}\t{_fmt(r.accuracy)}\t-\t-")
        lines.append(f"{r.method}\texcl_of\t{r.n_excl_of}\t{r.correct_excl_of}"
                     f"\t{_fmt(r.accuracy_excl_of)}\t-\t-")
        for prep in sorted(r.per_prep):
            s = r.per_prep[prep]
            lines.append(f"{r.method}\tprep:{prep}\t{s.n}\t{s.correct}\t{_fmt(s.accuracy)}"
                         f"\t{s.gold_verb}\t{s.gold_noun}")
    write_lines(path, lines)


def write_prep_chart(reports, path) -> None:
    """Plottable per-preposition accuracy: method, preposition, accuracy."""
    lines = ["#method\tpreposition\taccuracy"]
    for r in reports:
        for prep in sorted(r.per_prep):
            lines.append(f"{r.method}\t{prep}\t{_fmt(r.per_prep[prep].accuracy)}")
    write_lines(path, lines)
