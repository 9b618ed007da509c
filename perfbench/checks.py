"""Output checks for each workload, run after every repetition.

A check returns ``(failures, quality)``: ``failures`` lists
``(command_index, message)`` pairs naming the command whose output is
wrong, and ``quality`` is the workload's guard figure (model accuracy on
the held-out set, or the recall of held-out planted knom instances). Floors
come from the planted truth the generator recorded.
"""

from __future__ import annotations

import hashlib
import math
import os


def rows(path):
    """Data rows of a TSV output file (blank and ``#`` lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]


def _report(path):
    """``report.tsv`` as {(method, scope): (n, correct)}."""
    return {(r[0], r[1]): (int(r[2]), int(r[3])) for r in rows(path)}


def _accuracy_floor(bayes, n, collins=None):
    """The planted model should reach its Bayes rate within sampling
    error. A trained model must match the back-off baseline that ``eval``
    scores on the same test set (``collins``), less three standard errors
    of an n-instance test set: a model that lost much of its edge over
    chance, as a per-preposition rule would, falls below it."""
    if collins is not None:
        return collins - 3.0 * math.sqrt(0.25 / n)
    return bayes - 4.0 * math.sqrt(bayes * (1.0 - bayes) / n) - 0.01


def _check_attachment(f, truth, fails, predict_cmd, eval_cmd, trained):
    n_test = truth["n_test"]
    gold = [r[-1] for r in rows(f["gold"]) if len(r) > 1]     # skips format=quad
    pred = rows(f["pred"])
    if len(pred) != n_test:
        fails.append((predict_cmd, f"{len(pred)} predictions for {n_test} inputs"))
    if any(len(r) != 7 or r[5] not in ("V", "N") for r in pred):
        fails.append((predict_cmd, "malformed prediction row"))
    report = _report(f["report_tsv"])
    for method in ("ppad", "collins"):
        if report.get((method, "overall"), (None,))[0] != n_test:
            fails.append((eval_cmd, f"{method} report does not cover {n_test} instances"))
    n, correct = report.get(("ppad", "overall"), (0, 0))
    agree = sum(1 for r, g in zip(pred, gold) if r[5] == g)
    if agree != correct:
        fails.append((eval_cmd, f"eval counts {correct} correct, predict agrees on {agree}"))
    accuracy = correct / n if n else 0.0
    n_b, correct_b = report.get(("collins", "overall"), (0, 0))
    collins = correct_b / n_b if trained and n_b else None
    floor = _accuracy_floor(truth["bayes_accuracy"], n_test, collins)
    if accuracy < floor:
        fails.append((eval_cmd, f"accuracy {accuracy:.4f} below floor {floor:.4f}"))
    return pred, accuracy


def check_ppa_train(wl):
    f, fails = wl.truth["files"], []
    if not any(r[0] == "final" for r in rows(f["log"])):
        fails.append((0, "training log has no final line"))
    if not rows(f["model"]):
        fails.append((0, "model file has no weights"))
    _, accuracy = _check_attachment(f, wl.truth, fails, 1, 2, trained=True)
    return fails, accuracy


def check_ppa_infer(wl):
    f, fails = wl.truth["files"], []
    pred, accuracy = _check_attachment(f, wl.truth, fails, 0, 1, trained=False)
    n_verb = sum(1 for r in pred if r[5] == "V")
    ternary = rows(f["ternary"])
    if len(ternary) != n_verb:
        fails.append((2, f"{len(ternary)} ternary instances for {n_verb} verb attachments"))
    labeled = rows(f["labeled_out"])
    if len(labeled) != n_verb:
        fails.append((3, f"{len(labeled)} role-labeled tuples for {n_verb} verb attachments"))
    learned = {tuple(r[:5]) for r in rows(f["templates"])}
    missing = [t for t in wl.truth["templates"] if t not in learned]
    if missing:
        fails.append((3, f"{len(missing)} planted role templates not learned"))
    return fails, accuracy


def _seq(elements):
    return " ".join(f"{kind}:{value}" for kind, value in elements)


def check_knom(wl):
    f, truth, fails = wl.truth["files"], wl.truth, []
    mined = {r[0] for r in rows(f["mined"])}
    if any(_seq(els) not in mined for _, _, _, els in truth["planted"]):
        fails.append((0, "a planted sequence was not mined"))
    mappings = {tuple(r[:4]) for r in rows(f["mappings"])}
    missing = [p for p in truth["planted"]
               if (p[0], str(p[1]), str(p[2]), _seq(p[3])) not in mappings]
    if missing:
        fails.append((1, f"{len(missing)} planted mappings missing from mappings.tsv"))
    predicted = {tuple(r[:3]) for r in rows(f["pred"])}
    heldout = truth["heldout"]
    recall = sum(1 for h in heldout if h in predicted) / len(heldout)
    if recall < 0.9:
        fails.append((2, f"held-out recall {recall:.4f} below floor 0.9"))
    if any(len(r) != 5 for r in rows(f["baseline"])):
        fails.append((3, "malformed baseline prediction row"))
    return fails, recall


CHECKS = {"ppa-train": check_ppa_train, "ppa-infer": check_ppa_infer, "knom": check_knom}


def run_check(wl):
    """Run the workload's check; a missing or unreadable output fails the
    last command instead of raising."""
    try:
        return CHECKS[wl.name](wl)
    except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return [(len(wl.commands) - 1, f"output check raised {exc!r}")], 0.0


def output_digests(wl):
    """SHA-256 of every output file, keyed by file name."""
    out = {}
    for _, _, outputs in wl.commands:
        for path in outputs:
            try:
                with open(path, "rb") as fh:
                    out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
            except OSError:
                out[os.path.basename(path)] = None
    return out
