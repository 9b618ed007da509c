"""Back-off frequency baseline for attachment decisions.

Fitting tallies attachment-conditioned counts of the full quad
(v, n1, p, n2), the three triples containing the preposition, the three
pairs containing it, and the preposition alone. Prediction estimates the
verb-attachment probability at the deepest level with a nonzero pooled
count, backing off quad -> triples -> pairs -> preposition; "of" quads are
attached to the noun unconditionally, and a quad unseen at every level
falls back to noun attachment.
"""

from __future__ import annotations

from operator import attrgetter

from .features import NOUN, VERB, PPInstance

_LEVELS = (
    (("v", "n1", "p", "n2"),),
    (("v", "n1", "p"), ("v", "p", "n2"), ("n1", "p", "n2")),
    (("v", "p"), ("n1", "p"), ("p", "n2")),
    (("p",),),
)
#: Each pattern's key getter. Keys are tuples, and a one-slot attrgetter
#: returns a bare word, so ("p",) has its own.
_KEYS = {pattern: attrgetter(*pattern) for level in _LEVELS for pattern in level}
_KEYS["p",] = lambda inst: (inst.p,)


class BackoffCounts:
    """Attachment-conditioned frequency tables, immutable after fitting."""

    def __init__(self):
        self._tables = {pattern: {} for level in _LEVELS for pattern in level}

    def _add(self, inst: PPInstance):
        slot = 0 if inst.label == VERB else 1
        for level in _LEVELS:
            for pattern in level:
                cell = self._tables[pattern].setdefault(_KEYS[pattern](inst), [0, 0])
                cell[slot] += 1

    def level_counts(self, inst: PPInstance):
        """Pooled (verb, noun) counts per back-off level, deepest first."""
        pooled = []
        for level in _LEVELS:
            cv = cn = 0
            for pattern in level:
                cell = self._tables[pattern].get(_KEYS[pattern](inst))
                if cell:
                    cv += cell[0]
                    cn += cell[1]
            pooled.append((cv, cn))
        return pooled

    def pattern_counts(self, pattern):
        """The raw table for one slot pattern, e.g. ``("v", "p")``."""
        return {k: tuple(v) for k, v in self._tables[pattern].items()}


def fit_counts(data) -> BackoffCounts:
    """Tally labeled instances into back-off tables."""
    data = list(data)
    if not data:
        raise ValueError("fitting requires at least one labeled instance")
    counts = BackoffCounts()
    for inst in data:
        if inst.label not in (VERB, NOUN):
            raise ValueError("fit_counts requires labeled instances")
        counts._add(inst)
    return counts


def predict(counts: BackoffCounts, inst: PPInstance) -> tuple[str, float]:
    """Attachment decision plus estimated verb probability.

    "of" always attaches to the noun. Otherwise the estimate comes from the
    deepest level with any count, ties (0.5) going to the verb; when even
    the preposition is unseen the decision defaults to noun.
    """
    if inst.p == "of":
        return NOUN, 0.0
    for cv, cn in counts.level_counts(inst):
        total = cv + cn
        if total > 0:
            p_verb = cv / total
            return (VERB if p_verb >= 0.5 else NOUN), p_verb
    return NOUN, 0.0
