"""Promote verb-attached 5-tuples to ternary relation instances.

A 5-tuple (n0, v, n1, p, n2) whose enclosed PP attaches to the verb denotes
a ternary relation over n0, n1, and n2. Two refinements are supported:
mapping known binary relation instances onto (verb, preposition) pairs so
extractions carry a relation name, and typed role templates that label the
third argument (beneficiary, instrument, asset, source, or topic). The model
decides attachment with its own ``feature_config``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .features import VERB, PPInstance, check_word
from .kb import KnowledgeBase
from .model import AttachmentModel, classify_instances
from .tsv import FormatError, at_line, iter_rows, norm_token, write_rows

#: Role labels assignable to the preposition-introduced third argument.
ROLE_LABELS = (
    "np_v_np_pp.asset",
    "np_v_np_pp.beneficiary",
    "np_v_np_pp.instrument",
    "np_v_np_pp.source",
    "np_v_np_pp.topic",
)


@dataclass(frozen=True, init=False, slots=True)
class TernaryInstance:
    """A ternary relation instance; words are folded and checked as in :class:`PPInstance`."""

    n0: str
    v: str
    n1: str
    p: str
    n2: str
    relation: str | None = None
    role_label: str | None = None

    def __init__(self, n0, v, n1, p, n2, relation=None, role_label=None):
        set_ = object.__setattr__
        set_(self, "n0", check_word(norm_token(n0)))
        set_(self, "v", check_word(norm_token(v)))
        set_(self, "n1", check_word(norm_token(n1)))
        set_(self, "p", check_word(norm_token(p)))
        set_(self, "n2", check_word(norm_token(n2)))
        set_(self, "relation", relation)
        set_(self, "role_label", role_label)


@dataclass(frozen=True)
class RelationVerbMap:
    relation: str
    verb: str
    preposition: str
    support: int


@dataclass(frozen=True)
class RoleTemplate:
    label: str
    verb: str
    arg1_type: str
    preposition: str
    arg2_type: str
    support: int


def _require_n0(inst: PPInstance) -> str:
    if inst.n0 is None:
        raise ValueError("ternary extraction requires 5-tuples with a leading noun")
    return inst.n0


def _verb_attached(tuples, model: AttachmentModel, kb: KnowledgeBase) -> list[PPInstance]:
    """The 5-tuples the model attaches to the verb, in input order."""
    tuples = list(tuples)
    for inst in tuples:
        _require_n0(inst)
    decisions = classify_instances(model, kb, tuples)
    return [inst for inst, (label, _) in zip(tuples, decisions) if label == VERB]


def extract_ternary(tuples, model: AttachmentModel, kb: KnowledgeBase) -> list[TernaryInstance]:
    """One ternary instance per tuple the model attaches to the verb, in input order."""
    return [TernaryInstance(inst.n0, inst.v, inst.n1, inst.p, inst.n2)
            for inst in _verb_attached(tuples, model, kb)]


def map_relations_to_verbs(kb: KnowledgeBase, tuples,
                           min_support: int = 10) -> list[RelationVerbMap]:
    """Discover (relation, verb, preposition) pairings by instance overlap.

    For each combination, support is the number of tuples whose (n0, n1)
    pair is a known instance of the relation; combinations below
    ``min_support`` are dropped.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    support = Counter()
    for inst in tuples:
        n0 = _require_n0(inst)
        for rel in kb.relations_between(n0, inst.n1):
            support[(rel, inst.v, inst.p)] += 1
    return [RelationVerbMap(rel, v, p, c)
            for (rel, v, p), c in sorted(support.items())
            if c >= min_support]


def annotate_relations(instances, maps) -> list[TernaryInstance]:
    """Attach relation names to extracted instances via (verb, preposition)
    maps; ambiguous pairs resolve to the highest-support map, then to the
    lexicographically first relation."""
    best = {}
    for m in sorted(maps, key=lambda m: (-m.support, m.relation)):
        best.setdefault((m.verb, m.preposition), m)
    out = []
    for inst in instances:
        m = best.get((inst.v, inst.p))
        out.append(replace(inst, relation=m.relation) if m else inst)
    return out


def learn_role_templates(tuples, kb: KnowledgeBase,
                         min_support: int = 10) -> list[RoleTemplate]:
    """Learn typed role templates from role-labeled, verb-attached tuples.

    ``tuples`` holds ``(instance, role_label)`` pairs. Every combination of
    the label, the verb, a category of n1, the preposition, and a category
    of n2 is counted; combinations reaching ``min_support`` become
    templates. Tuples whose nouns carry no categories contribute nothing.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    counts = Counter()
    for inst, label in tuples:
        if label not in ROLE_LABELS:
            raise ValueError(f"unknown role label {label!r}")
        for t1 in kb.types_of(inst.n1):
            for t2 in kb.types_of(inst.n2):
                counts[(label, inst.v, t1, inst.p, t2)] += 1
    return [RoleTemplate(*key, support=c)
            for key, c in sorted(counts.items())
            if c >= min_support]


def apply_role_templates(templates, tuples, model: AttachmentModel,
                         kb: KnowledgeBase) -> list[TernaryInstance]:
    """Label verb-attached tuples with matching role templates.

    A template matches when its verb and preposition equal the tuple's and
    its argument types are among the categories of n1 and n2. Ties go to
    the highest support, then the lexicographically first label. Tuples
    matching no template are still emitted, unlabeled; tuples attached to the
    noun, as :func:`extract_ternary` scores them, are dropped.
    """
    by_vp = {}
    for t in sorted(templates, key=lambda t: (-t.support, t.label)):
        by_vp.setdefault((t.verb, t.preposition), []).append(t)
    out = []
    for inst in _verb_attached(tuples, model, kb):
        t1s = kb.types_of(inst.n1)
        t2s = kb.types_of(inst.n2)
        role = next((t.label for t in by_vp.get((inst.v, inst.p), ())
                     if t.arg1_type in t1s and t.arg2_type in t2s), None)
        out.append(TernaryInstance(inst.n0, inst.v, inst.n1, inst.p, inst.n2,
                                   role_label=role))
    return out


# -- files ---------------------------------------------------------------


def read_tuples(path) -> list[PPInstance]:
    """Read a 5-column tuple file: n0, v, n1, p, n2."""
    return [at_line(path, lineno, PPInstance, v, n1, p, n2, n0)
            for lineno, (n0, v, n1, p, n2) in iter_rows(path, ("n0", "v", "n1", "p", "n2"))]


def read_role_tuples(path) -> list[tuple[PPInstance, str]]:
    """Read a role-labeled tuple file: n0, v, n1, p, n2, role label."""
    out = []
    for lineno, (n0, v, n1, p, n2, label) in iter_rows(
            path, ("n0", "v", "n1", "p", "n2", "role label")):
        inst = at_line(path, lineno, PPInstance, v, n1, p, n2, n0)
        if label not in ROLE_LABELS:
            raise FormatError(path, lineno, f"unknown role label {label!r}")
        out.append((inst, label))
    return out


def write_ternary(instances, path) -> None:
    """Write extractions as TSV: n0, v, n1, p, n2, relation or "-",
    role label or "-"."""
    write_rows(path, ([t.n0, t.v, t.n1, t.p, t.n2, t.relation or "-", t.role_label or "-"]
                      for t in instances))


def write_templates(templates, path) -> None:
    write_rows(path, ([t.label, t.verb, t.arg1_type, t.preposition, t.arg2_type, str(t.support)]
                      for t in templates))

