"""Boolean feature extraction for prepositional-phrase attachment instances.

An instance is the classic 4-word ambiguity pattern (verb, first noun,
preposition, second noun), optionally preceded by a discourse noun and
optionally carrying a gold attachment label. Extraction turns one instance
plus a knowledge base into a set of interned feature-name strings; every
feature has value 1 when present. Fifteen feature families exist:

* F1   the reversed triple (n2, v, n1) is a known corpus triple
* F2   one feature per verb linking (n1, n2) in the triple store
* F3   one feature per category of n1
* F4   one feature per category of n2
* F5   one feature per role n2 can fill for v
* F6   one feature per sense verb of p that links (n1, n2) as a triple
* F7   one feature per category of the discourse noun n0
* F8-F15  the eight lexical subsequences of the tuple that contain p

Feature names are canonical strings such as ``"F11:(butterfly,with,net)"``
or ``"F4:isA(net,device)"``; :func:`parse_feature_name` recovers the family
and constituent strings. Constituents are comma-joined, so :class:`PPInstance`
rejects words that contain a comma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .kb import KnowledgeBase
from .tsv import FormatError, at_line, iter_rows, norm_token

VERB = "V"
NOUN = "N"

FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7",
            "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15")

#: F2 and F6 are excluded by default: permissive noun-noun verb links and
#: noisy preposition-sense matches hurt more than they help.
DEFAULT_FAMILIES = frozenset(f for f in FAMILIES if f not in ("F2", "F6"))

_FUNCTOR = {"F3": "isA", "F4": "isA", "F7": "isA", "F5": "hasRole", "F6": "def"}

_LEXICAL_SLOTS = {
    "F8": ("v", "n1", "p", "n2"),
    "F9": ("v", "n1", "p"),
    "F10": ("v", "p", "n2"),
    "F11": ("n1", "p", "n2"),
    "F12": ("v", "p"),
    "F13": ("n1", "p"),
    "F14": ("p", "n2"),
    "F15": ("p",),
}


def check_word(token: str) -> str:
    """A folded word of a PP tuple, unless it is empty or holds a comma,
    which would make feature names collide."""
    if not token:
        raise ValueError("empty token")
    if "," in token:
        raise ValueError("token contains a comma")
    return token


@dataclass(frozen=True)
class PPInstance:
    """One attachment problem: does (p, n2) modify the verb or the noun?

    The words, and ``n0`` when given, are folded with ``norm_token`` when
    the instance is built and checked with :func:`check_word`, so every
    consumer sees them in their canonical form.
    """

    v: str
    n1: str
    p: str
    n2: str
    n0: str | None = None
    label: str | None = None

    def __post_init__(self):
        for slot in ("v", "n1", "p", "n2") + (() if self.n0 is None else ("n0",)):
            object.__setattr__(self, slot, check_word(norm_token(getattr(self, slot))))
        if self.label is not None and self.label not in (VERB, NOUN):
            raise ValueError(f"label must be V or N, got {self.label!r}")


@dataclass(frozen=True)
class FeatureConfig:
    enabled_families: frozenset[str] = DEFAULT_FAMILIES
    max_prep_senses: int = 5

    def __post_init__(self):
        if not self.enabled_families:
            raise ValueError("no feature families enabled")
        unknown = set(self.enabled_families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown feature families: {sorted(unknown)}")
        if self.max_prep_senses < 0:
            raise ValueError("max_prep_senses must be >= 0")


def parse_families(text: str) -> frozenset[str]:
    """The families ``text`` names: ``all``, ``default`` or a comma list.
    The names are checked by :class:`FeatureConfig`, not here."""
    if text == "all":
        return frozenset(FAMILIES)
    if text == "default":
        return DEFAULT_FAMILIES
    return frozenset(f.strip() for f in text.split(",") if f.strip())


def format_families(families) -> str:
    """``families`` as the comma list :func:`parse_families` reads back."""
    return ",".join(f for f in FAMILIES if f in families)


def feature_name(family: str, parts) -> str:
    return f"{family}:{_FUNCTOR.get(family, '')}({','.join(parts)})"


def parse_feature_name(name: str):
    """Invert :func:`feature_name`; returns ``(family, parts)``."""
    family, sep, body = name.partition(":")
    if not sep or family not in FAMILIES:
        raise ValueError(f"not a feature name: {name!r}")
    functor = _FUNCTOR.get(family, "")
    if not body.startswith(functor + "(") or not body.endswith(")"):
        raise ValueError(f"not a feature name: {name!r}")
    inner = body[len(functor) + 1:-1]
    return family, tuple(inner.split(","))


def extract_features(inst: PPInstance, kb: KnowledgeBase,
                     cfg: FeatureConfig | None = None) -> frozenset[str]:
    """Extract the enabled feature families for one instance.

    Unknown words simply contribute no knowledge features; the lexical
    families F8-F15 depend only on the four tuple words. When the instance
    has no discourse noun, F7 is skipped silently.
    """
    cfg = cfg or FeatureConfig()
    fam = cfg.enabled_families
    v, n1, p, n2, n0 = inst.v, inst.n1, inst.p, inst.n2, inst.n0

    feats = set()
    if "F1" in fam and kb.svo_exists(n2, v, n1):
        feats.add(feature_name("F1", (n2, v, n1)))
    if "F2" in fam:
        for vi in kb.svo_any_verb(n1, n2):
            feats.add(feature_name("F2", (n1, vi, n2)))
    if "F3" in fam:
        for t in kb.types_of(n1):
            feats.add(feature_name("F3", (n1, t)))
    if "F4" in fam:
        for t in kb.types_of(n2):
            feats.add(feature_name("F4", (n2, t)))
    if "F5" in fam:
        for role in kb.roles_for(v, n2):
            feats.add(feature_name("F5", (n2, role)))
    if "F6" in fam:
        for sense in kb.prep_senses(p)[: cfg.max_prep_senses]:
            if kb.svo_exists(n1, sense, n2):
                feats.add(feature_name("F6", (p, sense)))
    if "F7" in fam and n0:
        for t in kb.types_of(n0):
            feats.add(feature_name("F7", (n0, t)))
    for family, slots in _LEXICAL_SLOTS.items():
        if family in fam:
            feats.add(feature_name(family, tuple(getattr(inst, s) for s in slots)))
    return frozenset(feats)


def expand_with_synonyms(data, kb: KnowledgeBase) -> list[PPInstance]:
    """Grow a dataset by copying each instance once per synonym of its verb.

    Originals are kept; each copy differs only in the verb and keeps the
    label. Instances whose verb belongs to no synonym group pass through
    unchanged. Output order is deterministic: every original is followed by
    its copies in sorted verb order.
    """
    out = []
    for inst in data:
        out.append(inst)
        for other in sorted(kb.synonyms_of(inst.v) - {inst.v}):
            out.append(replace(inst, v=other))
    return out


def read_corpus(path) -> list[PPInstance]:
    """Read a quad/tuple corpus file.

    Rows have 4, 5, or 6 tab-separated columns: ``[n0] v n1 p n2 [label]``
    with label ``V`` or ``N``. Four columns are an unlabeled quad and six a
    labeled 5-tuple; a 5-column row is ambiguous and requires an earlier
    ``format=quad`` or ``format=tuple`` line. A row :class:`PPInstance`
    rejects is a :class:`FormatError` at its line.
    """
    mode = None
    out = []
    for lineno, fields in iter_rows(path):
        if len(fields) == 1 and fields[0].startswith("format="):
            mode = fields[0][len("format="):].strip()
            if mode not in ("quad", "tuple"):
                raise FormatError(path, lineno, f"unknown format {mode!r}")
            continue
        if len(fields) == 4:
            n0, label = None, None
            v, n1, p, n2 = fields
        elif len(fields) == 5:
            if mode == "quad":
                n0 = None
                v, n1, p, n2, label = fields
            elif mode == "tuple":
                label = None
                n0, v, n1, p, n2 = fields
            else:
                raise FormatError(path, lineno,
                                  "5-column row needs a format=quad or format=tuple line")
        elif len(fields) == 6:
            n0, v, n1, p, n2, label = fields
        else:
            raise FormatError(path, lineno, f"expected 4-6 columns, got {len(fields)}")
        if label is not None:
            label = label.upper()
        out.append(at_line(path, lineno, PPInstance, v, n1, p, n2, n0, label))
    return out
