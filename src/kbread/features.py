"""Boolean feature extraction for prepositional-phrase attachment instances.

An instance is the classic 4-word ambiguity pattern (verb, first noun,
preposition, second noun), optionally preceded by a discourse noun and
optionally carrying a gold attachment label. :func:`extractor` turns
instances plus a knowledge base into lists of feature names without
repeats, and :func:`extract_features` one instance into a set; every
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
from functools import cache

from .kb import DEFAULT_MIN_SVO_COUNT, KnowledgeBase
from .tsv import FormatError, at_line, iter_rows, norm_token

VERB = "V"
NOUN = "N"

FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7",
            "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15")

#: F2 and F6 are excluded by default: permissive noun-noun verb links and
#: noisy preposition-sense matches hurt more than they help.
DEFAULT_FAMILIES = frozenset(f for f in FAMILIES if f not in ("F2", "F6"))

_FUNCTOR = {"F3": "isA", "F4": "isA", "F7": "isA", "F5": "hasRole", "F6": "def"}

def check_word(token: str) -> str:
    """A folded word of a PP tuple, unless it is empty or holds a comma,
    which would make feature names collide."""
    if not token:
        raise ValueError("empty token")
    if "," in token:
        raise ValueError("token contains a comma")
    return token


@dataclass(frozen=True, init=False, slots=True)
class PPInstance:
    """One attachment problem: does (p, n2) modify the verb or the noun?

    The words, and ``n0`` when given, are folded with ``norm_token`` when
    the instance is built and checked with :func:`check_word`, so every
    consumer sees them in their canonical form. The label is checked after
    the words.
    """

    v: str
    n1: str
    p: str
    n2: str
    n0: str | None = None
    label: str | None = None

    def __init__(self, v, n1, p, n2, n0=None, label=None):
        # Each field is set once. Slots keep the fields in place: without
        # them, enough rejected builds give every later instance a dict.
        set_ = object.__setattr__
        set_(self, "v", check_word(norm_token(v)))
        set_(self, "n1", check_word(norm_token(n1)))
        set_(self, "p", check_word(norm_token(p)))
        set_(self, "n2", check_word(norm_token(n2)))
        set_(self, "n0", None if n0 is None else check_word(norm_token(n0)))
        if label is not None and label not in (VERB, NOUN):
            raise ValueError(f"label must be V or N, got {label!r}")
        set_(self, "label", label)


@dataclass(frozen=True)
class FeatureConfig:
    enabled_families: frozenset[str] = DEFAULT_FAMILIES
    max_prep_senses: int = 5
    min_svo_count: int = DEFAULT_MIN_SVO_COUNT

    def __post_init__(self):
        if not self.enabled_families:
            raise ValueError("no feature families enabled")
        unknown = set(self.enabled_families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown feature families: {sorted(unknown)}")
        if self.max_prep_senses < 0:
            raise ValueError("max_prep_senses must be >= 0")
        if self.min_svo_count < 1:
            raise ValueError("min_svo_count must be >= 1")


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


def knowledge_files(families) -> set[str]:
    """The knowledge files (keys of ``kb.KB_FILENAMES``) that the lookups
    of ``families`` read; F8-F15 read none."""
    reads = {"F1": ("svo",), "F2": ("svo",), "F3": ("isa",), "F4": ("isa",), "F7": ("isa",),
             "F5": ("roles", "synsets", "isa"), "F6": ("svo", "prepdefs")}
    return {key for family in families for key in reads.get(family, ())}


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


def extractor(kb: KnowledgeBase, cfg: FeatureConfig | None = None):
    """A function from a :class:`PPInstance` to its enabled features, as a
    list of names without repeats. It reads ``cfg`` once, builds each noun's
    F3, F4 and F7 names once and keeps them while it lives, and looks up the
    verbs linking (n1, n2) once for F2 and F6 (senses and verbs are both
    folded at load, so a sense among them is one ``svo_exists`` accepts).
    Unknown words give no knowledge features; F7 needs a discourse noun."""
    cfg = cfg or FeatureConfig()
    fam, min_count, max_senses = cfg.enabled_families, cfg.min_svo_count, cfg.max_prep_senses
    f1, f2, f3, f4, f5, f6, f7 = (f in fam for f in FAMILIES[:7])
    lexical = [i for i, f in enumerate(FAMILIES[7:]) if f in fam]

    @cache                          # (family, noun) -> names, for this extractor only
    def categories(family, noun):
        return [f"{family}:isA({noun},{t})" for t in kb.types_of(noun)]

    def extract(inst: PPInstance) -> list[str]:
        v, n1, p, n2, n0 = inst.v, inst.n1, inst.p, inst.n2, inst.n0
        # Each name is spelled here as feature_name spells it; this is the
        # per-instance hot path, and a property test pins the two equal.
        feats = []
        if f1 and kb.svo_exists(n2, v, n1, min_count):
            feats.append(f"F1:({n2},{v},{n1})")
        linking = kb.svo_any_verb(n1, n2, min_count) if f2 or f6 else ()
        if f2:
            feats += [f"F2:({n1},{vi},{n2})" for vi in linking]
        if f6 and linking:
            feats += [f"F6:def({p},{sense})" for sense in kb.prep_senses(p)[:max_senses]
                      if sense in linking]
        if f3:
            feats += categories("F3", n1)
        if f4:
            feats += categories("F4", n2)
        if f5:
            feats += [f"F5:hasRole({n2},{role})" for role in kb.roles_for(v, n2)]
        if f7 and n0:
            feats += categories("F7", n0)
        names = (f"F8:({v},{n1},{p},{n2})", f"F9:({v},{n1},{p})", f"F10:({v},{p},{n2})",
                 f"F11:({n1},{p},{n2})", f"F12:({v},{p})", f"F13:({n1},{p})",
                 f"F14:({p},{n2})", f"F15:({p})")
        feats += [names[i] for i in lexical]
        return feats

    return extract


def extract_features(inst: PPInstance, kb: KnowledgeBase,
                     cfg: FeatureConfig | None = None) -> frozenset[str]:
    """The enabled features of one instance, as a set; see :func:`extractor`."""
    return frozenset(extractor(kb, cfg)(inst))


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


def read_corpus(path, labeled=False) -> list[PPInstance]:
    """Read a quad/tuple corpus file.

    Rows have 4, 5, or 6 tab-separated columns: ``[n0] v n1 p n2 [label]``
    with label ``V`` or ``N``. Four columns are an unlabeled quad and six a
    labeled 5-tuple; a 5-column row is ambiguous and requires an earlier
    ``format=quad`` or ``format=tuple`` line. A row :class:`PPInstance`
    rejects, or with ``labeled`` a row without a label, is a
    :class:`FormatError` at its line.
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
        elif labeled:
            raise FormatError(path, lineno, "corpus must be fully labeled")
        out.append(at_line(path, lineno, PPInstance, v, n1, p, n2, n0, label))
    return out
