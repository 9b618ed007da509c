"""Synthetic data generators and independent oracles shared by the tests."""

import math
import os
import random
from dataclasses import dataclass

from kbread.features import NOUN, VERB, FeatureConfig, PPInstance, check_word, feature_name
from kbread.kb import KnowledgeBase
from kbread.knom import (ANY, LEX, TYPE, CompoundNoun, MinedSequence, Prediction,
                         TypeSequence, TypeSequenceMapping, _check_unbroken, _matches,
                         baseline_mappings, learn_mappings, mine_sequences,
                         predict_instances, type_compound)
from kbread.tsv import FormatError, norm_token

# -- the token-holding value types as dataclass __init__ plus __post_init__ --
#
# Each builds its instance the way a plain frozen dataclass does: every
# field is set as given, then ``__post_init__`` folds and checks. The
# shipped classes set each field once; these are their oracles.


@dataclass(frozen=True)
class PostInitPPInstance:
    """Oracle of :class:`kbread.features.PPInstance`."""

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
class PostInitTernaryInstance:
    """Oracle of :class:`kbread.ternary.TernaryInstance`."""

    n0: str
    v: str
    n1: str
    p: str
    n2: str
    relation: str | None = None
    role_label: str | None = None

    def __post_init__(self):
        for slot in ("n0", "v", "n1", "p", "n2"):
            object.__setattr__(self, slot, check_word(norm_token(getattr(self, slot))))


@dataclass(frozen=True)
class PostInitCompoundNoun:
    """Oracle of :class:`kbread.knom.CompoundNoun`."""

    tokens: tuple[str, ...]
    source: str

    def __post_init__(self):
        tokens = tuple(norm_token(t) for t in self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) < 2:
            raise ValueError("a compound noun needs at least two tokens")
        if not self.source or not all(tokens):
            raise ValueError("empty field")
        for token in tokens:
            _check_unbroken("token", token)


# -- two-cluster attachment data ------------------------------------------

_POS = tuple(f"a{i}" for i in range(6))
_NEG = tuple(f"b{i}" for i in range(6))


def cluster_instance(rng, cluster):
    """Sparse boolean draw from one of two feature clusters: two features of
    the instance's own cluster plus occasional cross-cluster noise."""
    own, other = (_POS, _NEG) if cluster == VERB else (_NEG, _POS)
    fv = set(rng.sample(own, 2))
    for f in other:
        if rng.random() < 0.05:
            fv.add(f)
    return frozenset(fv)


def two_cluster_data(seed, n_labeled=4, n_unlabeled=200, n_test=100):
    """Labeled pairs, unlabeled feature sets, and a held-out labeled set,
    balanced across the two clusters."""
    rng = random.Random(seed)
    labels = [VERB, NOUN]

    def draw(n, with_labels):
        out = []
        for i in range(n):
            cluster = labels[i % 2]
            fv = cluster_instance(rng, cluster)
            out.append((fv, cluster) if with_labels else fv)
        return out

    return draw(n_labeled, True), draw(n_unlabeled, False), draw(n_test, True)


def sorted_sum_classify(weights, fv):
    """Reference scorer: one instance at a time, weights summed in sorted
    feature order with unseen names adding zero, then the logistic clamped
    into (0, 1) and verb attachment winning at p >= 0.5."""
    z = 0.0
    for name in sorted(fv):
        z += weights.get(name, 0.0)
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        p = e / (1.0 + e)
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return (VERB if p >= 0.5 else NOUN), p


# -- random corpora for the back-off baseline --------------------------------

_VERBS = ("eat", "see", "buy")
_NOUNS = ("cake", "fork", "table", "man")
_PREPS = ("of", "with", "on", "in")


def random_quad(rng, labeled):
    return PPInstance(
        v=rng.choice(_VERBS),
        n1=rng.choice(_NOUNS),
        p=rng.choice(_PREPS),
        n2=rng.choice(_NOUNS),
        label=rng.choice((VERB, NOUN)) if labeled else None,
    )


def random_attachment_corpus(rng, max_quads=50, n_test=20):
    train = [random_quad(rng, True) for _ in range(rng.randint(1, max_quads))]
    test = [random_quad(rng, False) for _ in range(n_test)]
    return train, test


def backoff_oracle(train, inst):
    """Brute-force re-derivation of the back-off rule by scanning the raw
    training data at every level; no precomputed tables."""
    if inst.p == "of":
        return NOUN
    levels = (
        (("v", "n1", "p", "n2"),),
        (("v", "n1", "p"), ("v", "p", "n2"), ("n1", "p", "n2")),
        (("v", "p"), ("n1", "p"), ("p", "n2")),
        (("p",),),
    )
    for level in levels:
        verb = noun = 0
        for pattern in level:
            for t in train:
                if all(getattr(t, s) == getattr(inst, s) for s in pattern):
                    if t.label == VERB:
                        verb += 1
                    else:
                        noun += 1
        if verb + noun:
            return VERB if verb / (verb + noun) >= 0.5 else NOUN
    return NOUN


# -- reference feature extraction ---------------------------------------------

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


def reference_features(inst, kb, cfg=None):
    """``extract_features`` as a plain loop: every name is built by
    ``feature_name`` and each lexical family reads its slots by name."""
    cfg = cfg or FeatureConfig()
    fam, min_count = cfg.enabled_families, cfg.min_svo_count
    v, n1, p, n2, n0 = inst.v, inst.n1, inst.p, inst.n2, inst.n0
    feats = set()
    if "F1" in fam and kb.svo_exists(n2, v, n1, min_count):
        feats.add(feature_name("F1", (n2, v, n1)))
    if "F2" in fam:
        for vi in kb.svo_any_verb(n1, n2, min_count):
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
            if kb.svo_exists(n1, sense, n2, min_count):
                feats.add(feature_name("F6", (p, sense)))
    if "F7" in fam and n0:
        for t in kb.types_of(n0):
            feats.add(feature_name("F7", (n0, t)))
    for family, slots in _LEXICAL_SLOTS.items():
        if family in fam:
            feats.add(feature_name(family, tuple(getattr(inst, s) for s in slots)))
    return frozenset(feats)


# -- reference input readers ---------------------------------------------------


def read_outcome(rows):
    """The rows a reader yields, or the message of the error it raises."""
    try:
        return list(rows)
    except FormatError as exc:
        return str(exc)


def line_iter_lines(path):
    """``tsv.iter_lines`` as it read a line at a time: Python's text mode
    decodes the file and finds its line ends. Unlike ``tsv._iter_blocks`` it
    reports a bad byte before any fault on the lines of the same 8 KiB
    decode chunk above it: the two agree on a file with at most one fault."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace():
                    if "\ufeff" in line and line.lstrip().startswith("\ufeff"):
                        raise FormatError(path, lineno, "a byte-order mark starts the line")
                    yield lineno, line.rstrip("\r\n")
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise FormatError(path, lineno, "not valid UTF-8") from None
        raise


def line_data_lines(path, columns=None):
    """The data lines of :func:`line_iter_lines`, unsplit: those that
    ``tsv.iter_rows`` and ``tsv.iter_folded_rows`` split into fields. Given
    the names of its ``columns``, a line of another width is an error."""
    for lineno, line in line_iter_lines(path):
        if "#" in line and line.lstrip().startswith("#"):
            continue
        width = line.count("\t") + 1
        if columns is not None and width != len(columns):
            raise FormatError(path, lineno, f"expected {len(columns)} columns "
                              f"({', '.join(columns)}), got {width}")
        yield lineno, line


def line_iter_rows(path, columns=None):
    """``tsv.iter_rows`` as a generator over :func:`line_data_lines`."""
    for lineno, line in line_data_lines(path, columns):
        yield lineno, [f.strip() for f in line.split("\t")]


def line_kb_rows(path, columns):
    """``tsv.iter_folded_rows`` as it folded a line at a time, over
    :func:`line_data_lines`."""
    for lineno, line in line_data_lines(path, columns):
        line = line.casefold()
        fields = line.split("\t")
        if " " in line or not line.replace("\t", "").isprintable():
            fields = [" ".join(f.split()) for f in fields]
        if not all(fields):
            raise FormatError(path, lineno, "empty field")
        yield lineno, fields


def reference_kb_rows(path, columns):
    """``tsv.iter_folded_rows`` as a plain chain: :func:`line_iter_rows`
    strips the fields, then ``norm_token`` folds each one on its own."""
    for lineno, fields in line_iter_rows(path, columns):
        fields = [norm_token(f) for f in fields]
        if not all(fields):
            raise FormatError(path, lineno, "empty field")
        yield lineno, fields


# -- random knowledge bases and brute-force KB query oracles ---------------

KB_VERBS = tuple(f"v{i}" for i in range(8))
KB_NOUNS = tuple(f"n{i}" for i in range(5))
KB_CATEGORIES = tuple(f"c{i}" for i in range(4))


def random_kb_inputs(rng):
    """Constructor rows for a ``KnowledgeBase``: triples with counts 1-6
    over few nouns and verbs (so pairs share verbs, and a triple may repeat),
    0-3 categories per noun, role entries of 1-3 verbs whose filler is a noun
    or a category, synonym groups drawn so that they often overlap and merge
    (some verbs keep none). The store keeps no count threshold; its queries
    take one."""
    svo = [(rng.choice(KB_NOUNS), rng.choice(KB_VERBS), rng.choice(KB_NOUNS), rng.randint(1, 6))
           for _ in range(rng.randint(0, 30))]
    isa = [(n, c) for n in KB_NOUNS for c in rng.sample(KB_CATEGORIES, rng.randint(0, 3))]
    roles = [(rng.sample(KB_VERBS, rng.randint(1, 3)), rng.choice(KB_NOUNS + KB_CATEGORIES),
              rng.choice(("instrument", "topic", "source")))
             for _ in range(rng.randint(0, 12))]
    synsets = [rng.sample(KB_VERBS[:6], rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    return {"svo": svo, "isa": isa, "roles": roles, "synsets": synsets}


def _synonym_closure(synsets, verb):
    """The verb and every verb a chain of overlapping groups links it to."""
    found = {verb}
    while True:
        grown = found.union(*(g for g in synsets if found & set(g)))
        if grown == found:
            return found
        found = grown


def scan_roles_for(inputs, verb, n2):
    """Reference role lookup: every row is scanned for one whose verbs meet
    the verb's synonym closure and whose filler is the noun or one of its
    categories."""
    verb, n2 = norm_token(verb), norm_token(n2)
    candidates = _synonym_closure(inputs["synsets"], verb)
    n2_types = {c for n, c in inputs["isa"] if n == n2}
    return {role for verbs, filler, role in inputs["roles"]
            if candidates & set(verbs) and (filler == n2 or filler in n2_types)}


def _svo_counts(inputs, subject, obj):
    """Reference count of each verb linking the pair: the counts of repeated
    rows are summed."""
    s, o = norm_token(subject), norm_token(obj)
    counts = {}
    for ts, v, to, c in inputs["svo"]:
        if (ts, to) == (s, o):
            counts[v] = counts.get(v, 0) + c
    return counts


def lookup_svo_exists(inputs, subject, verb, obj, min_count):
    """Reference triple test: the summed ``(s, v, o)`` count against the threshold."""
    return _svo_counts(inputs, subject, obj).get(norm_token(verb), 0) >= min_count


def scan_svo_any_verb(inputs, subject, obj, min_count):
    """Reference pair lookup: every triple row is scanned."""
    return {v for v, c in _svo_counts(inputs, subject, obj).items() if c >= min_count}


# -- random compound-noun worlds and brute-force knom oracles --------------------

KNOM_WORDS = tuple(f"w{i}" for i in range(6))
_KNOM_CATS = tuple(f"c{i}" for i in range(6))
_KNOM_RELATIONS = ("r0", "r1", "r2")
_KNOM_SOURCES = tuple(f"s{i}" for i in range(8))   # few, so ids repeat


def random_knom_world(rng):
    """A knowledge base giving each word 0-6 categories (a word with none
    stays literal) plus random relation instances, and up to 24 compounds
    of 2-5 tokens whose source ids repeat across different tokens. Few
    categories and short compounds are the likelier draws, so the product
    the oracles build stays small and some sequences reach support 4 or 5.
    Returns the knowledge base, the compounds and the relation rows, which
    the oracles scan."""
    isa = [(w, c) for w in KNOM_WORDS
           for c in rng.sample(_KNOM_CATS, rng.choice((0, 1, 1, 2, 2, 3, 6)))]
    relations = [(r, rng.choice(KNOM_WORDS), rng.choice(KNOM_WORDS))
                 for r in _KNOM_RELATIONS if rng.random() < 0.8
                 for _ in range(rng.randint(1, 12))]
    kb = KnowledgeBase(isa=isa, relations=relations)
    corpus = [CompoundNoun(tuple(rng.choices(KNOM_WORDS, k=rng.choice((2, 2, 2, 3, 3, 4, 5)))),
                           rng.choice(_KNOM_SOURCES))
              for _ in range(rng.randint(0, 24))]
    return kb, corpus, relations


def random_mapping(rng):
    """A mapping of 2-5 category, literal and wildcard elements; one in
    five is all wildcards."""
    length = rng.randint(2, 5)
    if rng.random() < 0.2:
        elements = [(ANY, "*")] * length
    else:
        elements = [rng.choice(((TYPE, rng.choice(_KNOM_CATS)),
                                (LEX, rng.choice(KNOM_WORDS)), (ANY, "*")))
                    for _ in range(length)]
    arg1, arg2 = rng.sample(range(1, length + 1), 2)
    return TypeSequenceMapping(rng.choice(_KNOM_RELATIONS), arg1, arg2,
                               TypeSequence(tuple(elements)), 1)


def scan_relations_between(relations, arg1, arg2):
    """Reference pair lookup: every relation row is scanned."""
    pair = (norm_token(arg1), norm_token(arg2))
    return {r for r, a1, a2 in relations if (a1, a2) == pair}


def product_mine_sequences(corpus, kb, min_support):
    """Reference miner: every candidate of every compound (the full product
    of its tokens' categories) is counted by distinct source id; the last
    compound with an id is its supporter."""
    support = {}
    for cn in corpus:
        for seq in type_compound(cn, kb):
            support.setdefault(seq.elements, {})[cn.source] = cn
    mined = []
    for elements in sorted(support):
        by_source = support[elements]
        if len(by_source) < min_support:
            continue
        supporters = tuple(by_source[s] for s in sorted(by_source))
        mined.append(MinedSequence(TypeSequence(elements), supporters))
    return mined


def all_pairs_predict_instances(mappings, corpus, kb, relations):
    """Reference prediction: every mapping is tried against every compound;
    duplicate triples keep the smallest source id, and a triple among the
    relation rows is known."""
    found = {}
    for cn in corpus:
        for mp in mappings:
            if not _matches(cn, mp.sequence, kb):
                continue
            arg1 = norm_token(cn.tokens[mp.arg1_pos - 1])
            arg2 = norm_token(cn.tokens[mp.arg2_pos - 1])
            key = (mp.relation, arg1, arg2)
            if key not in found or cn.source < found[key]:
                found[key] = cn.source
    return [Prediction(rel, arg1, arg2, source, (rel, arg1, arg2) in relations)
            for (rel, arg1, arg2), source in sorted(found.items())]


# -- planted compound-noun corpus ------------------------------------------

#: (relation, arg1_pos, arg2_pos, sequence elements); positions are where
#: the relation arguments sit inside each supporting compound.
PLANTED = (
    ("workplace", 3, 1, (("type", "company"), ("type", "jobtitle"), ("type", "person"))),
    ("residence", 2, 1, (("type", "city"), ("type", "person"))),
    ("authorship", 3, 1, (("type", "book"), ("lex", "author"), ("type", "person"))),
    ("ownership", 3, 1, (("type", "company"), ("lex", "founder"), ("type", "person"))),
    ("teamsport", 3, 1, (("type", "team"), ("type", "position"), ("type", "athlete"))),
)

PLANTED_SUPPORT = 12
PLANTED_NOISE = 200


def planted_corpus():
    """Compounds, category rows, and relation rows realizing PLANTED with
    PLANTED_SUPPORT supporters each, plus unique-token noise compounds."""
    compounds = []
    isa_rows = []
    relation_rows = []
    for m, (relation, arg1_pos, arg2_pos, elements) in enumerate(PLANTED, start=1):
        for k in range(PLANTED_SUPPORT):
            tokens = []
            for pos, (kind, value) in enumerate(elements, start=1):
                if kind == "lex":
                    tokens.append(value)
                else:
                    token = f"{value}{m}_{k}"
                    tokens.append(token)
                    isa_rows.append((token, value))
            relation_rows.append((relation, tokens[arg1_pos - 1], tokens[arg2_pos - 1]))
            compounds.append(CompoundNoun(tuple(tokens), f"p{m}_{k:02d}"))
    for k in range(PLANTED_NOISE):
        compounds.append(CompoundNoun((f"noise{k}_a", f"noise{k}_b"), f"n{k:03d}"))
    return compounds, isa_rows, relation_rows


def write_planted(directory):
    """Materialize the planted corpus as fixture files; returns
    (kb_dir, compounds_path)."""
    compounds, isa_rows, relation_rows = planted_corpus()
    kb_dir = os.path.join(directory, "kb")
    os.makedirs(kb_dir, exist_ok=True)
    with open(os.path.join(kb_dir, "isa.tsv"), "w", encoding="utf-8") as fh:
        for noun, cat in isa_rows:
            fh.write(f"{noun}\t{cat}\n")
    with open(os.path.join(kb_dir, "relations.tsv"), "w", encoding="utf-8") as fh:
        for rel, a1, a2 in relation_rows:
            fh.write(f"{rel}\t{a1}\t{a2}\n")
    compounds_path = os.path.join(directory, "compounds.tsv")
    with open(compounds_path, "w", encoding="utf-8") as fh:
        for cn in compounds:
            fh.write(cn.source + "\t" + "\t".join(cn.tokens) + "\n")
    return kb_dir, compounds_path


# -- the compound-noun claim: held-out planted pairs under type noise ----------

#: The categories that PLANTED's type elements name.
PLANTED_CATEGORIES = tuple(sorted({value for *_, elements in PLANTED
                                   for kind, value in elements if kind == TYPE}))


@dataclass(frozen=True)
class PlantedWorld:
    compounds: list     # CompoundNoun
    isa: list           # (token, category) rows, after the type noise
    relations: list     # (relation, arg1, arg2) rows of the compounds not held out
    held_out: frozenset  # (relation, arg1, arg2) of the held-out compounds


def planted_world(seed, q=0.0, support=30, held_out=10, noise=200):
    """PLANTED realized by ``support`` compounds per mapping, each with its
    own typed tokens; ``held_out`` of them, chosen at random, have their
    relation rows left out of the knowledge base. Plus ``noise`` compounds
    of two untyped tokens found nowhere else, all in random order. Type
    noise at rate ``q``: each category row is, with probability q/2, given
    another planted category at random and, with a further q/2, dropped."""
    rng = random.Random(seed)
    compounds, isa, relations, hidden = [], [], [], set()
    for m, (relation, arg1_pos, arg2_pos, elements) in enumerate(PLANTED, start=1):
        hold = set(rng.sample(range(support), held_out))
        for k in range(support):
            tokens = tuple(value if kind == LEX else f"{value}{m}_{k}" for kind, value in elements)
            isa += [(t, value) for t, (kind, value) in zip(tokens, elements) if kind == TYPE]
            row = (relation, tokens[arg1_pos - 1], tokens[arg2_pos - 1])
            if k in hold:
                hidden.add(row)
            else:
                relations.append(row)
            compounds.append(CompoundNoun(tokens, f"p{m}_{k:02d}"))
    compounds += [CompoundNoun((f"noise{k}_a", f"noise{k}_b"), f"n{k:03d}") for k in range(noise)]
    rng.shuffle(compounds)
    noisy = []
    for token, category in isa:
        draw = rng.random()
        if draw < q / 2:
            noisy.append((token, rng.choice([c for c in PLANTED_CATEGORIES if c != category])))
        elif draw >= q:
            noisy.append((token, category))
    return PlantedWorld(compounds, noisy, relations, frozenset(hidden))


def new_triples(world, kb, min_support, baseline=False):
    """The (relation, arg1, arg2) triples that mining, learning (then, given
    ``baseline``, wildcarding) and predicting on ``world``'s compounds over
    ``kb`` predict and ``kb`` does not hold."""
    mappings = learn_mappings(mine_sequences(world.compounds, kb, min_support), kb, min_support)
    if baseline:
        mappings = baseline_mappings(mappings)
    return {(p.relation, p.arg1, p.arg2)
            for p in predict_instances(mappings, world.compounds, kb) if not p.known}


def mcnemar_exact(b, c):
    """Two-sided exact McNemar p-value of ``b`` pairs that only the first
    method gets right against ``c`` that only the second does."""
    n = b + c
    return min(1.0, 2 * sum(math.comb(n, k) for k in range(min(b, c) + 1)) / 2 ** n)


def knom_claim(seed, q=0.0, min_support=5):
    """The compound-noun claim on ``planted_world(seed, q)``: for typed
    mappings, the wildcard baseline (``baseline_mappings``) and the
    literal-only run (the same calls over a KB without category rows), the
    held-out recall and the precision of the new triples (None when there
    is none), by name; and McNemar's exact p of typed against wildcard over
    the held-out triples."""
    world = planted_world(seed, q)
    typed = KnowledgeBase(isa=world.isa, relations=world.relations)
    runs = {"typed": new_triples(world, typed, min_support),
            "wildcard": new_triples(world, typed, min_support, baseline=True),
            "literal": new_triples(world, KnowledgeBase(relations=world.relations),
                                   min_support)}
    scores = {name: (len(new & world.held_out) / len(world.held_out),
                     len(new & world.held_out) / len(new) if new else None)
              for name, new in runs.items()}
    only_typed = len(world.held_out & runs["typed"] - runs["wildcard"])
    only_wildcard = len(world.held_out & runs["wildcard"] - runs["typed"])
    return scores, mcnemar_exact(only_typed, only_wildcard)
