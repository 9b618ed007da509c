"""Synthetic data generators and independent oracles shared by the tests."""

import math
import os
import random

from kbread.features import NOUN, VERB, PPInstance
from kbread.kb import KnowledgeBase, VerbRoleEntry, _merge_groups
from kbread.knom import (ANY, LEX, TYPE, CompoundNoun, MinedSequence, Prediction,
                         TypeSequence, TypeSequenceMapping, _matches, type_compound)
from kbread.tsv import norm_token

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


# -- random knowledge bases and brute-force KB query oracles ---------------

KB_VERBS = tuple(f"v{i}" for i in range(8))
KB_NOUNS = tuple(f"n{i}" for i in range(5))
KB_CATEGORIES = tuple(f"c{i}" for i in range(4))


def random_kb_inputs(rng):
    """Constructor inputs for a ``KnowledgeBase``: triples with counts 1-6
    over few nouns and verbs (so pairs share verbs), 0-3 categories per
    noun, role entries of 1-3 verbs whose filler is a noun or a category,
    synonym groups drawn so that they often overlap and merge (some verbs
    keep none), and a count threshold of 1-5."""
    svo = {(rng.choice(KB_NOUNS), rng.choice(KB_VERBS), rng.choice(KB_NOUNS)):
           rng.randint(1, 6) for _ in range(rng.randint(0, 30))}
    types = {n: set(rng.sample(KB_CATEGORIES, rng.randint(0, 3))) for n in KB_NOUNS}
    role_entries = [VerbRoleEntry(frozenset(rng.sample(KB_VERBS, rng.randint(1, 3))),
                                  rng.choice(KB_NOUNS + KB_CATEGORIES),
                                  rng.choice(("instrument", "topic", "source")))
                    for _ in range(rng.randint(0, 12))]
    groups = [set(rng.sample(KB_VERBS[:6], rng.randint(1, 3)))
              for _ in range(rng.randint(0, 4))]
    return {"svo": svo, "types": types, "role_entries": role_entries, "prepdefs": {},
            "synonyms": _merge_groups(groups), "relations": {},
            "min_svo_count": rng.randint(1, 5)}


def scan_roles_for(inputs, verb, n2):
    """Reference role lookup: every entry is scanned for one whose verb
    group meets the verb or its synonym group and whose filler is the noun
    or one of its categories."""
    verb, n2 = norm_token(verb), norm_token(n2)
    candidates = {verb} | inputs["synonyms"].get(verb, frozenset())
    n2_types = inputs["types"].get(n2, set())
    return {entry.role for entry in inputs["role_entries"]
            if entry.verb_group & candidates
            and (entry.filler == n2 or entry.filler in n2_types)}


def lookup_svo_exists(inputs, subject, verb, obj):
    """Reference triple test: the ``(s, v, o)`` count against the threshold."""
    key = (norm_token(subject), norm_token(verb), norm_token(obj))
    return inputs["svo"].get(key, 0) >= inputs["min_svo_count"]


def scan_svo_any_verb(inputs, subject, obj):
    """Reference pair lookup: every triple is scanned."""
    s, o = norm_token(subject), norm_token(obj)
    return {v for (ts, v, to), c in inputs["svo"].items()
            if (ts, to) == (s, o) and c >= inputs["min_svo_count"]}


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
    the oracles build stays small and some sequences reach support 4 or 5."""
    types = {w: rng.sample(_KNOM_CATS, rng.choice((0, 1, 1, 2, 2, 3, 6)))
             for w in KNOM_WORDS}
    relations = {r: {(rng.choice(KNOM_WORDS), rng.choice(KNOM_WORDS))
                     for _ in range(rng.randint(1, 12))}
                 for r in _KNOM_RELATIONS if rng.random() < 0.8}
    kb = KnowledgeBase({}, types, [], {}, {}, relations)
    corpus = [CompoundNoun(tuple(rng.choices(KNOM_WORDS, k=rng.choice((2, 2, 2, 3, 3, 4, 5)))),
                           rng.choice(_KNOM_SOURCES))
              for _ in range(rng.randint(0, 24))]
    return kb, corpus


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


def scan_relations_between(kb, arg1, arg2):
    """Reference pair lookup: the instance set of every relation a
    :func:`random_knom_world` can hold is scanned."""
    pair = (norm_token(arg1), norm_token(arg2))
    return {r for r in _KNOM_RELATIONS if pair in kb.relation_pairs(r)}


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


def all_pairs_predict_instances(mappings, corpus, kb):
    """Reference prediction: every mapping is tried against every compound;
    duplicate triples keep the smallest source id."""
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
    return [Prediction(rel, arg1, arg2, source, (arg1, arg2) in kb.relation_pairs(rel))
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
