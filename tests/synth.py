"""Synthetic data generators and independent oracles shared by the tests."""

import math
import os
import random

from kbread.features import NOUN, VERB, PPInstance
from kbread.knom import CompoundNoun

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
