"""Relation extraction from compound nouns via semantic type sequences.

Compound nouns ("japanese astronaut soichi noguchi") contain no verbs, so
relations they express are mined structurally: each token is replaced by
its knowledge-base categories to form type sequences, sequences with enough
distinct supporting compounds are kept, and known relation instances among
supporter token pairs turn sequences into position-annotated relation
mappings. Applying the mappings to fresh compounds yields new relation
instances. A type-free baseline is produced by wildcarding the type
elements of each mapping.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass, replace

from .kb import KnowledgeBase
from .tsv import FormatError, at_line, iter_rows, norm_token, write_lines

#: Sequence element kinds: a category name, a literal word, or a wildcard.
TYPE, LEX, ANY = "type", "lex", "any"

DEFAULT_MIN_SUPPORT = 10

#: The whitespace before a sequence element in a mappings file: ``lex``
#: values may hold spaces, so only this splits elements. Case is ignored so
#: that a mistyped ``TYPE:`` is read, and rejected, as an element.
_ELEMENT_BREAK = re.compile(rf"\s(?=(?:{TYPE}|{LEX}|{ANY}):)", re.IGNORECASE)


def _check_unbroken(what: str, value: str) -> None:
    """Reject a value that a mappings file could not hold as one element."""
    if _ELEMENT_BREAK.search(value):
        raise ValueError(f"{what} {value!r} holds a sequence element break")


@dataclass(frozen=True)
class CompoundNoun:
    """Two or more tokens from the compound with id ``source``. The tokens
    are folded with ``norm_token`` when it is built. An empty token or id is
    rejected, and so is a token holding an element break (" lex:" say)."""

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


@dataclass(frozen=True)
class TypeSequence:
    """One or more (kind, value) elements: "type" names a category, "lex" is a
    literal token kept as an anchor and "any" a baseline wildcard. Any other
    kind is rejected, and so is a value holding an element break."""

    elements: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("empty sequence")
        for kind, value in self.elements:
            if kind not in (TYPE, LEX, ANY):
                raise ValueError(f"unknown sequence element kind {kind!r}")
            _check_unbroken(kind, value)


@dataclass(frozen=True)
class MinedSequence:
    sequence: TypeSequence
    supporters: tuple[CompoundNoun, ...]


@dataclass(frozen=True)
class TypeSequenceMapping:
    """``relation`` (folded, not empty) between the tokens at two distinct
    1-based positions of ``sequence``."""

    relation: str
    arg1_pos: int
    arg2_pos: int
    sequence: TypeSequence
    support: int

    def __post_init__(self):
        object.__setattr__(self, "relation", norm_token(self.relation))
        if not self.relation:
            raise ValueError("empty field")
        positions = range(1, len(self.sequence.elements) + 1)
        if self.arg1_pos == self.arg2_pos or not {self.arg1_pos, self.arg2_pos} <= set(positions):
            raise ValueError("argument positions out of range")


@dataclass(frozen=True)
class Prediction:
    relation: str
    arg1: str
    arg2: str
    source: str
    known: bool


def _token_choices(cn: CompoundNoun, kb: KnowledgeBase) -> list[list[tuple[str, str]]]:
    """Each token's element choices: one per category, in sorted order, or
    the token itself as a literal anchor when it has no categories."""
    choices = []
    for token in cn.tokens:
        types = sorted(kb.types_of(token))
        choices.append([(TYPE, t) for t in types] or [(LEX, token)])
    return choices


def type_compound(cn: CompoundNoun, kb: KnowledgeBase) -> list[TypeSequence]:
    """All candidate type sequences for one compound: the product of the
    per-token choices, in deterministic order."""
    return [TypeSequence(combo) for combo in itertools.product(*_token_choices(cn, kb))]


def mine_sequences(corpus, kb: KnowledgeBase,
                   min_support: int = DEFAULT_MIN_SUPPORT) -> list[MinedSequence]:
    """The candidate sequences (see :func:`type_compound`) of the corpus
    that have at least ``min_support`` distinct supporting source ids. Of
    the supporters that share an id, the last in corpus order is kept.

    Sequences grow one position at a time, for each compound length on its
    own, and a prefix is extended only while enough distinct ids still fit
    it. Support can only fall as a prefix grows, so this keeps exactly the
    sequences that counting every candidate would keep (Apriori pruning),
    without building the product of categories.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    by_length = {}                              # length -> [(compound, choices)]
    for cn in corpus:
        by_length.setdefault(len(cn.tokens), []).append((cn, _token_choices(cn, kb)))
    mined = []
    for length, group in by_length.items():
        stack = [((), group)]                   # (prefix, members fitting it in corpus order)
        while stack:
            prefix, members = stack.pop()
            depth = len(prefix)
            if len({cn.source for cn, _ in members}) < min_support:
                continue
            if depth == length:
                by_source = {cn.source: cn for cn, _ in members}
                supporters = tuple(by_source[s] for s in sorted(by_source))
                mined.append(MinedSequence(TypeSequence(prefix), supporters))
                continue
            extensions = {}
            for member in members:
                for element in member[1][depth]:
                    extensions.setdefault(element, []).append(member)
            stack.extend((prefix + (element,), fitting)
                         for element, fitting in extensions.items())
    mined.sort(key=lambda m: m.sequence.elements)
    return mined


def learn_mappings(mined, kb: KnowledgeBase,
                   min_support: int = DEFAULT_MIN_SUPPORT) -> list[TypeSequenceMapping]:
    """Distantly supervise sequence-to-relation mappings.

    For every mined sequence and ordered position pair (i, j), the support
    is the number of supporting compounds whose (token_i, token_j) is a
    known instance of the relation; each supporter counts once per
    (relation, i, j). Mappings below ``min_support`` are dropped.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    out = []
    for m in mined:
        length = len(m.sequence.elements)
        counts = Counter()
        for cn in m.supporters:
            for i, j in itertools.permutations(range(1, length + 1), 2):
                for rel in kb.relations_between(cn.tokens[i - 1], cn.tokens[j - 1]):
                    counts[(rel, i, j)] += 1
        for (rel, i, j), c in sorted(counts.items()):
            if c >= min_support:
                out.append(TypeSequenceMapping(rel, i, j, m.sequence, c))
    out.sort(key=lambda mp: (mp.relation, mp.sequence.elements, mp.arg1_pos, mp.arg2_pos))
    return out


def _matches(cn: CompoundNoun, seq: TypeSequence, kb: KnowledgeBase) -> bool:
    if len(cn.tokens) != len(seq.elements):
        return False
    for token, (kind, value) in zip(cn.tokens, seq.elements):
        if (kind == TYPE and value not in kb.types_of(token)
                or kind == LEX and token != value):
            return False
    return True


def _anchor(seq: TypeSequence):
    """Index key of a sequence: its length and its first element that is
    not a wildcard, as (length, position, kind, value); None when every
    element is a wildcard."""
    for pos, (kind, value) in enumerate(seq.elements):
        if kind != ANY:
            return (len(seq.elements), pos, kind, value)
    return None


def predict_instances(mappings, corpus, kb: KnowledgeBase) -> list[Prediction]:
    """Apply mappings to compounds, yielding deduplicated relation instances.

    Each matching compound contributes relation(token at arg1_pos, token at
    arg2_pos). Duplicate (relation, arg1, arg2) triples collapse to one
    prediction with the smallest source id; instances already in the
    knowledge base are flagged as known. Output is sorted, so it depends
    only on the inputs, not on corpus order.

    A compound tries only the mappings whose anchor (see :func:`_anchor`)
    is one of its tokens or categories at the anchor's position, and those
    with no anchor; :func:`_matches` decides each.
    """
    anchored, unanchored = {}, {}               # anchor -> [mapping]; length -> [mapping]
    for mp in mappings:
        key = _anchor(mp.sequence)
        if key is None:
            unanchored.setdefault(len(mp.sequence.elements), []).append(mp)
        else:
            anchored.setdefault(key, []).append(mp)
    found = {}
    for cn in corpus:
        length = len(cn.tokens)
        candidates = list(unanchored.get(length, ()))
        for pos, token in enumerate(cn.tokens):
            candidates += anchored.get((length, pos, LEX, token), ())
            for t in kb.types_of(token):
                candidates += anchored.get((length, pos, TYPE, t), ())
        for mp in candidates:
            if not _matches(cn, mp.sequence, kb):
                continue
            arg1, arg2 = cn.tokens[mp.arg1_pos - 1], cn.tokens[mp.arg2_pos - 1]
            key = (mp.relation, arg1, arg2)
            if key not in found or cn.source < found[key]:
                found[key] = cn.source
    preds = []
    for (rel, arg1, arg2), source in sorted(found.items()):
        known = (arg1, arg2) in kb.relation_pairs(rel)
        preds.append(Prediction(rel, arg1, arg2, source, known))
    return preds


def baseline_mappings(mappings) -> list[TypeSequenceMapping]:
    """Type-free variants of the mappings: category elements become
    wildcards, and mappings whose sequences end up all-wildcard (no lexical
    anchor survives) are discarded as too permissive."""
    best = {}
    for mp in mappings:
        elements = tuple((ANY, "*") if kind == TYPE else (kind, value)
                         for kind, value in mp.sequence.elements)
        if all(kind == ANY for kind, _ in elements):
            continue
        key = (mp.relation, mp.arg1_pos, mp.arg2_pos, elements)
        cur = best.get(key)
        if cur is None or mp.support > cur.support:
            best[key] = replace(mp, sequence=TypeSequence(elements))
    return sorted(best.values(),
                  key=lambda mp: (mp.relation, mp.sequence.elements, mp.arg1_pos, mp.arg2_pos))


def sample_predictions(predictions, size: int = 100, seed: int = 0) -> list[Prediction]:
    """Uniform sample (without replacement) for manual precision annotation."""
    if size < 0:
        raise ValueError("size must be >= 0")
    predictions = list(predictions)
    if len(predictions) <= size:
        return predictions
    return random.Random(seed).sample(predictions, size)


# -- files ---------------------------------------------------------------


def read_compounds(path) -> list[CompoundNoun]:
    """Read compounds as TSV: id, token, token, ... (two or more tokens)."""
    out = []
    for lineno, fields in iter_rows(path):
        if len(fields) < 3:
            raise FormatError(path, lineno, f"expected id plus >= 2 tokens, got {len(fields)} columns")
        out.append(at_line(path, lineno, CompoundNoun, fields[1:], fields[0]))
    return out


def _format_sequence(seq: TypeSequence) -> str:
    return " ".join(f"{kind}:{value}" for kind, value in seq.elements)


def _parse_element(text, path, lineno):
    kind, sep, value = text.partition(":")
    value = norm_token(value)
    if not sep or kind not in (TYPE, LEX, ANY) or not value:
        raise FormatError(path, lineno, f"bad sequence element {text!r}")
    return kind, value


def write_sequences(mined, path) -> None:
    """Mined sequences as TSV: sequence, support, supporter ids."""
    lines = []
    for m in mined:
        ids = ",".join(cn.source for cn in m.supporters)
        lines.append(f"{_format_sequence(m.sequence)}\t{len(m.supporters)}\t{ids}")
    write_lines(path, lines)


def write_mappings(mappings, path) -> None:
    """Mappings as TSV: relation, arg1 pos, arg2 pos, sequence, support."""
    lines = []
    for mp in mappings:
        lines.append(f"{mp.relation}\t{mp.arg1_pos}\t{mp.arg2_pos}"
                     f"\t{_format_sequence(mp.sequence)}\t{mp.support}")
    write_lines(path, lines)


def read_mappings(path) -> list[TypeSequenceMapping]:
    """Read mappings as :func:`write_mappings` writes them. The sequence is
    split only where whitespace precedes ``type:``, ``lex:`` or ``any:``, so
    a ``lex`` value may hold spaces."""
    out = []
    for lineno, fields in iter_rows(path):
        if len(fields) != 5:
            raise FormatError(path, lineno, f"expected 5 columns, got {len(fields)}")
        try:
            arg1_pos, arg2_pos, support = int(fields[1]), int(fields[2]), int(fields[4])
        except ValueError:
            raise FormatError(path, lineno, "positions and support must be integers") from None
        elements = tuple(_parse_element(e, path, lineno)
                         for e in _ELEMENT_BREAK.split(fields[3]) if e)
        sequence = at_line(path, lineno, TypeSequence, elements)
        out.append(at_line(path, lineno, TypeSequenceMapping, fields[0], arg1_pos, arg2_pos,
                           sequence, support))
    return out


def write_predictions(predictions, path) -> None:
    """Predictions as TSV: relation, arg1, arg2, source id, known|new."""
    lines = [f"{p.relation}\t{p.arg1}\t{p.arg2}\t{p.source}\t{'known' if p.known else 'new'}"
             for p in predictions]
    write_lines(path, lines)


def write_sample_manifest(predictions, path) -> None:
    """Annotation manifest: prediction rows plus an empty judgment column."""
    lines = ["#relation\targ1\targ2\tsource\tstatus\tjudgment"]
    lines += [f"{p.relation}\t{p.arg1}\t{p.arg2}\t{p.source}\t{'known' if p.known else 'new'}\t-"
              for p in predictions]
    write_lines(path, lines)
