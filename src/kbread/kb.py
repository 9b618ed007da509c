"""Background-knowledge store: corpus-derived subject-verb-object triples,
noun category assertions, verb role entries, preposition sense definitions,
verb synonym groups, and relation instances.

Each resource lives in its own tab-separated file and is optional; a missing
file simply yields an empty store. All strings are case-folded and
whitespace-normalized at load time, queries fold their arguments the same
way, and lookups on unknown keys return empty results instead of raising.
The constructor builds one index per query, so each query is a few dict
lookups: triples are kept by ``(subject, object)`` and role entries by
``(verb synonym group, filler)``. Only the pair index behind
``relations_between`` is built lazily, on first use, because most commands
never ask for it; threads that race to build it build equal ones. A loaded
store is never mutated afterwards, so it is safe to share across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from .tsv import FormatError, iter_rows, norm_token

DEFAULT_MIN_SVO_COUNT = 3

#: Conventional file names inside a knowledge-base directory.
KB_FILENAMES = {
    "svo": "svo.tsv",
    "isa": "isa.tsv",
    "roles": "roles.tsv",
    "prepdefs": "prepdefs.tsv",
    "synsets": "synsets.tsv",
    "relations": "relations.tsv",
}


@dataclass(frozen=True)
class VerbRoleEntry:
    verb_group: frozenset[str]
    filler: str
    role: str


class KnowledgeBase:
    """Indexed, read-only view of the loaded knowledge. Build one with
    :func:`load_kb` or :func:`load_kb_dir`."""

    def __init__(self, svo, types, role_entries, prepdefs, synonyms,
                 relations, min_svo_count=DEFAULT_MIN_SVO_COUNT):
        if min_svo_count < 1:
            raise ValueError("min_svo_count must be >= 1")
        self.min_svo_count = min_svo_count
        self._svo = {}                             # (s, o) -> {v: count}
        for (s, v, o), c in svo.items():
            self._svo.setdefault((s, o), {})[v] = c
        self._types = {n: frozenset(ts) for n, ts in types.items()}
        self._synonyms = dict(synonyms)            # verb -> frozenset(group)
        # (the verb's group, or the verb itself when it has none, filler)
        # -> roles. Groups are disjoint and hold their own verbs, as
        # _merge_groups builds them, so two verbs share a key exactly when
        # one is the other or a synonym of it.
        role_entries = tuple(role_entries)
        self._n_role_entries = len(role_entries)
        self._roles = {}
        for entry in role_entries:
            for verb in entry.verb_group:
                key = (self._synonyms.get(verb, verb), entry.filler)
                self._roles.setdefault(key, set()).add(entry.role)
        self._prepdefs = {p: tuple(vs) for p, vs in prepdefs.items()}
        self._relations = {r: frozenset(pairs) for r, pairs in relations.items()}

    # -- subject-verb-object triples ------------------------------------

    def svo_exists(self, subject: str, verb: str, obj: str) -> bool:
        """True when the exact triple was seen at least ``min_svo_count`` times."""
        verbs = self._svo.get((norm_token(subject), norm_token(obj)), {})
        return verbs.get(norm_token(verb), 0) >= self.min_svo_count

    def svo_any_verb(self, subject: str, obj: str) -> set[str]:
        """All verbs linking the noun pair at or above the count threshold."""
        verbs = self._svo.get((norm_token(subject), norm_token(obj)), {})
        return {v for v, c in verbs.items() if c >= self.min_svo_count}

    # -- noun categories -------------------------------------------------

    def types_of(self, noun: str) -> frozenset[str]:
        return self._types.get(norm_token(noun), frozenset())

    # -- verb roles -------------------------------------------------------

    def roles_for(self, verb: str, n2: str) -> set[str]:
        """Role names the noun can fill for the verb.

        An entry matches when the verb (or any member of its synonym group)
        belongs to the entry's verb group, and the entry's filler equals the
        noun or one of the noun's categories.
        """
        verb = norm_token(verb)
        group = self._synonyms.get(verb, verb)
        n2 = norm_token(n2)
        roles = set(self._roles.get((group, n2), ()))
        for category in self.types_of(n2):
            roles.update(self._roles.get((group, category), ()))
        return roles

    # -- preposition senses ------------------------------------------------

    def prep_senses(self, preposition: str) -> list[str]:
        """Sense verbs for the preposition, in file (rank) order."""
        return list(self._prepdefs.get(norm_token(preposition), ()))

    # -- verb synonym groups ------------------------------------------------

    def synonyms_of(self, verb: str) -> frozenset[str]:
        """Members of the verb's synonym group (including the verb), or empty."""
        return self._synonyms.get(norm_token(verb), frozenset())

    # -- relation instances ---------------------------------------------------

    def relation_names(self) -> list[str]:
        return sorted(self._relations)

    def relation_pairs(self, relation: str) -> frozenset[tuple[str, str]]:
        return self._relations.get(norm_token(relation), frozenset())

    def has_instance(self, relation: str, arg1: str, arg2: str) -> bool:
        pair = (norm_token(arg1), norm_token(arg2))
        return pair in self.relation_pairs(relation)

    @cached_property
    def _relations_by_pair(self) -> dict[tuple[str, str], set[str]]:
        index = {}
        for r, pairs in self._relations.items():
            for pair in pairs:
                index.setdefault(pair, set()).add(r)
        return index

    def relations_between(self, arg1: str, arg2: str) -> set[str]:
        """Names of every relation holding between the ordered pair."""
        pair = (norm_token(arg1), norm_token(arg2))
        return set(self._relations_by_pair.get(pair, ()))

    # -- miscellany --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "svo_triples": sum(len(verbs) for verbs in self._svo.values()),
            "typed_nouns": len(self._types),
            "role_entries": self._n_role_entries,
            "prepositions": len(self._prepdefs),
            "synonym_groups": len(set(map(frozenset, self._synonyms.values()))),
            "relations": len(self._relations),
            "relation_instances": sum(len(p) for p in self._relations.values()),
        }


# -- loading ------------------------------------------------------------------


def _rows(path, columns):
    """Yield ``(lineno, fields)`` for each row of a KB file, every field
    folded with ``norm_token``. A row with the wrong number of columns or an
    empty field is a :class:`FormatError`."""
    for lineno, fields in iter_rows(path):
        if len(fields) != len(columns):
            raise FormatError(path, lineno, f"expected {len(columns)} columns "
                              f"({', '.join(columns)}), got {len(fields)}")
        fields = [norm_token(f) for f in fields]
        if not all(fields):
            raise FormatError(path, lineno, "empty field")
        yield lineno, fields


def _load_svo(path):
    svo = {}
    for lineno, (s, v, o, count) in _rows(path, ("subject", "verb", "object", "count")):
        try:
            count = int(count)
        except ValueError:
            raise FormatError(path, lineno, f"count is not an integer: {count!r}") from None
        if count < 1:
            raise FormatError(path, lineno, "count must be >= 1")
        svo[s, v, o] = svo.get((s, v, o), 0) + count
    return svo


def _load_isa(path):
    types = {}
    for _, (noun, cat) in _rows(path, ("noun", "category")):
        types.setdefault(noun, set()).add(cat)
    return types


def _split_verbs(field, path, lineno):
    verbs = [v.strip() for v in field.split(",")]
    verbs = [v for v in verbs if v]
    if not verbs:
        raise FormatError(path, lineno, "empty verb list")
    return verbs


def _load_roles(path):
    return [VerbRoleEntry(frozenset(_split_verbs(verbs, path, lineno)), filler, role)
            for lineno, (verbs, filler, role)
            in _rows(path, ("verb[,verb...]", "filler", "role"))]


def _load_prepdefs(path):
    prepdefs = {}
    for _, (prep, sense) in _rows(path, ("preposition", "sense verb")):
        senses = prepdefs.setdefault(prep, [])
        if sense not in senses:
            senses.append(sense)
    return prepdefs


def _load_synsets(path):
    return _merge_groups([set(_split_verbs(verbs, path, lineno))
                          for lineno, (verbs,) in _rows(path, ("verb[,verb...]",))])


def _merge_groups(groups):
    """Union groups that share a member until all groups are disjoint. Each
    verb maps to its group; the members of a group share one frozenset."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        for verb in group:
            parent.setdefault(verb, verb)
        first = next(iter(group))
        for verb in group:
            parent[find(verb)] = find(first)

    members = {}
    for verb in parent:
        members.setdefault(find(verb), set()).add(verb)
    return {v: g for g in map(frozenset, members.values()) for v in g}


def _load_relations(path):
    relations = {}
    for _, (rel, arg1, arg2) in _rows(path, ("relation", "arg1", "arg2")):
        relations.setdefault(rel, set()).add((arg1, arg2))
    return relations


def load_kb(svo=None, isa=None, roles=None, prepdefs=None, synsets=None,
            relations=None, min_svo_count=DEFAULT_MIN_SVO_COUNT) -> KnowledgeBase:
    """Load a knowledge base from per-resource file paths.

    Every path is optional; ``None`` (or a path to a file that does not
    exist) leaves that store empty. Duplicate triples have their counts
    summed, duplicate category assertions are kept (nouns may have several
    categories), and synonym groups sharing a member are merged.
    """
    def opt(loader, path, empty):
        if path is None or not os.path.exists(path):
            return empty
        return loader(path)

    return KnowledgeBase(
        svo=opt(_load_svo, svo, {}),
        types=opt(_load_isa, isa, {}),
        role_entries=opt(_load_roles, roles, []),
        prepdefs=opt(_load_prepdefs, prepdefs, {}),
        synonyms=opt(_load_synsets, synsets, {}),
        relations=opt(_load_relations, relations, {}),
        min_svo_count=min_svo_count,
    )


def load_kb_dir(directory, min_svo_count=DEFAULT_MIN_SVO_COUNT) -> KnowledgeBase:
    """Load a knowledge base from a directory of conventionally named files."""
    paths = {key: os.path.join(directory, name) for key, name in KB_FILENAMES.items()}
    return load_kb(min_svo_count=min_svo_count, **paths)
