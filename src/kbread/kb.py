"""Background-knowledge store: corpus-derived subject-verb-object triples,
noun category assertions, verb role entries, preposition sense definitions,
verb synonym groups, and relation instances.

Each resource lives in its own tab-separated file and is optional; a missing
file simply yields an empty store. :func:`load_kb_dir` opens only the
files its ``resources`` argument names, so a command that never reads a file
neither pays for it nor fails on it. All strings are case-folded and
whitespace-normalized at load time, by the reader ``tsv.iter_folded_rows``.
Queries fold their arguments the same way on purpose, though every caller
here passes folded words: README promises it and the tests' scan oracles
query with unfolded words. The fold costs about 1.3 µs of a
default-family feature extraction: 11.5 against 10.2 µs without it (the
medians of 9 interleaved rounds over 16,000 generated tuples, one process,
2 cores), the figure ROADMAP item 6 cites. Lookups on unknown keys return
empty results instead of raising. The store holds counts; the triple
queries take ``FeatureConfig.min_svo_count`` as an argument.

The constructor sums each file's folded rows, as its loader yields them,
into one index per query, so each query is a few dict lookups: triples by
``(subject, object)``, role entries by ``(verb synonym group, filler)`` and
relation names by ``(arg1, arg2)``. A loaded store is never mutated
afterwards, so it is safe to share across threads.
"""

from __future__ import annotations

import os

from .tsv import FormatError, iter_folded_rows, norm_token

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


class KnowledgeBase:
    """Indexed, read-only view of the loaded knowledge. Build one with
    :func:`load_kb` or :func:`load_kb_dir`, or from folded rows: each keyword
    of :data:`KB_FILENAMES` takes the rows its file's loader yields."""

    def __init__(self, svo=(), isa=(), roles=(), prepdefs=(), synsets=(), relations=()):
        # Rows are read in file order, so of two bad files the first is reported.
        self._svo = {}                             # (s, o) -> {v: count}
        for s, v, o, count in svo:
            verbs = self._svo.setdefault((s, o), {})
            verbs[v] = verbs.get(v, 0) + count
        self._types = {}                           # noun -> frozenset(categories)
        for noun, category in isa:
            self._types.setdefault(noun, set()).add(category)
        for noun, categories in self._types.items():    # in place, to keep peak memory down
            self._types[noun] = frozenset(categories)
        roles = list(roles)                        # indexed by the merged groups below
        self._prepdefs = {}                        # preposition -> {sense: None}, rank order
        for prep, sense in prepdefs:
            self._prepdefs.setdefault(prep, {})[sense] = None
        self._synonyms = _merge_groups(synsets)    # verb -> frozenset(group)
        # (the verb's group, or the verb itself when it has none, filler)
        # -> roles. Groups are disjoint and hold their own verbs, as
        # _merge_groups builds them, so two verbs share a key exactly when
        # one is the other or a synonym of it.
        self._n_role_entries = len(roles)
        self._roles = {}
        for verbs, filler, role in roles:
            for verb in verbs:
                key = (self._synonyms.get(verb, verb), filler)
                self._roles.setdefault(key, set()).add(role)
        self._relations = {}                       # (arg1, arg2) -> {relation}
        for relation, arg1, arg2 in relations:
            self._relations.setdefault((arg1, arg2), set()).add(relation)

    # -- subject-verb-object triples ------------------------------------

    def svo_exists(self, subject: str, verb: str, obj: str,
                   min_svo_count: int = DEFAULT_MIN_SVO_COUNT) -> bool:
        """True when the exact triple was seen at least ``min_svo_count`` times."""
        verbs = self._svo.get((norm_token(subject), norm_token(obj)), {})
        return verbs.get(norm_token(verb), 0) >= min_svo_count

    def svo_any_verb(self, subject: str, obj: str,
                     min_svo_count: int = DEFAULT_MIN_SVO_COUNT) -> set[str]:
        """All verbs linking the noun pair at least ``min_svo_count`` times."""
        verbs = self._svo.get((norm_token(subject), norm_token(obj)), {})
        return {v for v, c in verbs.items() if c >= min_svo_count}

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

    def relations_between(self, arg1: str, arg2: str) -> set[str]:
        """Names of every relation holding between the ordered pair."""
        return set(self._relations.get((norm_token(arg1), norm_token(arg2)), ()))

    # -- miscellany --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "svo_triples": sum(len(verbs) for verbs in self._svo.values()),
            "typed_nouns": len(self._types),
            "role_entries": self._n_role_entries,
            "prepositions": len(self._prepdefs),
            "synonym_groups": len(set(self._synonyms.values())),
            "relations": len(set().union(*self._relations.values())),
            "relation_instances": sum(len(rs) for rs in self._relations.values()),
        }


# -- loading ------------------------------------------------------------------


def _load_svo(path):
    for lineno, (s, v, o, count) in iter_folded_rows(path, ("subject", "verb", "object", "count")):
        try:
            count = int(count)
        except ValueError:
            raise FormatError(path, lineno, f"count is not an integer: {count!r}") from None
        if count < 1:
            raise FormatError(path, lineno, "count must be >= 1")
        yield s, v, o, count


def _load_isa(path):
    return (fields for _, fields in iter_folded_rows(path, ("noun", "category")))


def _split_verbs(field, path, lineno):
    verbs = [v.strip() for v in field.split(",") if v.strip()]
    if not verbs:
        raise FormatError(path, lineno, "empty verb list")
    return verbs


def _load_roles(path):
    columns = ("verb[,verb...]", "filler", "role")
    for lineno, (verbs, filler, role) in iter_folded_rows(path, columns):
        yield _split_verbs(verbs, path, lineno), filler, role


def _load_prepdefs(path):
    return (fields for _, fields in iter_folded_rows(path, ("preposition", "sense verb")))


def _load_synsets(path):
    for lineno, (verbs,) in iter_folded_rows(path, ("verb[,verb...]",)):
        yield _split_verbs(verbs, path, lineno)


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
    return (fields for _, fields in iter_folded_rows(path, ("relation", "arg1", "arg2")))


def load_kb(svo=None, isa=None, roles=None, prepdefs=None, synsets=None,
            relations=None) -> KnowledgeBase:
    """Load a knowledge base from per-resource file paths.

    Every path is optional; ``None`` (or a path to a file that does not
    exist) leaves that store empty. Duplicate triples have their counts
    summed, duplicate category assertions are kept (nouns may have several
    categories), and synonym groups sharing a member are merged.
    """
    def rows(loader, path):
        return () if path is None or not os.path.exists(path) else loader(path)

    return KnowledgeBase(svo=rows(_load_svo, svo), isa=rows(_load_isa, isa),
                         roles=rows(_load_roles, roles), prepdefs=rows(_load_prepdefs, prepdefs),
                         synsets=rows(_load_synsets, synsets),
                         relations=rows(_load_relations, relations))


def load_kb_dir(directory, resources=tuple(KB_FILENAMES)) -> KnowledgeBase:
    """Load a knowledge base from a directory of conventionally named files.

    Only the files of ``resources`` (keys of :data:`KB_FILENAMES`, all of
    them by default) are opened and checked; the other stores stay empty.
    A ``directory`` that is missing or is not a directory is an error.
    """
    if not os.path.isdir(directory):
        if os.path.exists(directory):
            raise NotADirectoryError(f"{directory}: not a directory")
        raise FileNotFoundError(f"knowledge directory not found: {directory}")
    paths = {key: os.path.join(directory, KB_FILENAMES[key]) for key in resources}
    return load_kb(**paths)
