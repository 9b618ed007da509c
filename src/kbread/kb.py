"""Background-knowledge store: corpus-derived subject-verb-object triples,
noun category assertions, verb role entries, preposition sense definitions,
verb synonym groups, and relation instances.

Each resource lives in its own tab-separated file and is optional; a missing
file simply yields an empty store. The table :data:`KB_FILES` declares each
file's columns and row reader once, in load order. :func:`load_kb_dir` opens
only the files its ``resources`` argument names, so a command that never
reads a file neither pays for it nor fails on it. Every row reader runs over
``tsv.iter_folded_rows``, which case-folds and whitespace-normalizes each field.
Queries fold their arguments the same way on purpose, though every caller
here passes folded words: README promises it and the tests' scan oracles
query with unfolded words. The fold costs about 1.3 µs of a
default-family feature extraction: 11.5 against 10.2 µs without it (the
medians of 9 interleaved rounds over 16,000 generated tuples, one process,
2 cores), the figure ROADMAP item 6 cites. Lookups on unknown keys return
empty results instead of raising. The store holds counts; the triple
queries take ``FeatureConfig.min_svo_count`` as an argument.

The constructor sums each file's folded rows, as its reader yields them,
into one index per query, so each query is a few dict lookups: triples by
``(subject, object)``, role entries by ``(verb synonym group, filler)`` and
relation names by ``(arg1, arg2)``. A loaded store is never mutated
afterwards, so it is safe to share across threads.
"""

from __future__ import annotations

import os

from .tsv import FormatError, iter_folded_rows, norm_token

DEFAULT_MIN_SVO_COUNT = 3


class KnowledgeBase:
    """Indexed, read-only view of the loaded knowledge. Build one with
    :func:`load_kb` or :func:`load_kb_dir`, or from folded rows: each key of
    :data:`KB_FILES` takes the rows that its reader there yields."""

    def __init__(self, svo=(), isa=(), roles=(), prepdefs=(), synsets=(), relations=()):
        # Rows are read in KB_FILES order, so of two bad files the first is reported.
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


def _fields(path, columns):
    """The folded fields of each row, as they are."""
    return (fields for _, fields in iter_folded_rows(path, columns))


def _counted_triples(path, columns):
    """Each triple with its count, which must be an integer of at least 1."""
    for lineno, (s, v, o, count) in iter_folded_rows(path, columns):
        try:
            count = int(count)
        except ValueError:
            raise FormatError(path, lineno, f"count is not an integer: {count!r}") from None
        if count < 1:
            raise FormatError(path, lineno, "count must be >= 1")
        yield s, v, o, count


def _verb_lists(path, columns):
    """Each row with its first field, a comma list of verbs, as a list; a
    one-column row is that list alone."""
    for lineno, (verbs, *fields) in iter_folded_rows(path, columns):
        verbs = [v.strip() for v in verbs.split(",") if v.strip()]
        if not verbs:
            raise FormatError(path, lineno, "empty verb list")
        yield (verbs, *fields) if fields else verbs


#: Every knowledge file in load order, keyed as :class:`KnowledgeBase` takes
#: its rows: the file's columns, and the reader that yields its rows.
KB_FILES = {
    "svo": (("subject", "verb", "object", "count"), _counted_triples),
    "isa": (("noun", "category"), _fields),
    "roles": (("verb[,verb...]", "filler", "role"), _verb_lists),
    "prepdefs": (("preposition", "sense verb"), _fields),
    "synsets": (("verb[,verb...]",), _verb_lists),
    "relations": (("relation", "arg1", "arg2"), _fields),
}
#: Conventional file names inside a knowledge-base directory.
KB_FILENAMES = {key: f"{key}.tsv" for key in KB_FILES}


def load_kb(**paths) -> KnowledgeBase:
    """Load a knowledge base from file paths keyed as :data:`KB_FILES` is.

    A path that is ``None`` or names no file leaves its store empty, and an
    unknown key is a ``TypeError``. Duplicate triples have their counts
    summed, duplicate category assertions are kept (nouns may have several
    categories), and synonym groups sharing a member are merged.
    """
    rows = {key: read(path, columns) for key, (columns, read) in KB_FILES.items()
            if (path := paths.pop(key, None)) is not None and os.path.exists(path)}
    return KnowledgeBase(**rows, **paths)


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
    return load_kb(**{key: os.path.join(directory, KB_FILENAMES[key]) for key in resources})
