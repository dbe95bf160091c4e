"""Per-body usage timelines, the author experience ledger, co-author graphs.

A timeline lists, in temporal order, every paper that used one macro
body together with the name it used there.  All "strictly before"
queries compare tie-group ranks, so papers whose relative order is
unknown (same month, month-granular) never count as predecessors of
each other.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice, pairwise, repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Corpus
from .extraction import Definitions, MacroDefinition, definition_columns


class Occurrence(NamedTuple):
    """One paper's use of a body: which name it used, by whom."""

    paper_id: str
    group_rank: int
    name: str
    authors: tuple[str, ...]


@dataclass(frozen=True)
class BodyTimeline:
    """Time-ordered occurrences of one normalized body, ``key`` being its
    ``(signature, body)``.

    Occurrences are sorted by (group rank, paper id), so each author's
    positions are in rank order and the uses before any cutoff rank form
    a prefix of the author's :attr:`positions`.

    For name-keyed (role-swapped) timelines built by
    :func:`build_name_timelines`, ``key`` is ``("", name)`` for the shared
    macro name and each occurrence's ``name`` field holds the body used.
    """

    key: tuple[str, str]
    occurrences: tuple[Occurrence, ...]

    @property
    def m(self) -> int:
        return len(self.occurrences)

    def distinct_authors(self) -> set[str]:
        return {a for o in self.occurrences for a in o.authors}

    @cached_property
    def positions(self) -> dict[str, list[int]]:
        """Each author's occurrence indices, built on first read."""
        index: dict[str, list[int]] = {}
        for idx, occ in enumerate(self.occurrences):
            for a in occ.authors:
                index.setdefault(a, []).append(idx)
        return index

    def prior_positions(self, author: str, cutoff_rank: int) -> list[int]:
        """Occurrence indices of ``author``'s uses strictly before ``cutoff_rank``."""
        positions = self.positions.get(author, [])
        occs = self.occurrences
        return positions[: bisect_left(positions, cutoff_rank, key=lambda i: occs[i].group_rank)]


def _columns(
    corpus: Corpus, definitions: Definitions | Mapping[str, Sequence[MacroDefinition]]
) -> Definitions:
    """``definitions`` as columns; a mapping from paper id (papers not in
    the corpus left out) is filled as a corpus store fills them."""
    if isinstance(definitions, Definitions):
        return definitions
    paper_ids = map(corpus.paper_id, range(len(corpus)))
    return definition_columns([definitions.get(pid, ()) for pid in paper_ids])


def _timelines(corpus: Corpus, columns: Definitions, kept: Iterable, keys: Iterable,
               names: Iterable, decode: Callable) -> dict[tuple[str, str], BodyTimeline]:
    """One timeline per decoded key, in key order, with one occurrence per
    kept effective definition (``kept``, ``keys`` and ``names`` run over
    those rows).  Rows come in corpus order, which is (tie group, paper
    id) order, so each key's occurrences are already sorted."""
    counts = columns.effective
    papers = ((corpus.paper_id(i), corpus.ranks[i], corpus.authors(i))
              for i in compress(range(len(counts)), counts))
    by_row = chain.from_iterable(map(repeat, papers, filter(None, counts)))
    buckets: dict = {}
    for (paper_id, rank, authors), key, name in compress(zip(by_row, keys, names), kept):
        buckets.setdefault(key, []).append(
            tuple.__new__(Occurrence, (paper_id, rank, name, authors)))
    decoded = {decode(key): occurrences for key, occurrences in buckets.items()}
    return {key: BodyTimeline(key, tuple(decoded[key])) for key in sorted(decoded)}


def build_timelines(
    corpus: Corpus, definitions: Definitions | Mapping[str, Sequence[MacroDefinition]]
) -> dict[tuple[str, str], BodyTimeline]:
    """One timeline per distinct (signature, body), in key order, with each
    paper's convention for it (at most one occurrence per paper per body).
    The occurrences are bucketed by ids, and only the keys are decoded."""
    cols = _columns(corpus, definitions)
    string = cols.strings.__getitem__
    return _timelines(corpus, cols, cols.convention,
                      zip(cols.effective_signature, cols.effective_body),
                      map(string, cols.effective_name),
                      lambda ids: (string(ids[0]), string(ids[1])))


def build_name_timelines(
    corpus: Corpus,
    definitions: Definitions | Mapping[str, Sequence[MacroDefinition]],
    whitelist: Iterable[str],
) -> dict[tuple[str, str], BodyTimeline]:
    """Role-swapped timelines, one per whitelisted macro name, in key order
    and keyed ``("", name)``; occurrences carry the body (with signature
    folded in) that the name expanded to."""
    cols = _columns(corpus, definitions)
    strings, names = cols.strings, cols.effective_name
    allowed = set(whitelist)
    kept = map({i for i in set(names) if strings[i] in allowed}.__contains__, names)
    used = (strings[body] if not strings[signature] else f"{strings[signature]} {strings[body]}"
            for signature, body in zip(cols.effective_signature, cols.effective_body))
    return _timelines(corpus, cols, kept, names, used, lambda name: ("", strings[name]))


def window_bounds(m: int, t0: float, t1: float) -> tuple[int, int]:
    """Index range [start, end) of the lifespan fraction window [t0, t1]
    over ``m`` occurrences.

    0-based floor indexing; a window that would come out empty is
    widened to one occurrence, so every valid window is non-empty.
    """
    start = min(math.floor(t0 * m), m - 1)
    end = min(max(math.floor(t1 * m), start + 1), m)
    return start, end


def interval(timeline: BodyTimeline, t0: float, t1: float) -> tuple[Occurrence, ...]:
    """Occurrences in the lifespan fraction window [t0, t1] (see
    :func:`window_bounds`)."""
    if not 0 <= t0 <= t1 <= 1:
        raise ValueError(f"invalid interval [{t0}, {t1}]")
    if timeline.m == 0:
        raise ValueError("empty timeline")
    start, end = window_bounds(timeline.m, t0, t1)
    return timeline.occurrences[start:end]


class ExperienceLedger:
    """Per-author, time-ordered paper history.

    Experience at a paper counts the author's strictly earlier papers;
    papers in the same tie group are excluded as order-ambiguous.

    The corpus's author slots, stably sorted by author, give each author
    one run of papers in corpus order: ``_papers`` holds their positions,
    ``_ranks`` their ranks and ``_span`` each author's run.
    """

    def __init__(self, corpus: Corpus):
        authors = list(corpus.author_ids)
        # each slot's paper position counts the papers that start at or before it
        starts = [0] * (len(authors) + 1)
        for offset in corpus.author_offsets[1:-1]:
            starts[offset] += 1
        slot_papers = list(accumulate(islice(starts, len(authors))))
        slots = sorted(range(len(authors)), key=authors.__getitem__)
        self._papers = list(map(slot_papers.__getitem__, slots))
        self._ranks = list(map(corpus.ranks.__getitem__, self._papers))
        counts = Counter(authors)
        ids = sorted(counts)
        runs = pairwise(accumulate(map(counts.__getitem__, ids), initial=0))
        self._span: dict[str, tuple[int, int]] = dict(zip(map(corpus.strings.__getitem__, ids),
                                                          runs))

    def positions_of(self, author: str) -> list[int]:
        """The corpus positions of the author's papers, in corpus order."""
        lo, hi = self._span.get(author, (0, 0))
        return self._papers[lo:hi]

    def experience_at_rank(self, author: str, group_rank: int) -> int:
        lo, hi = self._span.get(author, (0, 0))
        return bisect_left(self._ranks, group_rank, lo, hi) - lo

    def count_in_group(self, author: str, group_rank: int) -> int:
        """How many of the author's papers sit in one tie group."""
        lo, hi = self._span.get(author, (0, 0))
        ranks = self._ranks
        return bisect_left(ranks, group_rank + 1, lo, hi) - bisect_left(ranks, group_rank, lo, hi)


class CoauthorIndex:
    """Each author's co-authors, each with the rank of their first joint paper.

    ``neighbours(a)[b]`` and ``neighbours(b)[a]`` are that rank, so a graph
    over a set of authors costs the sum of their co-author counts rather
    than a test per pair.  Only papers with two or more authors are read.
    """

    def __init__(self, corpus: Corpus):
        self._joint: dict[str, dict[str, int]] = {}
        shared = map((2).__le__, corpus.author_counts())
        for paper in compress(range(len(corpus)), shared):
            rank = corpus.ranks[paper]
            authors = corpus.authors(paper)
            for i in range(len(authors)):
                for j in range(i + 1, len(authors)):
                    a, b = authors[i], authors[j]
                    of_a = self._joint.setdefault(a, {})
                    if b not in of_a:  # papers come in rank order
                        of_a[b] = self._joint.setdefault(b, {})[a] = rank

    def neighbours(self, author: str) -> dict[str, int]:
        return self._joint.get(author, {})

    def coauthored_before(self, a: str, b: str, group_rank: int) -> bool:
        """Whether ``a`` and ``b`` share a paper before ``group_rank``.

        The package no longer calls this (:func:`coauthor_graph` walks
        :meth:`neighbours`); it stays because ``perfbench/tracing.py``
        patches it by name to count pair tests, and a traced run fails
        without it.
        """
        first = self.neighbours(a).get(b)
        return first is not None and first < group_rank


@dataclass(frozen=True)
class CoauthorGraph:
    """Some authors' components in the co-author graph over one body's
    prior users at a cutoff rank.

    Nodes: authors with at least one occurrence of the body strictly
    before the cutoff.  Edges: pairs that co-authored any paper strictly
    before the cutoff (not only papers using the body).  ``adjacency``
    maps each node to its neighbours, in no particular order.
    """

    adjacency: dict[str, list[str]]

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.adjacency))

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((a, b) for a, near in self.adjacency.items() for b in near if a < b))


def coauthor_graph(
    timeline: BodyTimeline, cutoff_rank: int, index: CoauthorIndex, authors: Iterable[str]
) -> CoauthorGraph:
    """The components of those ``authors`` who used the body before
    ``cutoff_rank``, found by one walk out from them over
    :meth:`CoauthorIndex.neighbours`; it costs those components, not the
    body's prior users."""
    adjacency: dict[str, list[str]] = {}
    todo = [a for a in authors if timeline.prior_positions(a, cutoff_rank)]
    while todo:
        a = todo.pop()
        if a in adjacency:
            continue
        near = adjacency[a] = [
            b
            for b, first in index.neighbours(a).items()
            if first < cutoff_rank and timeline.prior_positions(b, cutoff_rank)
        ]
        todo.extend(b for b in near if b not in adjacency)
    return CoauthorGraph(adjacency)


def flexibility(timeline: BodyTimeline, author: str, cutoff_rank: int) -> float:
    """Fraction of the author's consecutive prior uses that switched names."""
    positions = timeline.prior_positions(author, cutoff_rank)
    if not positions:
        raise ValueError(f"author {author!r} has no prior use of this body")
    if len(positions) == 1:
        return 0.0
    names = [timeline.occurrences[i].name for i in positions]
    changes = sum(1 for a, b in zip(names, names[1:]) if a != b)
    return changes / (len(names) - 1)
