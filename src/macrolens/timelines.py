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
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping

from .corpus import Corpus, Paper
from .extraction import MacroDefinition, effective_definitions, paper_conventions


@dataclass(frozen=True)
class Occurrence:
    """One paper's use of a body: which name it used, by whom."""

    paper_id: str
    group_rank: int
    name: str
    authors: tuple[str, ...]


@dataclass
class BodyTimeline:
    """Time-ordered occurrences of one normalized body.

    Occurrences are sorted by (group rank, paper id), so each author's
    positions are in rank order and the uses before any cutoff rank form
    a prefix of :meth:`author_positions`.

    For name-keyed (role-swapped) timelines built by
    :func:`build_name_timelines`, ``body`` holds the shared macro name
    and each occurrence's ``name`` field holds the body used.
    """

    body: str
    signature: str = ""
    occurrences: tuple[Occurrence, ...] = ()
    _author_index: dict[str, list[int]] = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return len(self.occurrences)

    @property
    def key(self) -> tuple[str, str]:
        return (self.signature, self.body)

    def names(self) -> list[str]:
        return sorted({o.name for o in self.occurrences})

    def distinct_authors(self) -> set[str]:
        return {a for o in self.occurrences for a in o.authors}

    def author_positions(self, author: str) -> list[int]:
        """Occurrence indices involving ``author`` (built lazily, cached)."""
        if not self._author_index:
            for idx, occ in enumerate(self.occurrences):
                for a in occ.authors:
                    self._author_index.setdefault(a, []).append(idx)
        return self._author_index.get(author, [])

    def prior_positions(self, author: str, cutoff_rank: int) -> list[int]:
        """Occurrence indices of ``author``'s uses strictly before ``cutoff_rank``."""
        positions = self.author_positions(author)
        occs = self.occurrences
        return positions[: bisect_left(positions, cutoff_rank, key=lambda i: occs[i].group_rank)]


def _occurrences_by_key(
    corpus: Corpus,
    definitions: Mapping[str, list[MacroDefinition]],
    uses: Callable[[list[MacroDefinition]], list[tuple[Hashable, str]]],
) -> dict:
    """Each key's occurrences in (tie group, paper id) order, keys sorted;
    ``uses`` gives one paper's (key, name used) pairs."""
    buckets: dict = {}
    for paper in corpus:
        defs = definitions.get(paper.paper_id)
        if not defs:
            continue
        rank = corpus.rank_of(paper.paper_id)
        for key, name in uses(defs):
            occ = Occurrence(
                paper_id=paper.paper_id, group_rank=rank, name=name, authors=paper.authors
            )
            buckets.setdefault(key, []).append(occ)
    return {
        key: tuple(sorted(buckets[key], key=lambda o: (o.group_rank, o.paper_id)))
        for key in sorted(buckets)
    }


def build_timelines(
    corpus: Corpus, definitions: Mapping[str, list[MacroDefinition]]
) -> dict[tuple[str, str], BodyTimeline]:
    """One timeline per distinct (signature, body); at most one occurrence
    per paper per body."""
    by_body = _occurrences_by_key(
        corpus, definitions, lambda defs: [(c.body_key, c.name) for c in paper_conventions(defs)]
    )
    return {
        key: BodyTimeline(body=key[1], signature=key[0], occurrences=occs)
        for key, occs in by_body.items()
    }


def build_name_timelines(
    corpus: Corpus,
    definitions: Mapping[str, list[MacroDefinition]],
    whitelist: Iterable[str] | None = None,
) -> dict[str, BodyTimeline]:
    """Role-swapped timelines: one per macro name, occurrences carry the
    body (with signature folded in) that the name expanded to."""
    allowed = set(whitelist) if whitelist is not None else None

    def uses(defs: list[MacroDefinition]) -> list[tuple[str, str]]:
        return [
            (name, d.body if not d.signature else f"{d.signature} {d.body}")
            for name, d in sorted(effective_definitions(defs).items())
            if allowed is None or name in allowed
        ]

    return {
        name: BodyTimeline(body=name, occurrences=occs)
        for name, occs in _occurrences_by_key(corpus, definitions, uses).items()
    }


def window_bounds(m: int, t0: float, t1: float) -> tuple[int, int]:
    """Index range [start, end) of the lifespan fraction window [t0, t1]
    over ``m`` occurrences.

    0-based floor indexing; a window that would come out empty is
    widened to one occurrence, so every valid window is non-empty.
    """
    start = min(math.floor(t0 * m), m - 1)
    end = min(max(math.floor(t1 * m), start + 1), m)
    return start, end


def interval(timeline: BodyTimeline, t0: float, t1: float) -> list[Occurrence]:
    """Occurrences in the lifespan fraction window [t0, t1] (see
    :func:`window_bounds`)."""
    if not 0 <= t0 <= t1 <= 1:
        raise ValueError(f"invalid interval [{t0}, {t1}]")
    if timeline.m == 0:
        raise ValueError("empty timeline")
    start, end = window_bounds(timeline.m, t0, t1)
    return list(timeline.occurrences[start:end])


class ExperienceLedger:
    """Per-author, time-ordered paper history.

    Experience at a paper counts the author's strictly earlier papers;
    papers in the same tie group are excluded as order-ambiguous.
    """

    def __init__(self, corpus: Corpus):
        self._corpus = corpus
        self._papers: dict[str, list[Paper]] = {}
        self._ranks: dict[str, list[int]] = {}
        for paper in corpus:
            rank = corpus.rank_of(paper.paper_id)
            for a in paper.authors:
                self._papers.setdefault(a, []).append(paper)
                self._ranks.setdefault(a, []).append(rank)

    def papers_of(self, author: str) -> list[Paper]:
        return list(self._papers.get(author, []))

    def experience(self, author: str, paper: Paper | str) -> int:
        paper_id = paper.paper_id if isinstance(paper, Paper) else paper
        return self.experience_at_rank(author, self._corpus.rank_of(paper_id))

    def experience_at_rank(self, author: str, group_rank: int) -> int:
        ranks = self._ranks.get(author)
        if not ranks:
            return 0
        return bisect_left(ranks, group_rank)

    def count_in_group(self, author: str, group_rank: int) -> int:
        """How many of the author's papers sit in one tie group."""
        ranks = self._ranks.get(author, [])
        lo = bisect_left(ranks, group_rank)
        hi = bisect_left(ranks, group_rank + 1)
        return hi - lo


class CoauthorIndex:
    """Each author's co-authors, each with the ranks of their joint papers.

    ``neighbours(a)[b]`` and ``neighbours(b)[a]`` are the same rank list,
    in rank order, so a graph over a set of authors costs the sum of their
    co-author counts rather than a test per pair.
    """

    def __init__(self, corpus: Corpus):
        self._joint: dict[str, dict[str, list[int]]] = {}
        for paper in corpus:
            rank = corpus.rank_of(paper.paper_id)
            authors = paper.authors
            for i in range(len(authors)):
                for j in range(i + 1, len(authors)):
                    a, b = authors[i], authors[j]
                    of_a = self._joint.setdefault(a, {})
                    ranks = of_a.get(b)
                    if ranks is None:
                        ranks = of_a[b] = self._joint.setdefault(b, {})[a] = []
                    ranks.append(rank)

    def neighbours(self, author: str) -> dict[str, list[int]]:
        return self._joint.get(author, {})

    def joint_ranks(self, a: str, b: str) -> list[int]:
        return self.neighbours(a).get(b, [])

    def coauthored_before(self, a: str, b: str, group_rank: int) -> bool:
        """Whether ``a`` and ``b`` share a paper before ``group_rank``.

        The package no longer calls this (:func:`coauthor_graph` walks
        :meth:`neighbours`); it stays because ``perfbench/tracing.py``
        patches it by name to count pair tests, and a traced run fails
        without it.
        """
        ranks = self.joint_ranks(a, b)
        return bool(ranks) and ranks[0] < group_rank

    def joint_count_before(self, a: str, b: str, group_rank: int) -> int:
        return bisect_left(self.joint_ranks(a, b), group_rank)

    def joint_count_in_group(self, a: str, b: str, group_rank: int) -> int:
        ranks = self.joint_ranks(a, b)
        return bisect_left(ranks, group_rank + 1) - bisect_left(ranks, group_rank)


@dataclass(frozen=True)
class CoauthorGraph:
    """Co-author graph over one body's prior users at a cutoff paper.

    Nodes: authors with at least one occurrence of the body strictly
    before the cutoff.  Edges: pairs that co-authored any paper strictly
    before the cutoff (not only papers using the body).
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    body: str
    cutoff_paper_id: str

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for v in adj:
            adj[v].sort()
        return adj


def coauthor_graph(
    corpus: Corpus,
    timeline: BodyTimeline,
    cutoff: Paper | str,
    index: CoauthorIndex,
) -> CoauthorGraph:
    cutoff_id = cutoff.paper_id if isinstance(cutoff, Paper) else cutoff
    cutoff_rank = corpus.rank_of(cutoff_id)
    nodes = sorted(
        {a for occ in timeline.occurrences if occ.group_rank < cutoff_rank for a in occ.authors}
    )
    users = set(nodes)
    edges = sorted(
        (a, b)
        for a in nodes
        for b, ranks in index.neighbours(a).items()
        if a < b and b in users and ranks[0] < cutoff_rank
    )
    return CoauthorGraph(
        nodes=tuple(nodes), edges=tuple(edges), body=timeline.body, cutoff_paper_id=cutoff_id
    )


def flexibility(timeline: BodyTimeline, author: str, cutoff: Paper | str, corpus: Corpus) -> float:
    """Fraction of the author's consecutive prior uses that switched names."""
    cutoff_id = cutoff.paper_id if isinstance(cutoff, Paper) else cutoff
    positions = timeline.prior_positions(author, corpus.rank_of(cutoff_id))
    if not positions:
        raise ValueError(f"author {author!r} has no prior use of this body")
    if len(positions) == 1:
        return 0.0
    names = [timeline.occurrences[i].name for i in positions]
    changes = sum(1 for a, b in zip(names, names[1:]) if a != b)
    return changes / (len(names) - 1)
