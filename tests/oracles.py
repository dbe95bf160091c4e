"""Brute-force reference implementations used to check the pipeline.

These deliberately share no code with the production modules: every
rule is re-derived here with plain loops and explicit enumeration so
that a bug would have to occur twice, independently, to go unnoticed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OracleChangeover:
    early_name: str
    late_name: str


def _slice_bounds(m: int, t0: float, t1: float) -> tuple[int, int]:
    lo = math.floor(t0 * m)
    if lo > m - 1:
        lo = m - 1
    hi = math.floor(t1 * m)
    if hi <= lo:
        hi = lo + 1
    if hi > m:
        hi = m
    return lo, hi


def _top_name(names: list[str]) -> str:
    """Most frequent name; count ties go to the earliest first position."""
    counts: dict[str, int] = {}
    for n in names:
        counts[n] = counts.get(n, 0) + 1
    ranked = []
    seen = set()
    for idx, n in enumerate(names):
        if n in seen:
            continue
        seen.add(n)
        ranked.append((-counts[n], idx, n))
    ranked.sort()
    return ranked[0][2]


def _author_share(occs: list, name: str) -> float:
    everyone = []
    users = []
    for occ in occs:
        for a in occ.authors:
            if a not in everyone:
                everyone.append(a)
            if occ.name == name and a not in users:
                users.append(a)
    return len(users) / len(everyone)


def oracle_changeover(timeline, s: int, q: float, theta: float) -> OracleChangeover | None:
    """Clause-by-clause evaluation of the changeover definition."""
    occs = list(timeline.occurrences)
    m = len(occs)
    if m < s:
        return None
    lo, hi = _slice_bounds(m, 0.0, q)
    early = occs[lo:hi]
    lo, hi = _slice_bounds(m, 1.0 - q, 1.0)
    late = occs[lo:hi]
    early_names = [o.name for o in early]
    late_names = [o.name for o in late]
    n_e = _top_name(early_names)
    n_l = _top_name(late_names)
    if n_e == n_l:
        return None
    if not _author_share(early, n_e) > theta:
        return None
    if not _author_share(late, n_l) > theta:
        return None
    return OracleChangeover(early_name=n_e, late_name=n_l)


def oracle_betweenness(nodes: list[str], edges: list[tuple[str, str]]) -> dict[str, float]:
    """Exhaustive shortest-path enumeration; practical up to ~10 nodes.

    For every unordered pair, all shortest paths are listed explicitly
    and each interior node is credited its share.
    """
    if len(nodes) > 10:
        raise ValueError("oracle limited to 10 nodes")
    adj: dict[str, set[str]] = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def all_shortest_paths(s: str, t: str) -> list[list[str]]:
        # breadth-first layers, then depth-first walk of all minimal paths
        dist = {s: 0}
        frontier = [s]
        while frontier and t not in dist:
            nxt = []
            for v in frontier:
                for w in sorted(adj[v]):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if t not in dist:
            return []
        paths: list[list[str]] = []

        def walk(path: list[str]) -> None:
            v = path[-1]
            if v == t:
                paths.append(list(path))
                return
            for w in sorted(adj[v]):
                if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                    path.append(w)
                    walk(path)
                    path.pop()

        walk([s])
        return paths

    scores = {v: 0.0 for v in nodes}
    ordered = sorted(nodes)
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            paths = all_shortest_paths(ordered[i], ordered[j])
            if not paths:
                continue
            for v in nodes:
                if v in (ordered[i], ordered[j]):
                    continue
                through = sum(1 for p in paths if v in p)
                scores[v] += through / len(paths)
    return scores


def oracle_coauthor_edges(
    papers: list[tuple[int, tuple[str, ...]]],
    uses: list[tuple[int, tuple[str, ...]]],
    cutoff_rank: int,
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """A body's prior users and the co-author pairs among them.

    ``papers`` lists every paper of the corpus and ``uses`` the papers that
    used the body, each as (tie-group rank, authors).  The users are the
    authors of uses strictly before ``cutoff_rank``; two users are joined
    when some paper strictly before the cutoff lists both, whether or not
    it used the body.  Nodes are sorted, edges are sorted (smaller,
    larger) name pairs.
    """
    users: list[str] = []
    for rank, authors in uses:
        if rank < cutoff_rank:
            for a in authors:
                if a not in users:
                    users.append(a)
    edges: list[tuple[str, str]] = []
    for rank, authors in papers:
        if rank >= cutoff_rank:
            continue
        for x in authors:
            for y in authors:
                if x < y and x in users and y in users and (x, y) not in edges:
                    edges.append((x, y))
    return tuple(sorted(users)), tuple(sorted(edges))


def oracle_validate_matched_pair(pair, q: float, ratio_lo: float, ratio_hi: float, tol: float) -> list[str]:
    """Recheck a matched pair's invariants from its raw timelines.

    Returns human-readable violations (empty list = valid).
    """
    problems: list[str] = []
    m_b = len(pair.record.timeline.occurrences)
    m_g = len(pair.control.occurrences)
    ratio = m_b / m_g
    if not (ratio_lo <= ratio <= ratio_hi):
        problems.append(f"volume ratio {ratio:.4f} outside [{ratio_lo}, {ratio_hi}]")

    def share(timeline, name: str) -> float:
        occs = list(timeline.occurrences)
        lo, hi = _slice_bounds(len(occs), 0.0, q)
        return _author_share(occs[lo:hi], name)

    f_b = share(pair.record.timeline, pair.record.early_name)
    g_b = share(pair.record.timeline, pair.record.late_name)
    f_g = share(pair.control, pair.control_early_name)
    g_g = share(pair.control, pair.control_late_name)
    if not abs(f_b - f_g) < tol:
        problems.append(f"early-name prevalence gap {abs(f_b - f_g):.4f} >= {tol}")
    if not abs(g_b - g_g) < tol:
        problems.append(f"late-name prevalence gap {abs(g_b - g_g):.4f} >= {tol}")
    return problems
