import random

import pytest

from macrolens.extraction import extract_definitions
from macrolens.timelines import (
    CoauthorIndex,
    ExperienceLedger,
    build_name_timelines,
    build_timelines,
    coauthor_graph,
    flexibility,
    interval,
)

from conftest import corpus_of, paper, simple_timeline, timeline
from oracles import oracle_coauthor_edges
from record_corpus import rank_of


def macro_paper(pid, date, authors, source):
    return paper(pid, date, authors, source=source)


def corpus_with_defs(papers):
    corpus = corpus_of(*papers)
    defs = {}
    for p in corpus:
        res = extract_definitions(p.source, p.paper_id)
        if res.definitions:
            defs[p.paper_id] = res.definitions
    return corpus, defs


class TestBuildTimelines:
    def test_three_papers_one_body(self):
        corpus, defs = corpus_with_defs(
            [
                macro_paper("p1", "2000-01-01", ["a"], "\\def\\R{\\mathbb{R}}"),
                macro_paper("p2", "2000-01-02", ["b"], "\\def\\Reals{\\mathbb{R}}"),
                macro_paper("p3", "2000-01-03", ["c"], "\\def\\R{\\mathbb{R}}"),
            ]
        )
        tls = build_timelines(corpus, defs)
        assert len(tls) == 1
        tl = tls[("", "\\mathbb{R}")]
        assert tl.m == 3
        assert [o.name for o in tl.occurrences] == ["\\R", "\\Reals", "\\R"]

    def test_multi_name_paper_contributes_first(self):
        corpus, defs = corpus_with_defs(
            [macro_paper("p1", "2000-01-01", ["a"], "\\def\\R{\\mathbb{R}}\\def\\Reals{\\mathbb{R}}")]
        )
        tls = build_timelines(corpus, defs)
        tl = tls[("", "\\mathbb{R}")]
        assert tl.m == 1
        assert tl.occurrences[0].name == "\\R"

    def test_empty_corpus(self):
        assert build_timelines(corpus_of(), {}) == {}

    def test_name_timelines_role_swap(self):
        corpus, defs = corpus_with_defs(
            [
                macro_paper("p1", "2000-01-01", ["a"], "\\def\\eps{\\epsilon}"),
                macro_paper("p2", "2000-01-02", ["b"], "\\def\\eps{\\varepsilon}"),
            ]
        )
        tls = build_name_timelines(corpus, defs, whitelist=["\\eps"])
        assert list(tls) == [("", "\\eps")]  # keyed as build_timelines keys, by BodyTimeline.key
        tl = tls["", "\\eps"]
        assert tl.key == ("", "\\eps")
        assert [o.name for o in tl.occurrences] == ["\\epsilon", "\\varepsilon"]

    def test_author_index_takes_no_part_in_equality(self):
        asked, fresh = (simple_timeline(["\\a", "\\b", "\\a"]) for _ in range(2))
        shown = repr(fresh)
        assert asked.positions == {"author 0": [0], "author 1": [1], "author 2": [2]}
        assert asked.positions is asked.positions  # built once
        assert asked == fresh and fresh == asked and hash(asked) == hash(fresh)
        assert repr(asked) == repr(fresh) == shown


class TestExperience:
    def make(self):
        papers = [
            paper("first", "1996-03", ["luty"]),
            paper("second", "1996-05", ["luty"]),
            paper("tied1", "1998-05", ["tied"]),
            paper("tied2", "1998-05", ["tied"]),
        ]
        corpus = corpus_of(*papers)
        return corpus, ExperienceLedger(corpus)

    def test_first_paper_zero(self):
        corpus, ledger = self.make()
        assert ledger.experience_at_rank("luty", rank_of(corpus, "first")) == 0

    def test_one_strict_predecessor(self):
        corpus, ledger = self.make()
        assert ledger.experience_at_rank("luty", rank_of(corpus, "second")) == 1

    def test_same_tie_group_excluded(self):
        corpus, ledger = self.make()
        # independent oracle: count papers with strictly smaller rank
        for pid in ("tied1", "tied2"):
            expected = sum(
                1
                for other in corpus
                if "tied" in other.authors
                and rank_of(corpus, other.paper_id) < rank_of(corpus, pid)
            )
            assert ledger.experience_at_rank("tied", rank_of(corpus, pid)) == expected == 0

    def test_unknown_author_zero(self):
        corpus, ledger = self.make()
        assert ledger.experience_at_rank("nobody", rank_of(corpus, "first")) == 0

    def test_monotone_along_author_sequence(self):
        papers = [paper(f"p{i}", f"200{i}-01-0{i+1}", ["w"]) for i in range(5)]
        corpus = corpus_of(*papers)
        ledger = ExperienceLedger(corpus)
        values = [ledger.experience_at_rank("w", rank_of(corpus, p.paper_id)) for p in corpus]
        assert values == sorted(values)


class TestInterval:
    def test_first_q_fraction(self):
        tl = simple_timeline(["\\n"] * 100)
        occs = interval(tl, 0.0, 0.3)
        assert [o.paper_id for o in occs] == [f"p{i:04d}" for i in range(30)]

    def test_full_span(self):
        tl = simple_timeline(["\\n"] * 17)
        assert len(interval(tl, 0.0, 1.0)) == 17

    def test_nonempty_guarantee(self):
        tl = simple_timeline(["\\n"] * 10)
        occs = interval(tl, 0.95, 1.0)
        assert [o.paper_id for o in occs] == ["p0009"]

    def test_floor_rule_oracle(self, rng):
        import math

        for _ in range(200):
            m = rng.randint(1, 50)
            tl = simple_timeline(["\\n"] * m)
            t0 = rng.random()
            t1 = t0 + (1 - t0) * rng.random()
            got = [o.paper_id for o in interval(tl, t0, t1)]
            lo = min(math.floor(t0 * m), m - 1)
            hi = min(max(math.floor(t1 * m), lo + 1), m)
            assert got == [f"p{i:04d}" for i in range(lo, hi)]

    def test_split_covers_with_small_overlap(self, rng):
        for _ in range(100):
            m = rng.randint(1, 60)
            q = rng.uniform(0.05, 0.95)
            tl = simple_timeline(["\\n"] * m)
            left = {o.paper_id for o in interval(tl, 0.0, q)}
            right = {o.paper_id for o in interval(tl, q, 1.0)}
            assert left | right == {f"p{i:04d}" for i in range(m)}
            assert len(left & right) <= 1

    def test_invalid_interval(self):
        tl = simple_timeline(["\\n"])
        with pytest.raises(ValueError):
            interval(tl, 0.7, 0.3)


def whole_graph(corpus, tl, cutoff_id):
    """The graph over all the body's prior users: a walk from every user."""
    return coauthor_graph(
        tl, rank_of(corpus, cutoff_id), CoauthorIndex(corpus), tl.distinct_authors()
    )


class TestCoauthorGraph:
    def make_corpus(self):
        return corpus_of(
            paper("j1", "2000-01-01", ["a", "b"]),
            paper("j2", "2000-01-02", ["b", "c"]),
            paper("j3", "2000-01-03", ["a", "c"]),
            paper("cut", "2000-01-04", ["z"]),
        )

    def test_no_prior_users_empty(self):
        corpus = self.make_corpus()
        tl = timeline([("cut", rank_of(corpus, "cut"), "\\n", ["z"])])
        g = whole_graph(corpus, tl, "cut")
        assert g.nodes == () and g.edges == ()

    def test_two_users_never_coauthored(self):
        corpus = corpus_of(
            paper("s1", "2000-01-01", ["a"]),
            paper("s2", "2000-01-02", ["c"]),
            paper("cut", "2000-01-03", ["z"]),
        )
        tl = timeline([
            ("s1", rank_of(corpus, "s1"), "\\n", ["a"]),
            ("s2", rank_of(corpus, "s2"), "\\n", ["c"]),
        ])
        g = whole_graph(corpus, tl, "cut")
        assert set(g.nodes) == {"a", "c"}
        assert g.edges == ()

    def test_triangle(self):
        corpus = self.make_corpus()
        tl = timeline(
            [
                ("j1", rank_of(corpus, "j1"), "\\n", ["a", "b"]),
                ("j2", rank_of(corpus, "j2"), "\\n", ["b", "c"]),
                ("j3", rank_of(corpus, "j3"), "\\n", ["a", "c"]),
            ]
        )
        g = whole_graph(corpus, tl, "cut")
        # oracle: enumerate author pairs over prior papers
        expected = set()
        cutoff = rank_of(corpus, "cut")
        users = {a for o in tl.occurrences if o.group_rank < cutoff for a in o.authors}
        for p in corpus:
            if rank_of(corpus, p.paper_id) >= cutoff:
                continue
            named = [a for a in p.authors if a in users]
            for i in range(len(named)):
                for j in range(i + 1, len(named)):
                    expected.add(tuple(sorted((named[i], named[j]))))
        assert set(g.edges) == expected == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_monotone_in_cutoff(self):
        corpus = self.make_corpus()
        tl = timeline(
            [
                ("j1", rank_of(corpus, "j1"), "\\n", ["a", "b"]),
                ("j2", rank_of(corpus, "j2"), "\\n", ["b", "c"]),
                ("j3", rank_of(corpus, "j3"), "\\n", ["a", "c"]),
            ]
        )
        prev_nodes, prev_edges = set(), set()
        for cut in ("j1", "j2", "j3", "cut"):
            g = whole_graph(corpus, tl, cut)
            assert prev_nodes <= set(g.nodes)
            assert prev_edges <= set(g.edges)
            prev_nodes, prev_edges = set(g.nodes), set(g.edges)

    def test_edges_need_any_joint_paper_not_body_use(self):
        # a and b co-authored a macro-free paper before the cutoff
        corpus = corpus_of(
            paper("solo1", "2000-01-01", ["a"]),
            paper("solo2", "2000-01-02", ["b"]),
            paper("joint", "2000-01-03", ["a", "b"]),
            paper("cut", "2000-01-04", ["z"]),
        )
        tl = timeline(
            [
                ("solo1", rank_of(corpus, "solo1"), "\\n", ["a"]),
                ("solo2", rank_of(corpus, "solo2"), "\\n", ["b"]),
            ]
        )
        g = whole_graph(corpus, tl, "cut")
        assert set(g.edges) == {("a", "b")}


class TestCoauthorGraphAgainstOracle:
    @staticmethod
    def random_corpus(rng):
        """Papers over four months, some month-granular (tie groups); a
        small author pool, single-author papers and repeated bylines; about
        half the papers use the body."""
        pool = [f"u{i:02d}" for i in range(rng.randint(2, 12))]
        papers = []
        for i in range(rng.randint(1, 30)):
            month = rng.randint(1, 4)
            if rng.random() < 0.4:
                date = f"2000-{month:02d}"
            else:
                date = f"2000-{month:02d}-{rng.randint(1, 28):02d}"
            if papers and rng.random() < 0.2:
                authors = list(rng.choice(papers).authors)
            else:
                authors = rng.sample(pool, min(rng.choice((1, 1, 2, 2, 3, 4)), len(pool)))
            papers.append(paper(f"p{i:02d}", date, authors))
        corpus = corpus_of(*papers)
        used = [p for p in corpus if rng.random() < 0.5]
        tl = timeline([(p.paper_id, rank_of(corpus, p.paper_id), "\\n", p.authors) for p in used])
        return corpus, tl

    def test_nodes_and_edges_match_oracle(self):
        rng = random.Random(2024)
        seen = dict.fromkeys(
            ("tie_cutoff", "repeated_joint", "single_author", "non_user_coauthor", "edge"), 0
        )
        for _ in range(250):
            corpus, tl = self.random_corpus(rng)
            index = CoauthorIndex(corpus)
            papers = [(rank_of(corpus, p.paper_id), p.authors) for p in corpus]
            uses = [(o.group_rank, o.authors) for o in tl.occurrences]
            ranks = [r for r, _ in papers]
            for p in corpus:
                cutoff = rank_of(corpus, p.paper_id)
                g = coauthor_graph(tl, cutoff, index, tl.distinct_authors())
                assert (g.nodes, g.edges) == oracle_coauthor_edges(papers, uses, cutoff)
                seen["tie_cutoff"] += ranks.count(cutoff) > 1
                seen["edge"] += len(g.edges)
                users = set(g.nodes)
                seen["non_user_coauthor"] += any(
                    r < cutoff and len(users & set(a)) not in (0, len(a)) for r, a in papers
                )
            bylines = [tuple(sorted(a)) for _, a in papers if len(a) > 1]
            seen["repeated_joint"] += len(bylines) - len(set(bylines))
            seen["single_author"] += sum(1 for _, a in papers if len(a) == 1)
        assert all(seen.values()), seen

    def test_walk_from_two_authors_matches_their_components(self):
        """Each multi-author paper's first two authors at that paper: the
        graph is the oracle's whole graph cut down to their components."""
        rng = random.Random(2025)
        seen = dict.fromkeys(("smaller_than_whole", "beyond_the_two"), 0)
        for _ in range(250):
            corpus, tl = TestCoauthorGraphAgainstOracle.random_corpus(rng)
            index = CoauthorIndex(corpus)
            papers = [(rank_of(corpus, p.paper_id), p.authors) for p in corpus]
            uses = [(o.group_rank, o.authors) for o in tl.occurrences]
            for p in corpus:
                if len(p.authors) < 2:
                    continue
                cutoff = rank_of(corpus, p.paper_id)
                nodes, edges = oracle_coauthor_edges(papers, uses, cutoff)
                reached = {a for a in p.authors[:2] if a in nodes}
                grown = True
                while grown:
                    grown = False
                    for x, y in edges:
                        if (x in reached) != (y in reached):
                            reached |= {x, y}
                            grown = True
                g = coauthor_graph(tl, cutoff, index, p.authors[:2])
                assert g.nodes == tuple(sorted(reached))
                assert g.edges == tuple(e for e in edges if e[0] in reached)
                seen["smaller_than_whole"] += len(reached) < len(nodes)
                seen["beyond_the_two"] += len(reached) > 2
        assert all(seen.values()), seen


class TestFlexibilityAndPriorUses:
    def make(self, names):
        papers = [paper(f"p{i}", f"2000-01-{i+1:02d}", ["u"]) for i in range(len(names))]
        papers.append(paper("cut", "2000-02-01", ["u"]))
        corpus = corpus_of(*papers)
        tl = timeline(
            [(f"p{i}", rank_of(corpus, f"p{i}"), n, ["u"]) for i, n in enumerate(names)]
        )
        return corpus, tl

    def test_never_changed(self):
        corpus, tl = self.make(["\\A", "\\A", "\\A"])
        assert flexibility(tl, "u", rank_of(corpus, "cut")) == 0.0

    def test_always_changed(self):
        corpus, tl = self.make(["\\A", "\\B", "\\A"])
        assert flexibility(tl, "u", rank_of(corpus, "cut")) == 1.0

    def test_half_changed(self):
        corpus, tl = self.make(["\\A", "\\A", "\\B"])
        assert flexibility(tl, "u", rank_of(corpus, "cut")) == 0.5

    def test_single_use_zero(self):
        corpus, tl = self.make(["\\A"])
        assert flexibility(tl, "u", rank_of(corpus, "cut")) == 0.0

    def test_no_prior_use_error(self):
        corpus, tl = self.make(["\\A"])
        with pytest.raises(ValueError):
            flexibility(tl, "stranger", rank_of(corpus, "cut"))

    def test_prior_uses_counts(self):
        corpus, tl = self.make(["\\A", "\\B", "\\A"])
        cutoff = rank_of(corpus, "cut")
        assert len(tl.prior_positions("u", cutoff)) == 3
        assert tl.prior_positions("nobody", cutoff) == []

    def test_same_tie_group_use_not_counted(self):
        papers = [
            paper("early", "2000-01", ["u"]),
            paper("sametie", "2000-02", ["u"]),
            paper("query", "2000-02", ["u", "v"]),
        ]
        corpus = corpus_of(*papers)
        tl = timeline(
            [
                ("early", rank_of(corpus, "early"), "\\A", ["u"]),
                ("sametie", rank_of(corpus, "sametie"), "\\B", ["u"]),
            ]
        )
        # oracle: strict-order enumeration
        strict = [
            o for o in tl.occurrences if o.group_rank < rank_of(corpus, "query")
        ]
        assert len(tl.prior_positions("u", rank_of(corpus, "query"))) == len(strict) == 1

    def test_prior_positions_match_linear_filter(self, rng):
        pool = [f"w{k}" for k in range(6)]
        saw_tie = False
        for _ in range(300):
            entries = []
            rank = 0
            for i in range(rng.randint(0, 40)):
                rank += rng.choice((0, 0, 1, 2))  # repeated ranks share a tie group
                entries.append((f"q{i:03d}", rank, "\\n", rng.sample(pool, rng.randint(1, 3))))
            tl = timeline(entries)
            ranks = [o.group_rank for o in tl.occurrences]
            saw_tie |= len(set(ranks)) < len(ranks)
            cutoffs = {-1, 0, rank + 1, *ranks, *(r + 1 for r in ranks)}
            for author in pool + ["never used"]:
                for cutoff in cutoffs:
                    linear = [
                        i for i, o in enumerate(tl.occurrences)
                        if author in o.authors and o.group_rank < cutoff
                    ]
                    assert tl.prior_positions(author, cutoff) == linear
        assert saw_tie
