import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolens import fights as fights_module
from macrolens.analytics import betweenness
from macrolens.extraction import MacroDefinition
from macrolens.fights import (
    DEFAULT_BODY_FIGHT_NAMES,
    STYLE_NAMES,
    FightFilters,
    FightRecord,
    TitleFight,
    TitleFightFilters,
    TitleFightPair,
    balance_by_position,
    classify_title,
    detect_body_fights,
    detect_name_fights,
    detect_title_fights,
    dominance_by_gap,
    fight_feature_matrix,
    high_dominance_rate,
    match_title_fights,
    overall_older_win_rate,
    title_profile,
    win_rate_by_gap,
)
from macrolens.timelines import (
    CoauthorIndex,
    ExperienceLedger,
    build_name_timelines,
    build_timelines,
)

from conftest import corpus_of, paper

BODY = "\\mathbb{R}"  # 10 chars


def build(sketch):
    """sketch: list of (pid, date, authors, defs) with defs=[(name, body)]."""
    papers = []
    definitions = {}
    for pid, date, authors, defs in sketch:
        papers.append(paper(pid, date, list(authors), title=f"Title {pid}"))
        if defs:
            definitions[pid] = [
                MacroDefinition(paper_id=pid, name=n, body=b, command="def", offset=i)
                for i, (n, b) in enumerate(defs)
            ]
    corpus = corpus_of(*papers)
    ledger = ExperienceLedger(corpus)
    timelines = build_timelines(corpus, definitions)
    return corpus, definitions, ledger, timelines


LOOSE = FightFilters(min_distinct_authors=1, min_shared_len=1)


class TestNameFights:
    def basic_sketch(self, joint_defs):
        return [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-01-03", ["a", "b"], joint_defs),
        ]

    def test_winner_is_whose_name_sticks(self):
        corpus, defs, ledger, tls = build(self.basic_sketch([("\\R", BODY)]))
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        assert len(fights) == 1
        f = fights[0]
        assert (f.author_a, f.author_b) == ("a", "b")
        assert (f.variant_a, f.variant_b) == ("\\Reals", "\\R")
        assert f.winner == 1  # b's name was used
        assert (f.exp_a, f.exp_b) == (1, 1)

    def test_third_name_no_fight(self):
        corpus, defs, ledger, tls = build(self.basic_sketch([("\\RR", BODY)]))
        assert detect_name_fights(corpus, tls, ledger, LOOSE) == []

    def test_same_pair_fights_once_earliest_kept(self):
        sketch = self.basic_sketch([("\\R", BODY)]) + [
            ("pa2", "2000-02-01", ["a"], [("\\Reals", BODY)]),
            ("pb2", "2000-02-02", ["b"], [("\\R", BODY)]),
            ("pj2", "2000-02-03", ["a", "b"], [("\\Reals", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        # oracle replay of the dedup rule: both papers qualify, keep earliest
        assert [f.paper_id for f in fights] == ["pj"]

    def test_min_distinct_authors_filter(self):
        corpus, defs, ledger, tls = build(self.basic_sketch([("\\R", BODY)]))
        strict = FightFilters(min_distinct_authors=30, min_shared_len=1)
        assert detect_name_fights(corpus, tls, ledger, strict) == []

    def test_min_body_length_filter(self):
        short = "\\x{}"  # 4 chars
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", short)]),
            ("pb", "2000-01-02", ["b"], [("\\R", short)]),
            ("pj", "2000-01-03", ["a", "b"], [("\\R", short)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        assert detect_name_fights(corpus, tls, ledger, FightFilters(1, 10)) == []
        assert len(detect_name_fights(corpus, tls, ledger, FightFilters(1, 1))) == 1

    def test_month_granular_ambiguity_discarded(self):
        # the joint paper shares a month bucket with another paper by a
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-03", ["a", "b"], [("\\R", BODY)]),
            ("pa2", "2000-03", ["a"], []),
        ]
        corpus, defs, ledger, tls = build(sketch)
        assert detect_name_fights(corpus, tls, ledger, LOOSE) == []

    def test_ambiguous_prior_use_discarded(self):
        # a's most recent prior use shares its month with another a paper
        sketch = [
            ("pa", "2000-01", ["a"], [("\\Reals", BODY)]),
            ("pa2", "2000-01", ["a"], []),
            ("pb", "2000-02-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-03-03", ["a", "b"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        assert detect_name_fights(corpus, tls, ledger, LOOSE) == []

    def test_three_author_paper_ignored(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-01-03", ["a", "b", "c"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        assert detect_name_fights(corpus, tls, ledger, LOOSE) == []

    def test_three_author_variant_uses_second_and_third(self):
        sketch = [
            ("pb", "2000-01-01", ["b"], [("\\Reals", BODY)]),
            ("pc", "2000-01-02", ["c"], [("\\R", BODY)]),
            ("pj", "2000-01-03", ["lead", "b", "c"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        variant = FightFilters(min_distinct_authors=1, min_shared_len=1, three_author=True)
        fights_found = detect_name_fights(corpus, tls, ledger, variant)
        assert len(fights_found) == 1
        f = fights_found[0]
        assert (f.author_a, f.author_b) == ("b", "c")
        assert f.winner == 1  # c's name was used
        # two-author papers are excluded under the variant
        assert detect_name_fights(corpus, tls, ledger, LOOSE) == []

    def test_emitted_records_satisfy_all_conditions(self):
        # post-hoc validator: re-check (i)-(iv) and filters independently
        rng = random.Random(9)
        sketch = []
        day = [0]

        def date():
            day[0] += 1
            return f"20{day[0] // 330 + 1:02d}-{(day[0] // 28) % 12 + 1:02d}-{day[0] % 28 + 1:02d}"

        names = ["\\na", "\\nb", "\\nc"]
        for i in range(30):
            sketch.append((f"s{i}", date(), [f"u{i % 10}"], [(rng.choice(names), BODY)]))
        for i in range(15):
            a, b = rng.sample(range(10), 2)
            sketch.append((f"j{i}", date(), [f"u{a}", f"u{b}"], [(rng.choice(names), BODY)]))
        corpus, defs, ledger, tls = build(sketch)
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        tl = tls[("", BODY)]
        for f in fights:
            p = corpus.get(f.paper_id)
            assert len(p.authors) == 2  # (i)
            rank = corpus.rank_of(f.paper_id)
            for author, variant in ((f.author_a, f.variant_a), (f.author_b, f.variant_b)):
                prior = [
                    o for o in tl.occurrences
                    if o.group_rank < rank and author in o.authors
                ]
                assert prior  # (ii)
                last_rank = max(o.group_rank for o in prior)
                recent_names = {o.name for o in prior if o.group_rank == last_rank}
                assert recent_names == {variant}  # (iii) most recent use
            assert f.variant_a != f.variant_b  # (iii)
            used = next(o.name for o in tl.occurrences if o.paper_id == f.paper_id)
            assert used in (f.variant_a, f.variant_b)  # (iv)
            assert used == (f.variant_a if f.winner == 0 else f.variant_b)


class TestBodyFights:
    def test_shared_name_different_bodies(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\eps", "\\epsilon")]),
            ("pb", "2000-01-02", ["b"], [("\\eps", "\\varepsilon")]),
            ("pj", "2000-01-03", ["a", "b"], [("\\eps", "\\varepsilon")]),
        ]
        corpus, defs, ledger, _ = build(sketch)
        name_tls = build_name_timelines(corpus, defs, whitelist=DEFAULT_BODY_FIGHT_NAMES)
        fights = detect_body_fights(name_tls, ledger, min_distinct_authors=1)
        assert len(fights) == 1
        f = fights[0]
        assert f.shared == "\\eps"
        assert f.winner == 1  # b's body prevails

    def test_non_whitelisted_name_ignored(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\zeta", "\\epsilon")]),
            ("pb", "2000-01-02", ["b"], [("\\zeta", "\\varepsilon")]),
            ("pj", "2000-01-03", ["a", "b"], [("\\zeta", "\\epsilon")]),
        ]
        corpus, defs, ledger, _ = build(sketch)
        name_tls = build_name_timelines(corpus, defs, whitelist=DEFAULT_BODY_FIGHT_NAMES)
        assert detect_body_fights(name_tls, ledger, min_distinct_authors=1) == []

    def test_role_swap_duality(self):
        rng = random.Random(4)
        pool = [("\\alpha", "\\mathbb{A}"), ("\\beta", "\\mathbb{A}"),
                ("\\alpha", "\\mathbb{B}"), ("\\gamma", "\\mathbb{B}")]
        sketch = []
        day = 0
        for i in range(60):
            day += 1
            n_auth = rng.choice((1, 1, 2))
            authors = rng.sample([f"w{k}" for k in range(12)], n_auth)
            defs = [rng.choice(pool)]
            sketch.append((f"r{i}", f"2001-{day // 28 + 1:02d}-{day % 28 + 1:02d}", authors, defs))
        corpus, defs, ledger, tls = build(sketch)
        name_fights = detect_name_fights(
            corpus, tls, ledger, FightFilters(min_distinct_authors=1, min_shared_len=0)
        )
        swapped = {
            pid: [
                MacroDefinition(paper_id=pid, name=d.body, body=d.name,
                                command="def", offset=d.offset)
                for d in dlist
            ]
            for pid, dlist in defs.items()
        }
        body_fights = detect_body_fights(
            build_name_timelines(corpus, swapped), ledger, min_distinct_authors=1
        )
        as_tuple = lambda f: (
            f.paper_id, f.author_a, f.author_b, f.shared,
            f.variant_a, f.variant_b, f.winner, f.exp_a, f.exp_b,
        )
        assert [as_tuple(f) for f in name_fights] == [as_tuple(f) for f in body_fights]
        assert name_fights  # the comparison is not vacuous


class TestBalanceAndGapTables:
    def make_fights(self, rng, n=500, younger_win=0.7):
        fights = []
        for i in range(n):
            exp_y = rng.randint(1, 5)
            exp_o = exp_y + rng.randint(1, 30)
            young_first = rng.random() < 0.5
            younger_wins = rng.random() < younger_win
            winner_is_first = younger_wins == young_first
            fights.append(
                FightRecord(
                    kind="name",
                    paper_id=f"f{i}",
                    group_rank=i,
                    author_a="y" if young_first else "o",
                    author_b="o" if young_first else "y",
                    shared_key=("", BODY),
                    shared=BODY,
                    variant_a="\\a",
                    variant_b="\\b",
                    winner=0 if winner_is_first else 1,
                    exp_a=exp_y if young_first else exp_o,
                    exp_b=exp_o if young_first else exp_y,
                )
            )
        return fights

    def test_balance_equalizes_position_wins(self, rng):
        fights = self.make_fights(rng)
        balanced = balance_by_position(fights, seed=0)
        first = sum(1 for f in balanced if f.winner == 0)
        assert first * 2 == len(balanced)

    def test_balance_only_selects(self, rng):
        fights = self.make_fights(rng, n=100)
        balanced = balance_by_position(fights, seed=0)
        originals = {f.paper_id: f for f in fights}
        for f in balanced:
            assert originals[f.paper_id] == f

    def test_all_younger_wins_rates_zero(self, rng):
        fights = self.make_fights(rng, n=200, younger_win=1.0)
        rows = win_rate_by_gap(fights, seed=0)
        for row in rows:
            if row.rate is not None:
                assert row.rate == 0.0

    def test_planted_rate_recovered(self, rng):
        fights = self.make_fights(rng, n=2000, younger_win=0.7)
        rate, wins, n = overall_older_win_rate(fights, seed=0)
        assert rate == pytest.approx(0.30, abs=0.04)

    def test_zero_gap_bucket_separate(self):
        f = FightRecord(
            kind="name", paper_id="f", group_rank=0, author_a="a", author_b="b",
            shared_key=("", BODY), shared=BODY, variant_a="\\a", variant_b="\\b",
            winner=0, exp_a=4, exp_b=4,
        )
        rows = win_rate_by_gap([f, f.__class__(**{**f.__dict__, "paper_id": "g", "winner": 1})], seed=0)
        zero = rows[0]
        assert zero.lo == 0 and zero.n == 2 and zero.rate is None

    def test_empty_bucket_reported(self, rng):
        fights = self.make_fights(rng, n=10)
        rows = win_rate_by_gap(fights, bucket_edges=(1, 1000), seed=0)
        assert rows[-1].n == 0 and rows[-1].rate is None


class TestFightFeatures:
    def star_corpus(self):
        sketch = [
            ("p0", "2000-01-01", ["u0"], [("\\A", BODY)]),
            ("p1", "2000-01-02", ["u1"], [("\\B", BODY)]),
            ("p2", "2000-01-03", ["u2"], [("\\A", BODY)]),
            ("p3", "2000-01-04", ["u3"], [("\\A", BODY)]),
            ("p4", "2000-01-05", ["u4"], [("\\A", BODY)]),
            ("j1", "2000-02-01", ["u0", "u1"], []),
            ("j2", "2000-02-02", ["u0", "u2"], []),
            ("j3", "2000-02-03", ["u0", "u3"], []),
            ("j4", "2000-02-04", ["u0", "u4"], []),
            ("fight", "2000-03-01", ["u0", "u1"], [("\\A", BODY)]),
        ]
        return build(sketch)

    def test_star_center_betweenness(self):
        corpus, defs, ledger, tls = self.star_corpus()
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        assert len(fights) == 1
        matrix = fight_feature_matrix(fights, tls, corpus, ledger, CoauthorIndex(corpus))
        row = dict(zip(matrix.columns, matrix.X[0]))
        # brute-force: star on 5 users, center routes C(4,2)=6 pairs
        assert row["betweenness_1"] == pytest.approx(6.0)
        assert row["betweenness_2"] == pytest.approx(0.0)
        assert row["degree_1"] == 4.0 and row["degree_2"] == 1.0
        assert row["body_len"] == float(len(BODY))
        assert int(matrix.y[0]) == 0  # first author's name won

    def test_isolated_author_zero_graph_features(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-01-03", ["a", "b"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        matrix = fight_feature_matrix(fights, tls, corpus, ledger, CoauthorIndex(corpus))
        row = dict(zip(matrix.columns, matrix.X[0]))
        assert row["degree_1"] == 0.0 and row["betweenness_1"] == 0.0

    def test_label_one_when_second_author_wins(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-01-03", ["a", "b"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        matrix = fight_feature_matrix(fights, tls, corpus, ledger, CoauthorIndex(corpus))
        assert int(matrix.y[0]) == 1

    def test_no_pair_tests_and_betweenness_sees_fighters_component_only(self, monkeypatch):
        """2,000 prior single-author users: an all-pairs graph would make
        about two million pair tests; the graph and betweenness stay
        proportional to the co-author lists and the fighters' component."""
        sketch = [
            (f"s{i:04d}", "2000-01-01", [f"user {i:04d}"], [("\\R", BODY)]) for i in range(2000)
        ]
        sketch += [
            ("pab", "2000-02-01", ["a", "b"], []),
            ("pa", "2000-02-02", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-02-03", ["b"], [("\\R", BODY)]),
            ("pj", "2000-03-01", ["a", "b"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        assert [f.paper_id for f in fights] == ["pj"]

        def no_pair_tests(*args):
            raise AssertionError("coauthored_before called")

        sizes = []

        def recorded(adj):
            sizes.append(sorted(adj))
            return betweenness(adj)

        monkeypatch.setattr(CoauthorIndex, "coauthored_before", no_pair_tests)
        monkeypatch.setattr(fights_module, "betweenness", recorded)
        matrix = fight_feature_matrix(fights, tls, corpus, ledger, CoauthorIndex(corpus))
        assert sizes == [["a", "b"]]
        row = dict(zip(matrix.columns, matrix.X[0]))
        assert row["degree_1"] == row["degree_2"] == 1.0


FIRST_WORD_STYLES = ("first_noun", "first_verb", "first_adjective", "first_determiner")


class TestClassifyTitle:
    def test_colon_and_noun(self):
        style = classify_title("Diffusion of Conventions: A Case Study")
        assert {"colon", "first_noun"} <= style
        assert "question_mark" not in style

    def test_question_math_verb(self):
        style = classify_title("Is $P=NP$?")
        assert {"question_mark", "math", "first_verb"} <= style

    def test_determiner(self):
        style = classify_title("The evolution of conventions")
        assert "first_determiner" in style and "math" not in style

    def test_control_sequence_is_math(self):
        assert "math" in classify_title("On \\epsilon expansions")

    def test_unknown_first_word_all_false(self):
        style = classify_title("Xyzzy and friends")
        assert not style & set(FIRST_WORD_STYLES)

    # (title showing the style, title not showing it), one pair per style
    STYLE_EXAMPLES = {
        "colon": ("Diffusion: a study", "Diffusion as a study"),
        "question_mark": ("Diffusion as a study?", "Diffusion as a study"),
        "math": ("Diffusion in $\\mathbb{R}^n$", "Diffusion in space"),
        "first_noun": ("Diffusion of conventions", "The diffusion of conventions"),
        "first_verb": ("Is diffusion slow", "The diffusion is slow"),
        "first_adjective": ("Fast diffusion of conventions", "The fast diffusion"),
        "first_determiner": ("The diffusion of conventions", "Diffusion of conventions"),
    }

    @pytest.mark.parametrize("style", STYLE_NAMES)
    def test_every_style_name_is_reported(self, style):
        shows, lacks = self.STYLE_EXAMPLES[style]
        assert style in classify_title(shows)
        assert style not in classify_title(lacks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_title("")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzTHE $?:\\", min_size=1))
    @settings(max_examples=300)
    def test_first_word_classes_mutually_exclusive(self, title):
        if not title.strip():
            return
        assert len(classify_title(title) & set(FIRST_WORD_STYLES)) <= 1


class TestTitleProfile:
    def make(self):
        papers = [
            paper(f"s{i}", f"2000-01-{i+1:02d}", ["w"],
                  title=("Results: part" if i < 3 else "Results of part"))
            for i in range(10)
        ]
        papers.append(paper("joint", "2001-01-01", ["w", "z"], title="Joint: work"))
        corpus = corpus_of(*papers)
        return corpus, ExperienceLedger(corpus)

    def test_fraction(self):
        _, ledger = self.make()
        assert title_profile(ledger, "w", "colon", exclude_coauthor="z") == pytest.approx(0.3)

    def test_all_positive(self):
        papers = [paper(f"s{i}", f"2000-01-{i+1:02d}", ["w"], title="A: b") for i in range(4)]
        corpus = corpus_of(*papers)
        ledger = ExperienceLedger(corpus)
        assert title_profile(ledger, "w", "colon", exclude_coauthor="z") == 1.0

    def test_joint_papers_excluded_from_both_sides(self):
        corpus, ledger = self.make()
        # oracle recompute from raw lists
        eligible = [p for p in ledger.papers_of("w") if "z" not in p.authors]
        expected = sum(1 for p in eligible if ":" in p.title) / len(eligible)
        assert title_profile(ledger, "w", "colon", exclude_coauthor="z") == pytest.approx(expected)

    def test_no_eligible_papers_error(self):
        corpus, ledger = self.make()
        with pytest.raises(ValueError):
            title_profile(ledger, "nobody", "colon", exclude_coauthor="z")


def title_corpus(first_collab_extra=(), y_titles=3, o_titles=5):
    """Younger 'y' with 6 solo papers (y_titles colons), older 'o' with
    10 solo papers (o_titles colons), then a first collaboration+extra."""
    papers = []
    for i in range(6):
        papers.append(
            paper(f"y{i}", f"2000-01-{i+1:02d}", ["y"],
                  title=("Alpha: y" if i < y_titles else "Alpha y") + str(i))
        )
    for i in range(10):
        papers.append(
            paper(f"o{i}", f"2000-02-{i+1:02d}", ["o"],
                  title=("Beta: o" if i < o_titles else "Beta o") + str(i))
        )
    papers.append(paper("collab", "2001-01-01", ["y", "o"], title="Gamma: joint"))
    for pid, date, authors, title in first_collab_extra:
        papers.append(paper(pid, date, authors, title=title))
    return corpus_of(*papers)


SMALL_TITLE_FILTERS = TitleFightFilters(older_exp_threshold=5, min_younger_papers=3)


def colon_fights(corpus, filters):
    return detect_title_fights(
        corpus, "colon", ExperienceLedger(corpus), CoauthorIndex(corpus), filters
    )


class TestDetectTitleFights:
    def test_qualifying_first_collaboration(self):
        corpus = title_corpus()
        fights = colon_fights(corpus, SMALL_TITLE_FILTERS)
        assert len(fights) == 1
        f = fights[0]
        assert (f.younger, f.older) == ("y", "o")
        assert (f.exp_younger, f.exp_older) == (6, 10)
        assert f.profile_younger == pytest.approx(3 / 6)
        assert f.profile_older == pytest.approx(5 / 10)
        assert f.indicator == 1  # "Gamma: joint" has a colon

    def test_repeat_collaborators_excluded(self):
        corpus = title_corpus(
            first_collab_extra=[("collab2", "2002-01-01", ["y", "o"], "Delta: again")]
        )
        fights = colon_fights(corpus, SMALL_TITLE_FILTERS)
        assert [f.paper_id for f in fights] == ["collab"]

    def test_young_author_with_too_few_papers_excluded(self):
        corpus = title_corpus()
        strict = TitleFightFilters(older_exp_threshold=5, min_younger_papers=10)
        assert colon_fights(corpus, strict) == []

    def test_older_experience_threshold(self):
        corpus = title_corpus()
        strict = TitleFightFilters(older_exp_threshold=20, min_younger_papers=3)
        assert colon_fights(corpus, strict) == []


def tf(pid, p_y, p_o, indicator, e_y=5, e_o=15, rank=0):
    return TitleFight(
        style="colon", paper_id=pid, group_rank=rank, younger="y" + pid, older="o" + pid,
        exp_younger=e_y, exp_older=e_o, profile_younger=p_y, profile_older=p_o,
        indicator=indicator,
    )


class TestMatchTitleFights:
    def test_exact_swap_matches(self):
        a = tf("a", 0.7, 0.2, 1)
        b = tf("b", 0.2, 0.7, 0)
        pairs, unmatched = match_title_fights([a, b])
        assert len(pairs) == 1 and unmatched == 0

    def test_equal_indicators_never_match(self):
        a = tf("a", 0.7, 0.2, 1)
        b = tf("b", 0.2, 0.7, 1)
        pairs, unmatched = match_title_fights([a, b])
        assert pairs == [] and unmatched == 2

    def test_tolerance_respected(self):
        a = tf("a", 0.7, 0.2, 1)
        b = tf("b", 0.2, 0.8, 0)  # profile gap 0.1 > 0.05
        pairs, unmatched = match_title_fights([a, b], tolerance=0.05)
        assert pairs == []
        pairs, _ = match_title_fights([a, b], tolerance=0.15)
        assert len(pairs) == 1

    def test_verdict_symmetric_in_member_order(self):
        a = tf("a", 0.7, 0.2, 1)
        b = tf("b", 0.2, 0.7, 0)
        assert TitleFightPair(a, b).verdict() == TitleFightPair(b, a).verdict() == "low"

    def test_verdict_high(self):
        a = tf("a", 0.7, 0.2, 0)
        b = tf("b", 0.2, 0.7, 1)
        assert TitleFightPair(a, b).verdict() == "high"


class TestDominance:
    def test_all_high_rate_one(self):
        pairs = [
            TitleFightPair(tf(f"a{i}", 0.6, 0.3, 0, e_o=10 + i), tf(f"b{i}", 0.3, 0.6, 1, e_o=10 + i))
            for i in range(10)
        ]
        rate, highs, n = high_dominance_rate(pairs)
        assert rate == 1.0
        rows = dominance_by_gap(pairs)
        for row in rows:
            if row.n:
                assert row.rate == 1.0

    def test_uniform_random_near_half(self, rng):
        pairs = []
        for i in range(600):
            high = rng.random() < 0.5
            ind = 0 if high else 1
            pairs.append(
                TitleFightPair(tf(f"a{i}", 0.6, 0.3, ind), tf(f"b{i}", 0.3, 0.6, 1 - ind))
            )
        rate, _, _ = high_dominance_rate(pairs)
        assert rate == pytest.approx(0.5, abs=0.07)

    def test_empty_bucket_zero_n(self):
        pairs = [TitleFightPair(tf("a", 0.6, 0.3, 0, e_o=6), tf("b", 0.3, 0.6, 1, e_o=6))]
        rows = dominance_by_gap(pairs, bucket_edges=(1, 1000))
        assert rows[-1].n == 0 and rows[-1].rate is None

    def test_pair_bucketed_by_mean_gap(self):
        p = TitleFightPair(tf("a", 0.6, 0.3, 0, e_y=5, e_o=9), tf("b", 0.3, 0.6, 1, e_y=5, e_o=13))
        assert p.mean_gap == 6.0
        rows = dominance_by_gap([p], bucket_edges=(1, 6, 100))
        hit = [r for r in rows if r.n == 1]
        assert len(hit) == 1 and hit[0].lo == 6
