import json
import random
import re
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolens import analytics, synth
from macrolens import fights as fights_module
from macrolens.analytics import betweenness
from macrolens.extraction import MacroDefinition
from macrolens.fights import (
    DEFAULT_BODY_FIGHT_NAMES,
    FIGHT_FEATURE_COLUMNS,
    STYLE_NAMES,
    TitleLexicon,
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
    match_title_fights,
    win_rate_by_gap,
)
from macrolens.timelines import (
    CoauthorIndex,
    ExperienceLedger,
    build_name_timelines,
    build_timelines,
)

from conftest import corpus_of, paper
from headline import high_dominance_rate, overall_older_win_rate
from record_corpus import rank_of

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

    def test_one_paper_two_bodies_lower_key_kept_in_any_order(self):
        other = "\\mathbb{Z}"
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY), ("\\Ints", other)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY), ("\\Z", other)]),
            ("pj", "2000-01-03", ["a", "b"], [("\\R", BODY), ("\\Z", other)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        for mapping in (tls, dict(reversed(tls.items()))):
            fights = detect_name_fights(corpus, mapping, ledger, LOOSE)
            assert [f.shared_key for f in fights] == [("", BODY)]

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
            p = next(p for p in corpus if p.paper_id == f.paper_id)
            assert len(p.authors) == 2  # (i)
            rank = rank_of(corpus, f.paper_id)
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
        fights = detect_body_fights(name_tls, ledger, FightFilters(min_distinct_authors=1))
        assert len(fights) == 1
        f = fights[0]
        assert f.shared_key == ("", "\\eps")
        assert f.winner == 1  # b's body prevails

    def test_non_whitelisted_name_ignored(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\zeta", "\\epsilon")]),
            ("pb", "2000-01-02", ["b"], [("\\zeta", "\\varepsilon")]),
            ("pj", "2000-01-03", ["a", "b"], [("\\zeta", "\\epsilon")]),
        ]
        corpus, defs, ledger, _ = build(sketch)
        name_tls = build_name_timelines(corpus, defs, whitelist=DEFAULT_BODY_FIGHT_NAMES)
        assert detect_body_fights(name_tls, ledger, FightFilters(min_distinct_authors=1)) == []

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
        names = {d.name for dlist in swapped.values() for d in dlist}
        body_fights = detect_body_fights(
            build_name_timelines(corpus, swapped, names), ledger,
            FightFilters(min_distinct_authors=1),
        )
        as_tuple = lambda f: (
            f.paper_id, f.author_a, f.author_b, f.shared_key,
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
                    paper_id=f"f{i}",
                    group_rank=i,
                    author_a="y" if young_first else "o",
                    author_b="o" if young_first else "y",
                    shared_key=("", BODY),
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
            paper_id="f", group_rank=0, author_a="a", author_b="b",
            shared_key=("", BODY), variant_a="\\a", variant_b="\\b",
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
        rows = fight_feature_matrix(fights, tls, corpus, ledger, CoauthorIndex(corpus))
        row = dict(zip(FIGHT_FEATURE_COLUMNS, rows[0]))
        # brute-force: star on 5 users, center routes C(4,2)=6 pairs
        assert row["betweenness_1"] == pytest.approx(6.0)
        assert row["betweenness_2"] == pytest.approx(0.0)
        assert row["degree_1"] == 4.0 and row["degree_2"] == 1.0
        assert row["body_len"] == float(len(BODY))
        assert rows[0][-1] == 0  # first author's name won

    def test_isolated_author_zero_graph_features(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-01-03", ["a", "b"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        rows = fight_feature_matrix(fights, tls, corpus, ledger, CoauthorIndex(corpus))
        row = dict(zip(FIGHT_FEATURE_COLUMNS, rows[0]))
        assert row["degree_1"] == 0.0 and row["betweenness_1"] == 0.0

    def test_label_one_when_second_author_wins(self):
        sketch = [
            ("pa", "2000-01-01", ["a"], [("\\Reals", BODY)]),
            ("pb", "2000-01-02", ["b"], [("\\R", BODY)]),
            ("pj", "2000-01-03", ["a", "b"], [("\\R", BODY)]),
        ]
        corpus, defs, ledger, tls = build(sketch)
        fights = detect_name_fights(corpus, tls, ledger, LOOSE)
        rows = fight_feature_matrix(fights, tls, corpus, ledger, CoauthorIndex(corpus))
        assert rows[0][-1] == 1

    def test_rows_are_plain_floats_then_an_int_label(self):
        """The table writer takes the rows as they stand: exact ``float``
        features (no numpy scalars), then the winner as an exact ``int``.
        Body fights read the name timelines under their own keys."""
        corpus, _, ledger, tls = self.star_corpus()
        cases = [(detect_name_fights(corpus, tls, ledger, LOOSE), tls, corpus, ledger)]
        corpus, defs, ledger, _ = build([
            ("pa", "2000-01-01", ["a"], [("\\eps", "\\epsilon")]),
            ("pb", "2000-01-02", ["b"], [("\\eps", "\\varepsilon")]),
            ("pj", "2000-01-03", ["a", "b"], [("\\eps", "\\varepsilon")]),
        ])
        name_tls = build_name_timelines(corpus, defs, DEFAULT_BODY_FIGHT_NAMES)
        cases.append((detect_body_fights(name_tls, ledger, FightFilters(min_distinct_authors=1)),
                      name_tls, corpus, ledger))
        for fights, timelines, corpus, ledger in cases:
            rows = fight_feature_matrix(fights, timelines, corpus, ledger, CoauthorIndex(corpus))
            assert len(rows) == len(fights) == 1
            for row, fight in zip(rows, fights):
                assert list(map(type, row)) == [float] * len(FIGHT_FEATURE_COLUMNS) + [int]
                assert row[-1] == fight.winner

    def test_no_pair_tests_and_betweenness_sees_fighters_component_only(self, monkeypatch):
        """2,000 prior single-author users: an all-pairs graph would make
        about two million pair tests, and a whole prior-user graph reads
        2,002 co-author lists; the walk reads the two fighters' lists, and
        betweenness sees only their component."""
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

        lists_read = []
        index = CoauthorIndex(corpus)
        neighbours = index.neighbours

        def counted(author):
            lists_read.append(author)
            return neighbours(author)

        monkeypatch.setattr(CoauthorIndex, "coauthored_before", no_pair_tests)
        monkeypatch.setattr(analytics, "betweenness", recorded)
        monkeypatch.setattr(index, "neighbours", counted)
        rows = fight_feature_matrix(fights, tls, corpus, ledger, index)
        assert sizes == [["a", "b"]]
        assert sorted(lists_read) == ["a", "b"]
        row = dict(zip(FIGHT_FEATURE_COLUMNS, rows[0]))
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

    def test_lexicon_entries_match_in_any_case(self):
        lexicon = TitleLexicon({"determiners": ["The"], "verbs": [], "adjectives": [],
                                "nouns": [], "noun_suffixes": ["aTION"]})
        assert classify_title("The world", lexicon) == {"first_determiner"}
        assert classify_title("the world", lexicon) == {"first_determiner"}
        assert classify_title("VARIATION of things", lexicon) == {"first_noun"}


class _FormerLexicon(TitleLexicon):
    """The rules as they were written before the word and suffix tables:
    four word sets tested in (determiner, verb, adjective, noun) order,
    then every suffix in (longest first, noun, adjective, verb) order."""

    def __init__(self, data):
        super().__init__(data)
        self.determiners = frozenset(data["determiners"])
        self.verbs = frozenset(data["verbs"])
        self.adjectives = frozenset(data["adjectives"])
        self.nouns = frozenset(data["nouns"])
        self.suffixes = []
        for cls, key in (
            ("noun", "noun_suffixes"),
            ("verb", "verb_suffixes"),
            ("adjective", "adjective_suffixes"),
        ):
            for suf in data.get(key, []):
                self.suffixes.append((suf, cls))
        order = {"noun": 0, "adjective": 1, "verb": 2}
        self.suffixes.sort(key=lambda sc: (-len(sc[0]), order[sc[1]]))

    def first_word_class(self, word):
        word = word.casefold()
        for words, cls in ((self.determiners, "determiner"), (self.verbs, "verb"),
                           (self.adjectives, "adjective"), (self.nouns, "noun")):
            if word in words:
                return cls
        if len(word) >= 5:
            for suf, cls in self.suffixes:
                if word.endswith(suf) and len(word) > len(suf) + 1:
                    return cls
        return None


def _former_first_word(title):
    tokens = title.split()
    if not tokens:
        return None
    word = tokens[0].strip("$\\{}()[]\"'`.,:;!?*~^_-")
    if word and all(("a" <= c <= "z") or ("A" <= c <= "Z") for c in word):
        return word
    return None


_FORMER_MATH_RE = re.compile(r"\$|\\[A-Za-z]+|\\[^A-Za-z\s]")


def _former_flags(title):
    """The punctuation and math styles as the former code scanned them."""
    flags = {"colon": ":" in title, "question_mark": "?" in title,
             "math": _FORMER_MATH_RE.search(title) is not None}
    return {style for style, shown in flags.items() if shown}


class TestClassificationAgainstFormerCode:
    """The suffix table and the first-word test give exactly the classes
    of the former code, and the punctuation and math tests its flags, on
    the packaged lexicon and on a custom one with a suffix shared by
    classes and an empty suffix.  Each style's own test, reused over every
    title as detection reuses it, agrees with ``classify_title``."""

    PACKAGED = json.loads(
        resources.files("macrolens.data").joinpath("title_lexicon.json").read_text(encoding="utf-8")
    )
    CUSTOM = {
        "determiners": ["the"], "verbs": ["is"], "adjectives": [], "nouns": ["tion"],
        "noun_suffixes": ["al", "tion", "ation", "al"],
        "verb_suffixes": ["al", "", "ize", "ation"],
        "adjective_suffixes": ["ation", "ical", "al", "ic"],
    }
    CHARS = "aeiolnstzAZ  :$?-.({\\'\u00e9\u00df\ufb01\u0130"

    def _words(self, data, rng):
        vocab = [w for key in ("determiners", "verbs", "adjectives", "nouns") for w in data[key]]
        suffixes = [s for key in data if key.endswith("_suffixes") for s in data[key]]
        words = list(vocab) + suffixes
        for suf in suffixes:
            for stem in ("", "a", "xy", "abc", "word", "Stems", "\u00dfa"):
                words.append(stem + suf)
        for _ in range(3000):
            parts = rng.choices(vocab + suffixes + ["x", "re", "un", "ß"], k=rng.randint(1, 3))
            word = "".join(parts)
            words.append(word.upper() if rng.random() < 0.2 else word)
        return words

    def _titles(self, words, rng):
        titles = list(words)
        for _ in range(3000):
            titles.append("".join(rng.choices(self.CHARS, k=rng.randint(1, 12))))
            lead = "".join(rng.choices("$\\{(\"'` ", k=rng.randint(0, 2)))
            titles.append(lead + rng.choice(words) + rng.choice(["", ":", ".", " of", "? x", "\t"]))
        config = synth.SynthConfig(seed=3, preset="full", n_changeover_pairs=1,
                                   n_name_fights=2, n_body_fights=2, n_title_pairs=4)
        titles += [r["title"] for r in synth.generate(config).records]
        return [t for t in titles if t]

    @pytest.mark.parametrize("which", ["packaged", "custom"])
    def test_same_classes(self, which):
        data = self.PACKAGED if which == "packaged" else self.CUSTOM
        rng = random.Random(13)
        lexicon, former = TitleLexicon(data), _FormerLexicon(data)
        words = self._words(data, rng)
        seen = Counter(former.first_word_class(w) for w in words)
        for word in words:
            assert lexicon.first_word_class(word) == former.first_word_class(word), word
        tests = {style: fights_module._style_test(style, lexicon) for style in STYLE_NAMES}
        for title in self._titles(words, rng):
            word = _former_first_word(title)
            former_cls = former.first_word_class(word) if word else None
            expected = {f"first_{former_cls}"} if former_cls else set()
            expected |= _former_flags(title)
            got = classify_title(title, lexicon)
            assert got == expected, title
            assert {style for style, test in tests.items() if test(title)} == got, title
            seen["titles with a first word"] += word is not None
            seen.update(_former_flags(title), titles=1)
        assert seen["titles with a first word"] > 1000
        for flag in ("colon", "question_mark", "math"):  # each shown and not shown often
            assert 1000 < seen[flag] < seen["titles"] - 1000, (flag, seen)
        for cls in ("noun", "verb", "adjective", "determiner", None):
            assert seen[cls] > 0, (cls, seen)
        if which == "custom":
            # the shared suffixes keep the class order: "...ation" is a noun
            # and "...al" a noun; the empty suffix makes other words verbs
            assert former.first_word_class("variation") == "noun"
            assert former.first_word_class("nominal") == "noun"
            assert former.first_word_class("blurb") == "verb"


class TestTitleProfile:
    """The profiles of :func:`detect_title_fights`: each author's share of
    their titled papers without the other author that show the style."""

    FILTERS = TitleFightFilters(older_exp_threshold=1, min_younger_papers=1)

    def make(self, w_titles=None, z_titles=("Solo z",), extra=()):
        """Older 'w' with 10 solo papers (3 colons by default), younger
        'z' with one solo paper per title, then their first collaboration."""
        w_titles = w_titles or ["Results: part" if i < 3 else "Results of part" for i in range(10)]
        papers = [paper(f"s{i}", f"2000-01-{i+1:02d}", ["w"], title=t)
                  for i, t in enumerate(w_titles)]
        papers += [paper(f"z{i}", f"2000-02-{i+1:02d}", ["z"], title=t)
                   for i, t in enumerate(z_titles)]
        papers.append(paper("joint", "2001-01-01", ["w", "z"], title="Joint: work"))
        return corpus_of(*papers, *extra)

    def fights(self, corpus, filters=FILTERS):
        return detect_title_fights(corpus, "colon", ExperienceLedger(corpus), filters)

    def test_fraction(self):
        (f,) = self.fights(self.make())
        assert (f.paper_id, f.younger, f.older) == ("joint", "z", "w")
        assert f.profile_older == pytest.approx(0.3)
        assert f.profile_younger == 0.0

    def test_all_positive(self):
        (f,) = self.fights(self.make(w_titles=["A: b"] * 4, z_titles=["A: c"]))
        assert f.profile_older == f.profile_younger == 1.0

    def test_joint_papers_excluded_from_both_sides(self):
        extra = [
            paper("again", "2002-01-01", ["w", "z"], title="Again: joint"),
            paper("trio", "2002-02-01", ["x", "z", "w"], title="Trio of authors"),
            paper("z untitled", "2002-03-01", ["z"], title=""),
            paper("z later", "2002-04-01", ["z"], title="Later: z"),
            paper("w with x", "2002-05-01", ["w", "x"], title="With x: w"),
        ]
        corpus = self.make(extra=extra)
        (f,) = self.fights(corpus)
        assert f.paper_id == "joint"
        # oracle recompute from raw lists
        records = list(corpus)

        def share(author, other):
            eligible = [p for p in records if author in p.authors and other not in p.authors
                        and p.title]
            return sum(1 for p in eligible if ":" in p.title) / len(eligible)

        assert f.profile_older == pytest.approx(share("w", "z")) == pytest.approx(4 / 11)
        assert f.profile_younger == pytest.approx(share("z", "w")) == pytest.approx(1 / 2)

    def test_no_eligible_papers_no_fight(self):
        # the older author's only titled paper is the joint one
        assert self.fights(self.make(w_titles=[""] * 10)) == []
        # the younger author has none, even when no minimum is asked for
        no_minimum = TitleFightFilters(older_exp_threshold=1, min_younger_papers=0)
        assert self.fights(self.make(z_titles=[""]), no_minimum) == []
        assert len(self.fights(self.make(), no_minimum)) == 1


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
    return detect_title_fights(corpus, "colon", ExperienceLedger(corpus), filters)


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

    def test_each_title_classified_once(self, monkeypatch):
        """An older author in four first collaborations: each titled
        paper is tested at most once, not once per collaboration; the
        lexicon is read at most once per distinct first word, and never
        for a style that is not a first-word class."""
        extra = []
        for k in range(3):
            extra += [(f"v{k}.{i}", f"2000-03-{3 * k + i + 1:02d}", [f"v{k}"], f"Eps: v{k}.{i}")
                      for i in range(3)]
            extra.append((f"collab v{k}", f"2001-0{k + 2}-01", [f"v{k}", "o"], f"Zeta v{k}"))
        corpus = title_corpus(first_collab_extra=extra)
        titles = [p.title for p in corpus if p.title]
        assert len(set(titles)) == len(titles) == 29
        first_words = {title.split()[0].strip(":") for title in titles}
        assert len(first_words) == 5
        tested, looked_up = [], []
        style_test, first_word_class = fights_module._style_test, TitleLexicon.first_word_class

        def counted_test(style, lexicon):
            test = style_test(style, lexicon)
            return lambda title: tested.append(title) or test(title)

        def counted_lookup(lexicon, word):
            looked_up.append(word)
            return first_word_class(lexicon, word)

        monkeypatch.setattr(fights_module, "_style_test", counted_test)
        monkeypatch.setattr(TitleLexicon, "first_word_class", counted_lookup)
        for style in ("colon", "first_noun"):
            tested.clear()
            looked_up.clear()
            fights = detect_title_fights(corpus, style, ExperienceLedger(corpus),
                                         SMALL_TITLE_FILTERS)
            assert [f.paper_id for f in fights] == [
                "collab", "collab v0", "collab v1", "collab v2"]
            assert len(tested) == len(set(tested)) <= len(titles)
            assert len(tested) > len(first_words)  # so a lookup per title would show
            if style == "colon":
                assert looked_up == []
            else:
                assert len(looked_up) == len(set(looked_up)) <= len(first_words)


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
