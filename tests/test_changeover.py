import random
import time

import pytest

from macrolens import changeover
from macrolens.changeover import (
    EXPERIENCE_SERIES,
    FEATURE_WINDOW_WIDTH,
    MATCH_PREVALENCE_TOL,
    MATCH_RATIO_HI,
    MATCH_RATIO_LO,
    MAX_WINDOWS,
    ChangeoverParams,
    ChangeoverRecord,
    ControlCandidate,
    MatchedPair,
    _feature_window_count,
    aggregate_median_curves,
    changeover_feature_columns,
    changeover_features,
    crossing_point,
    detect_changeover,
    experience_curves,
    find_control_candidates,
    match_pairs,
    most_used_name,
    name_shares,
    window_grid,
)
from macrolens.extraction import name_features
from macrolens.timelines import ExperienceLedger, interval, window_bounds

from conftest import corpus_of, paper, random_timeline, simple_timeline, timeline
from oracles import oracle_changeover
from record_corpus import rank_of


class TestParams:
    def test_defaults(self):
        p = ChangeoverParams()
        assert (p.s, p.q, p.theta, p.delta, p.persistence) == (100, 0.3, 0.3, 0.05, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChangeoverParams(q=0.9)
        with pytest.raises(ValueError):
            ChangeoverParams(s=0)
        with pytest.raises(ValueError):
            ChangeoverParams(delta=1.0)

    def test_delta_grid_bound(self):
        # 0.0001 gives exactly the largest grid; the check needs no grid
        assert len(window_grid(ChangeoverParams(delta=0.0001).delta)) == MAX_WINDOWS == 10_000
        for delta in (0.0000999, 1e-12):
            with pytest.raises(ValueError, match="^--delta .* more than 10000$"):
                ChangeoverParams(delta=delta)


class TestUsageFraction:
    """``name_shares``: every name's share of a window's authors."""

    def test_everyone_uses_it(self):
        tl = simple_timeline(["\\n", "\\n", "\\n"])
        assert name_shares(tl.occurrences) == {"\\n": 1.0}

    def test_disjoint_halves(self):
        tl = timeline(
            [("p1", 0, "\\a", ["u1"]), ("p2", 1, "\\a", ["u2"]),
             ("p3", 2, "\\b", ["u3"]), ("p4", 3, "\\b", ["u4"])]
        )
        assert name_shares(tl.occurrences) == {"\\a": 0.5, "\\b": 0.5}

    def test_first_occurrence_order(self):
        tl = simple_timeline(["\\z", "\\a", "\\z", "\\m", "\\a"])
        assert list(name_shares(tl.occurrences)) == ["\\z", "\\a", "\\m"]

    def test_window_without_authors_rejected(self):
        tl = timeline([("p1", 0, "\\a", [])])
        with pytest.raises(ValueError):
            name_shares(tl.occurrences)

    def test_overlapping_users_sum_above_one(self):
        # A and B use N, C uses M, B also uses M once
        tl = timeline(
            [
                ("p1", 0, "\\N", ["a"]),
                ("p2", 1, "\\N", ["b"]),
                ("p3", 2, "\\M", ["c"]),
                ("p4", 3, "\\M", ["b"]),
            ]
        )
        shares = name_shares(tl.occurrences)
        assert shares["\\N"] == pytest.approx(2 / 3)
        assert shares["\\M"] == pytest.approx(2 / 3)


def planted_changeover_timeline():
    """m=120: first 36 uses are 30 A + 6 B over 30 distinct authors,
    last 36 mirror it; middle alternates."""
    entries = []
    rank = 0

    def add(name, author):
        nonlocal rank
        entries.append((f"p{rank:04d}", rank, name, [author]))
        rank += 1

    for i in range(36):
        if i < 6:
            add("\\B", f"early {i % 30}")
        else:
            add("\\A", f"early {i % 30}")
    for i in range(48):
        add("\\A" if i % 2 else "\\B", f"mid {i}")
    for i in range(36):
        if i < 6:
            add("\\A", f"late {i % 30}")
        else:
            add("\\B", f"late {i % 30}")
    return timeline(entries)


class TestDetectChangeover:
    def test_single_name_none(self):
        tl = simple_timeline(["\\only"] * 150)
        assert detect_changeover(tl, ChangeoverParams()) is None

    def test_planted_example_detected(self):
        tl = planted_changeover_timeline()
        rec = detect_changeover(tl, ChangeoverParams())
        assert rec is not None
        assert (rec.early_name, rec.late_name) == ("\\A", "\\B")
        # brute-force oracle evaluates the four clauses directly
        ref = oracle_changeover(tl, 100, 0.3, 0.3)
        assert ref is not None and (ref.early_name, ref.late_name) == ("\\A", "\\B")

    def test_below_volume_floor(self):
        tl = planted_changeover_timeline()
        short = timeline(
            [(o.paper_id, o.group_rank, o.name, o.authors) for o in tl.occurrences[:80]]
        )
        assert detect_changeover(short, ChangeoverParams()) is None

    def test_neutral_renaming_invariance(self, rng):
        params = ChangeoverParams(s=20)
        for _ in range(50):
            tl = random_timeline(rng, m_range=(20, 120))
            rec = detect_changeover(tl, params)
            renamed = timeline(
                [
                    (o.paper_id, o.group_rank, o.name + "renamed", o.authors)
                    for o in tl.occurrences
                ],
                body=tl.key[1],
            )
            rec2 = detect_changeover(renamed, params)
            if rec is None:
                assert rec2 is None
            else:
                assert rec2 is not None
                assert rec2.early_name == rec.early_name + "renamed"
                assert rec2.late_name == rec.late_name + "renamed"

    def test_oracle_equivalence_sample(self, rng):
        params = ChangeoverParams(s=20)
        for _ in range(200):
            tl = random_timeline(rng, m_range=(20, 150))
            mine = detect_changeover(tl, params)
            ref = oracle_changeover(tl, params.s, params.q, params.theta)
            if mine is None:
                assert ref is None
            else:
                assert ref is not None
                assert (mine.early_name, mine.late_name) == (ref.early_name, ref.late_name)


class TestSlidingCurve:
    """A changeover's curves hold each edge name's share in every grid
    window; with one fresh author per use, a share is a use count."""

    @staticmethod
    def counted(tl, name, t, delta):
        occs = interval(tl, t, t + delta)
        return sum(o.name == name for o in occs) / len(occs)

    def test_constant_curve(self):
        # one author throughout, and both names in every 5-use window
        names = (["\\a"] * 4 + ["\\b"]) * 10 + (["\\b"] * 4 + ["\\a"]) * 10
        tl = timeline([(f"p{i:03d}", i, n, ["u"]) for i, n in enumerate(names)])
        rec = detect_changeover(tl, ChangeoverParams(s=50))
        assert (rec.early_name, rec.late_name) == ("\\a", "\\b")
        assert len(rec.f_curve) == len(rec.g_curve) == len(window_grid(0.05))
        assert set(rec.f_curve) == set(rec.g_curve) == {1.0}

    def test_two_phase_step(self):
        tl = simple_timeline(["\\a"] * 50 + ["\\b"] * 50)
        rec = detect_changeover(tl, ChangeoverParams(s=50))
        for t, f, g in zip(window_grid(0.05), rec.f_curve, rec.g_curve, strict=True):
            assert (f, g) == (self.counted(tl, "\\a", t, 0.05), self.counted(tl, "\\b", t, 0.05))
        assert rec.f_curve[0] == 1.0 and rec.f_curve[-1] == 0.0
        assert rec.g_curve[0] == 0.0 and rec.g_curve[-1] == 1.0

    def test_delta_half_two_points(self):
        tl = simple_timeline(["\\a"] * 30 + ["\\b"] * 10 + ["\\a"] * 10 + ["\\b"] * 50)
        rec = detect_changeover(tl, ChangeoverParams(s=50, delta=0.5))
        assert window_grid(0.5) == (0.0, 0.5)
        assert rec.f_curve == (0.8, 0.0) and rec.g_curve == (0.2, 1.0)


class TestCrossingPoint:
    def grid(self):
        return window_grid(0.05)

    def test_g_dominates_everywhere(self):
        g = self.grid()
        f = tuple(0.2 for _ in g)
        h = tuple(0.8 for _ in g)
        assert crossing_point(f, h, 0.05, 0.1) == 0.0

    def test_f_strictly_above(self):
        g = self.grid()
        f = tuple(0.9 for _ in g)
        h = tuple(0.1 for _ in g)
        assert crossing_point(f, h, 0.05, 0.1) is None

    def test_overtake_at_point_two(self):
        g = self.grid()
        f_vals = tuple(1.0 if t < 0.2 else 0.3 for t in g)
        g_vals = tuple(0.0 if t < 0.2 else 0.7 for t in g)
        # oracle: scan all grid starts by hand
        expected = None
        span = 2
        for i, t in enumerate(g):
            hi = min(i + span, len(g) - 1)
            if all(g_vals[j] >= f_vals[j] for j in range(i, hi + 1)):
                expected = t
                break
        assert expected == pytest.approx(0.2)
        assert crossing_point(f_vals, g_vals, 0.05, 0.1) == pytest.approx(0.2)

    def test_monotone_under_raising_g(self, rng):
        g = self.grid()
        for _ in range(50):
            f_vals = tuple(rng.random() for _ in g)
            g_vals = tuple(rng.random() for _ in g)
            base = crossing_point(f_vals, g_vals, 0.05, 0.1)
            raised = tuple(min(1.0, v + rng.random() * 0.5) for v in g_vals)
            lifted = crossing_point(f_vals, raised, 0.05, 0.1)
            if base is not None:
                assert lifted is not None and lifted <= base

    def test_curves_of_different_lengths_rejected(self):
        for f, g in (((0.0, 0.0), (0.0, 0.0, 0.0)), ((1.0,), ())):
            with pytest.raises(ValueError):
                crossing_point(f, g, 0.25, 0.1)
            with pytest.raises(ValueError):
                crossing_point(g, f, 0.25, 0.1)

    def test_grid_points_are_multiples_of_delta(self):
        # the crossing is the grid point itself, bit for bit
        for delta in (0.04, 0.05, 0.1, 0.3):
            grid = window_grid(delta)
            for i, t in enumerate(grid):
                f = tuple(1.0 if j < i else 0.0 for j in range(len(grid)))
                assert crossing_point(f, tuple(0.5 for _ in grid), delta, 0.1) == t


class TestAggregates:
    def make_record(self, shift):
        tl = simple_timeline(["\\a"] * (60 - shift) + ["\\b"] * (60 + shift))
        return detect_changeover(tl, ChangeoverParams(s=50))

    def test_single_record_is_its_own_median(self):
        rec = self.make_record(0)
        f_med, g_med, hist = aggregate_median_curves([rec])
        assert f_med == rec.f_curve
        assert g_med == rec.g_curve
        assert hist == [(rec.crossing, 1)]

    def test_median_of_three(self):
        recs = []
        for v in (0.1, 0.5, 0.9):
            rec = self.make_record(0)
            rec.f_curve = (v,)
            rec.g_curve = (1 - v,)
            rec.crossing = None
            recs.append(rec)
        f_med, g_med, hist = aggregate_median_curves(recs)
        assert f_med == (0.5,)
        assert g_med == (0.5,)
        assert hist == []

    def test_identical_records_aggregate_to_themselves(self):
        recs = [self.make_record(4) for _ in range(5)]
        f_med, g_med, hist = aggregate_median_curves(recs)
        assert f_med == recs[0].f_curve
        assert hist == [(recs[0].crossing, 5)]

    def test_histogram_conserves_count(self, rng):
        recs = [self.make_record(s) for s in (0, 2, 4, 8)]
        _, _, hist = aggregate_median_curves(recs)
        assert sum(c for _, c in hist) == sum(1 for r in recs if r.crossing is not None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_median_curves([])

    def test_curves_of_different_lengths_rejected(self):
        for curve in ("f_curve", "g_curve"):
            recs = [self.make_record(0), self.make_record(2)]
            setattr(recs[1], curve, getattr(recs[1], curve)[:-1])
            with pytest.raises(ValueError):
                aggregate_median_curves(recs)


def paired_timelines(m=60, seeds=(2, 7, 12)):
    """A changeover body and a control with byte-equal early phases."""
    switch = int(0.5 * m)
    beta_entries = []
    gamma_entries = []
    for i in range(m):
        if i in seeds:
            b_name = g_name = "\\late"
        else:
            b_name = "\\late" if i >= switch else "\\early"
            g_name = "\\early"
        beta_entries.append((f"b{i:03d}", i, b_name, [f"bu {i}"]))
        gamma_entries.append((f"g{i:03d}", i, g_name, [f"gu {i}"]))
    return (
        timeline(beta_entries, body="\\betabody{0}"),
        timeline(gamma_entries, body="\\gammabody{0}"),
    )


class TestMatchPairs:
    def params(self):
        return ChangeoverParams(s=30)

    def test_identical_early_phase_matches(self):
        beta, gamma = paired_timelines()
        params = self.params()
        rec = detect_changeover(beta, params)
        assert rec is not None
        candidates = find_control_candidates(
            {beta.key: beta, gamma.key: gamma}, params
        )
        assert len(candidates) == 1
        pairs, unmatched = match_pairs([rec], candidates)
        assert len(pairs) == 1 and unmatched == 0
        pair = pairs[0]
        assert pair.control_late_name == "\\late"
        assert pair.record.f_beta == pair.f_gamma
        assert pair.record.g_beta == pair.g_gamma

    def test_volume_ratio_rejected(self):
        beta, _ = paired_timelines(m=60)
        _, gamma = paired_timelines(m=50)  # ratio 1.2
        params = self.params()
        rec = detect_changeover(beta, params)
        candidates = find_control_candidates({gamma.key: gamma}, params)
        pairs, unmatched = match_pairs([rec], candidates)
        assert pairs == [] and unmatched == 1

    def test_prevalence_gap_rejected(self):
        beta, gamma = paired_timelines(m=60, seeds=(2, 7, 12))
        # control with a very different early late-name prevalence
        _, gamma_far = paired_timelines(m=60, seeds=(2,))
        params = self.params()
        rec = detect_changeover(beta, params)
        candidates = find_control_candidates({gamma_far.key: gamma_far}, params)
        # gap = 3/18 - 1/18 = 2/18 > 0.01
        pairs, unmatched = match_pairs([rec], candidates)
        assert pairs == [] and unmatched == 1

    def test_each_control_used_once(self):
        beta1, gamma = paired_timelines()
        beta2 = timeline(
            [(f"x{i:03d}", i, o.name, [f"xu {i}"]) for i, o in enumerate(beta1.occurrences)],
            body="\\betabody{1}",
        )
        params = self.params()
        recs = [detect_changeover(beta1, params), detect_changeover(beta2, params)]
        candidates = find_control_candidates({gamma.key: gamma}, params)
        pairs, unmatched = match_pairs(recs, candidates)
        assert len(pairs) == 1 and unmatched == 1

    def test_equal_volume_controls_lower_key_taken_in_any_order(self):
        beta, gamma = paired_timelines()
        twin = with_body(gamma, "\\gammabody{1}")
        params = self.params()
        rec = detect_changeover(beta, params)
        for mapping in ({gamma.key: gamma, twin.key: twin}, {twin.key: twin, gamma.key: gamma}):
            pairs, _ = match_pairs([rec], find_control_candidates(mapping, params))
            assert [pair.control for pair in pairs] == [gamma]

    def test_matching_slices_no_window(self, monkeypatch):
        # the changeover test computed the early shares the record carries
        beta1, gamma = paired_timelines()
        beta2 = with_body(beta1, "\\betabody{1}")
        params = self.params()
        recs = [detect_changeover(beta1, params), detect_changeover(beta2, params)]
        candidates = find_control_candidates({gamma.key: gamma}, params)
        calls = []
        for name in ("name_shares", "interval"):
            def counted(*args, _name=name, _real=getattr(changeover, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(changeover, name, counted)
        pairs, unmatched = match_pairs(recs, candidates)
        assert len(pairs) == 1 and unmatched == 1
        assert calls == []
        assert (pairs[0].record.f_beta, pairs[0].record.g_beta) == (15 / 18, 3 / 18)


def ledgered_corpus_for_experience():
    """Authors with controlled prior paper counts for experience values."""
    papers = []
    # author "veteran" accumulates 5 earlier papers
    for i in range(5):
        papers.append(paper(f"v{i}", f"1999-01-{i+1:02d}", ["veteran"]))
    papers.append(paper("use0", "2000-01-01", ["veteran"]))
    papers.append(paper("use1", "2000-01-02", ["rookie"]))
    return corpus_of(*papers)


class TestExperienceCurves:
    def test_usage_experience_value(self):
        corpus = ledgered_corpus_for_experience()
        ledger = ExperienceLedger(corpus)
        beta, gamma = paired_timelines(m=40, seeds=(2,))
        # overwrite one early occurrence with the veteran author
        entries = [
            ("use0" if i == 0 else f"b{i:03d}", rank_of(corpus, "use0") if i == 0 else 100 + i,
             o.name, ["veteran"] if i == 0 else list(o.authors))
            for i, o in enumerate(beta.occurrences)
        ]
        beta2 = timeline(entries, body=beta.key[1])
        rec = detect_changeover(beta2, ChangeoverParams(s=30))
        gamma2 = timeline(
            [(f"g{i:03d}", 100 + i, o.name, list(o.authors)) for i, o in enumerate(gamma.occurrences)],
            body=gamma.key[1],
        )
        candidates = find_control_candidates({gamma2.key: gamma2}, ChangeoverParams(s=30))
        pairs, _ = match_pairs([rec], candidates)
        # window [0, 0.025] of m=40 holds exactly the veteran's use
        curves = experience_curves(pairs, ledger, 0.025)
        assert list(curves) == list(EXPERIENCE_SERIES)
        assert all(len(series) == len(window_grid(0.025)) for series in curves.values())
        assert curves["usage_early"][0] == pytest.approx(5.0)

    def test_second_use_not_adoption(self):
        papers = [
            paper("p0", "2000-01-01", ["w"]),
            paper("p1", "2000-01-02", ["w"]),
        ]
        corpus = corpus_of(*papers)
        ledger = ExperienceLedger(corpus)
        tl = timeline(
            [
                ("p0", rank_of(corpus, "p0"), "\\n", ["w"]),
                ("p1", rank_of(corpus, "p1"), "\\n", ["w"]),
            ]
        )
        from macrolens.changeover import _first_use_positions, _mean_experience

        first_use = _first_use_positions(tl)
        usage, adoption = _mean_experience(tl, "\\n", 0.5, 1.0, ledger, first_use)
        assert usage == 1.0  # second use counts for usage
        assert adoption is None  # but not adoption

    def test_planted_adoption_ramp_recovered(self):
        # adopters of the late name arrive with experience growing 0..19;
        # the generator's planted per-window means are the oracle
        papers = []
        entries = []
        day = 0
        planted = {}
        m = 40
        for i in range(m):
            author = f"adopter {i}"
            exp = i // 2  # experience ramp 0..19
            for k in range(exp):
                day += 1
                papers.append(paper(f"bg{i}_{k}", f"19{90 + day // 330:02d}-{(day // 28) % 12 + 1:02d}-{day % 28 + 1:02d}", [author]))
            day += 1
            pid = f"use{i:03d}"
            papers.append(paper(pid, f"20{10 + day // 330:02d}-{(day // 28) % 12 + 1:02d}-{day % 28 + 1:02d}", [author]))
            entries.append((pid, None, "\\late" if i >= 2 else "\\early", [author]))
        corpus = corpus_of(*papers)
        ledger = ExperienceLedger(corpus)
        tl = timeline([(pid, rank_of(corpus, pid), n, a) for pid, _, n, a in entries])
        from macrolens.changeover import _first_use_positions, _mean_experience

        first_use = _first_use_positions(tl)
        grid = window_grid(0.1)
        means = []
        for t in grid:
            _, got = _mean_experience(tl, "\\late", t, t + 0.1, ledger, first_use)
            lo = int(t * m)
            expected = [i // 2 for i in range(lo, lo + 4) if i >= 2]
            assert got == sum(expected) / len(expected)
            means.append(got)
        # the ramp rises across windows
        assert means == sorted(means)


class TestChangeoverFeatures:
    def test_early_author_counts(self):
        beta, gamma = paired_timelines()
        params = ChangeoverParams(s=30)
        rec = detect_changeover(beta, params)
        candidates = find_control_candidates({gamma.key: gamma}, params)
        pairs, _ = match_pairs([rec], candidates)
        corpus = corpus_of(paper("d", "2000-01-01", ["x"]))
        ledger = ExperienceLedger(corpus)
        row_beta, row_gamma = changeover_features(pairs[0], params.q, ledger)
        cols = changeover_feature_columns(params.q)
        assert len(row_beta) == len(cols) == len(row_gamma)
        # early window of the planted pair: 15 early-name authors, 3 late
        beta_map = dict(zip(cols, row_beta))
        assert beta_map["early_authors_e"] == 15.0
        assert beta_map["early_authors_l"] == 3.0

    def test_missing_window_imputed_with_flag(self):
        beta, gamma = paired_timelines()
        params = ChangeoverParams(s=30)
        rec = detect_changeover(beta, params)
        candidates = find_control_candidates({gamma.key: gamma}, params)
        pairs, _ = match_pairs([rec], candidates)
        ledger = ExperienceLedger(corpus_of(paper("d", "2000-01-01", ["x"])))
        row_beta, _ = changeover_features(pairs[0], params.q, ledger)
        cols = changeover_feature_columns(params.q)
        beta_map = dict(zip(cols, row_beta))
        # window w1 of the early phase holds no late-name uses (seeds sit
        # in windows 0/1/2 at positions 2,7,12 of 60): check flag pairing
        for w in range(6):
            value = beta_map[f"usage_exp_l_w{w}"]
            flag = beta_map[f"usage_exp_l_w{w}_missing"]
            assert flag in (0.0, 1.0)
            if flag == 1.0:
                assert value == 0.0

    def test_vector_length_constant_across_batch(self, rng):
        params = ChangeoverParams(s=30)
        ledger = ExperienceLedger(corpus_of(paper("d", "2000-01-01", ["x"])))
        lengths = set()
        for seeds in ((2, 7, 12), (3, 9), (1, 4, 8, 13)):
            beta, gamma = paired_timelines(seeds=seeds)
            rec = detect_changeover(beta, params)
            candidates = find_control_candidates({gamma.key: gamma}, params)
            pairs, _ = match_pairs([rec], candidates)
            if not pairs:
                continue
            row_beta, row_gamma = changeover_features(pairs[0], params.q, ledger)
            lengths.add(len(row_beta))
            lengths.add(len(row_gamma))
        assert len(lengths) == 1


class TestMostUsedName:
    def test_tie_breaks_to_earlier_first_occurrence(self):
        tl = simple_timeline(["\\b", "\\a", "\\a", "\\b"])
        assert most_used_name(list(tl.occurrences)) == "\\b"


# ---------------------------------------------------------------------------
# The former share and experience code, one name and one window at a time:
# the reference the single-pass functions must reproduce bit for bit.
# ---------------------------------------------------------------------------


def former_usage_fraction(tl, name, t0, t1):
    all_authors, name_authors = set(), set()
    for occ in interval(tl, t0, t1):
        all_authors.update(occ.authors)
        if occ.name == name:
            name_authors.update(occ.authors)
    if not all_authors:
        raise ValueError("interval has no authors")
    return len(name_authors) / len(all_authors)


def former_sliding_curve(tl, name, delta):
    grid = window_grid(delta)
    return tuple(former_usage_fraction(tl, name, t, t + delta) for t in grid)


def former_changeover_names(tl, params):
    if tl.m < params.s:
        return None
    n_early = most_used_name(interval(tl, 0.0, params.q))
    n_late = most_used_name(interval(tl, 1.0 - params.q, 1.0))
    if n_early == n_late:
        return None
    if former_usage_fraction(tl, n_early, 0.0, params.q) <= params.theta:
        return None
    if former_usage_fraction(tl, n_late, 1.0 - params.q, 1.0) <= params.theta:
        return None
    return n_early, n_late


def former_detect_changeover(tl, params):
    names = former_changeover_names(tl, params)
    if names is None:
        return None
    f_curve = former_sliding_curve(tl, names[0], params.delta)
    g_curve = former_sliding_curve(tl, names[1], params.delta)
    return ChangeoverRecord(
        early_name=names[0], late_name=names[1],
        f_beta=former_usage_fraction(tl, names[0], 0.0, params.q),
        g_beta=former_usage_fraction(tl, names[1], 0.0, params.q),
        f_curve=f_curve, g_curve=g_curve,
        crossing=crossing_point(f_curve, g_curve, params.delta, params.persistence), timeline=tl,
    )


def former_find_control_candidates(timelines, params):
    """Candidates whose ``others`` map each name to (share, first index)."""
    out = []
    for key in sorted(timelines):
        tl = timelines[key]
        if tl.m < params.s or former_changeover_names(tl, params) is not None:
            continue
        early = interval(tl, 0.0, params.q)
        n_early = most_used_name(early)
        others = {}
        for idx, occ in enumerate(early):
            if occ.name != n_early and occ.name not in others:
                others[occ.name] = (former_usage_fraction(tl, occ.name, 0.0, params.q), idx)
        if others:
            prevalence = former_usage_fraction(tl, n_early, 0.0, params.q)
            out.append(ControlCandidate(tl, n_early, prevalence, others))
    return out


def former_match_pairs(changeovers, candidates, params):
    pool = sorted(candidates, key=lambda c: (-c.timeline.m, c.timeline.key))
    used = [False] * len(pool)
    pairs, unmatched = [], 0
    for rec in sorted(changeovers, key=lambda r: (-r.timeline.m, r.timeline.key)):
        f_b = former_usage_fraction(rec.timeline, rec.early_name, 0.0, params.q)
        g_b = former_usage_fraction(rec.timeline, rec.late_name, 0.0, params.q)
        assert (rec.f_beta, rec.g_beta) == (f_b, g_b)
        hit = None
        for idx, cand in enumerate(pool):
            ratio = rec.timeline.m / cand.timeline.m
            if used[idx] or not MATCH_RATIO_LO <= ratio <= MATCH_RATIO_HI:
                continue
            if abs(f_b - cand.early_prevalence) >= MATCH_PREVALENCE_TOL:
                continue
            best_name, best_rank = None, None
            for name in sorted(cand.others):
                prevalence, first_idx = cand.others[name]
                gap = abs(g_b - prevalence)
                if gap >= MATCH_PREVALENCE_TOL:
                    continue
                if best_rank is None or (gap, first_idx, name) < best_rank:
                    best_rank, best_name = (gap, first_idx, name), name
            if best_name is not None:
                hit = (idx, cand, best_name)
                break
        if hit is None:
            unmatched += 1
            continue
        idx, cand, late_name = hit
        used[idx] = True
        pairs.append(MatchedPair(
            rec, cand.timeline, cand.early_name, late_name,
            cand.early_prevalence, cand.others[late_name][0],
        ))
    return pairs, unmatched


def former_first_use_positions(tl):
    first = {}
    for idx, occ in enumerate(tl.occurrences):
        for author in occ.authors:
            first.setdefault((author, occ.name), idx)
    return first


def former_window_experiences(tl, name, t0, t1, ledger, adoption_only, first_use):
    start, end = window_bounds(tl.m, t0, t1)
    values = []
    for idx in range(start, end):
        occ = tl.occurrences[idx]
        if occ.name != name:
            continue
        for author in occ.authors:
            if adoption_only and first_use[(author, name)] != idx:
                continue
            values.append(ledger.experience_at_rank(author, occ.group_rank))
    return values


def former_experience_curves(pairs, ledger, delta):
    grid = window_grid(delta)
    sums = {name: [0.0] * len(grid) for name in EXPERIENCE_SERIES}
    counts = {name: [0] * len(grid) for name in EXPERIENCE_SERIES}
    for pair in pairs:
        roles = (
            ("usage_early", pair.record.timeline, pair.record.early_name, False),
            ("usage_late", pair.record.timeline, pair.record.late_name, False),
            ("usage_early_control", pair.control, pair.control_early_name, False),
            ("usage_late_control", pair.control, pair.control_late_name, False),
            ("adoption_early", pair.record.timeline, pair.record.early_name, True),
            ("adoption_late", pair.record.timeline, pair.record.late_name, True),
            ("adoption_early_control", pair.control, pair.control_early_name, True),
            ("adoption_late_control", pair.control, pair.control_late_name, True),
        )
        first_use_cache = {
            id(pair.record.timeline): former_first_use_positions(pair.record.timeline),
            id(pair.control): former_first_use_positions(pair.control),
        }
        for series, tl, name, adoption in roles:
            for i, t in enumerate(grid):
                values = former_window_experiences(
                    tl, name, t, t + delta, ledger, adoption, first_use_cache[id(tl)]
                )
                if values:
                    sums[series][i] += sum(values) / len(values)
                    counts[series][i] += 1
    return {
        name: [sums[name][i] / counts[name][i] if counts[name][i] else None
               for i in range(len(grid))]
        for name in EXPERIENCE_SERIES
    }


def former_changeover_features(pair, q, ledger):
    n_windows = _feature_window_count(q)
    rows = []
    for tl, early_name, late_name in (
        (pair.record.timeline, pair.record.early_name, pair.record.late_name),
        (pair.control, pair.control_early_name, pair.control_late_name),
    ):
        first_use = former_first_use_positions(tl)
        start, end = window_bounds(tl.m, 0.0, q)
        early_occs = tl.occurrences[start:end]
        row = []
        for name in (early_name, late_name):
            row.append(float(len({a for o in early_occs if o.name == name for a in o.authors})))
        for name in (early_name, late_name):
            for adoption in (False, True):
                for w in range(n_windows):
                    t = w * FEATURE_WINDOW_WIDTH
                    values = former_window_experiences(
                        tl, name, t, t + FEATURE_WINDOW_WIDTH, ledger, adoption, first_use
                    )
                    row.extend([sum(values) / len(values), 0.0] if values else [0.0, 1.0])
        for name in (early_name, late_name):
            length, non_alpha, frac_lower, frac_upper = name_features(name)
            row.extend([length, non_alpha, frac_lower, frac_upper])
        rows.append(row)
    return rows[0], rows[1]


class _Ledger:
    """Experience as a fixed function of author and rank."""

    @staticmethod
    def experience_at_rank(author, group_rank):
        return (len(author) * 7 + group_rank) % 11


def many_name_pair(rng, index):
    """A changeover body and a control of the same volume whose early
    windows hold the same dominant-name share; in the control's early
    window two or three names sit at exactly the changeover's late-name
    share, among other names, in shuffled order.  One author per use."""
    m = rng.randint(100, 260)
    early = int(0.3 * m)  # the early window's length at q = 0.3
    k_late, extra = rng.randint(2, 4), rng.randint(0, 4)
    tied = rng.sample([f"\\tie{c}" for c in "zyxwa"], rng.randint(2, 3))
    k_dom = early - k_late * len(tied) - extra
    beta = ["\\dom"] * k_dom + ["\\new"] * k_late + ["\\noise"] * (early - k_dom - k_late)
    gamma = ["\\dom"] * k_dom + [n for n in tied for _ in range(k_late)]
    gamma += [f"\\other{rng.randrange(3)}" for _ in range(extra)]
    rng.shuffle(beta)
    rng.shuffle(gamma)
    beta += ["\\dom" if rng.random() < 0.2 else "\\new" for _ in range(m - early)]
    gamma += ["\\dom"] * (m - early)

    def build(names, tag):
        return timeline(
            [(f"{tag}{index}.{i:03d}", i, n, [f"{tag} author {i}"]) for i, n in enumerate(names)],
            body=f"\\{tag}body{{{index}}}",
        )

    return build(beta, "b"), build(gamma, "g")


def with_body(tl, body):
    return timeline([(o.paper_id, o.group_rank, o.name, o.authors) for o in tl.occurrences], body=body)


class TestFormerImplementationsBitExact:
    """Every record, candidate, pair, curve and feature row equals the
    former one-name-at-a-time code's, compared with ``==``."""

    PARAMS = [
        ChangeoverParams(),
        ChangeoverParams(s=20),
        ChangeoverParams(s=20, q=0.2, theta=0.25, delta=0.1, persistence=0.2),
        ChangeoverParams(s=20, q=0.5, theta=0.4, delta=0.04),
    ]

    def test_equal_on_random_and_many_name_bodies(self):
        rng = random.Random(1017)
        ledger = _Ledger()
        seen = {"records": 0, "pairs": 0, "tied picks": 0, "candidate names": 0}
        for trial in range(40):
            bodies = [with_body(random_timeline(rng, m_range=(20, 260), max_names=6), f"\\r{{{i}}}")
                      for i in range(8)]
            for i in range(4):
                bodies.extend(many_name_pair(rng, i))
            timelines = {tl.key: tl for tl in sorted(bodies, key=lambda tl: tl.key)}
            params = self.PARAMS[trial % len(self.PARAMS)]
            records = [detect_changeover(timelines[k], params) for k in sorted(timelines)]
            assert records == [former_detect_changeover(timelines[k], params) for k in sorted(timelines)]
            records = [r for r in records if r is not None]
            candidates = find_control_candidates(timelines, params)
            former = former_find_control_candidates(timelines, params)
            assert [(c.timeline, c.early_name, c.early_prevalence) for c in candidates] == [
                (c.timeline, c.early_name, c.early_prevalence) for c in former
            ]
            for cand, ref in zip(candidates, former):
                by_first = sorted(ref.others, key=lambda n: ref.others[n][1])
                assert list(cand.others.items()) == [(n, ref.others[n][0]) for n in by_first]
                seen["candidate names"] += len(cand.others)
            pairs, unmatched = match_pairs(records, candidates)
            assert (pairs, unmatched) == former_match_pairs(records, former, params)
            seen["records"] += len(records)
            seen["pairs"] += len(pairs)
            if not pairs:
                continue
            assert experience_curves(pairs, ledger, params.delta) == former_experience_curves(
                pairs, ledger, params.delta
            )
            for pair in pairs:
                assert changeover_features(pair, params.q, ledger) == former_changeover_features(
                    pair, params.q, ledger
                )
                others = next(c.others for c in candidates if c.timeline is pair.control)
                g_beta = pair.record.g_beta
                gaps = [abs(g_beta - share) for share in others.values()]
                seen["tied picks"] += gaps.count(abs(g_beta - pair.g_gamma)) > 1
        # the late-name pick met names at exactly equal gap
        assert seen["tied picks"] > 0, seen
        assert min(seen.values()) > 0, seen


class TestLateNameTie:
    def test_equal_shares_go_to_the_first_occurring_name(self):
        # early window (18 of 60 uses): 12 of \dom and 2 of \new in the
        # changeover; 12 of \dom and 2 each of \zfirst, \alater and \y in
        # the control, \zfirst first although it sorts last
        beta = ["\\dom"] * 6 + ["\\new", "\\x", "\\y"] + ["\\dom"] * 6 + ["\\new", "\\x", "\\y"]
        gamma = ["\\dom"] * 6 + ["\\zfirst", "\\alater", "\\y"] + ["\\dom"] * 6
        gamma += ["\\alater", "\\zfirst", "\\y"]
        beta += ["\\new"] * 42
        gamma += ["\\dom"] * 42
        params = ChangeoverParams(s=30)
        b, g = (
            timeline([(f"{t}{i}", i, n, [f"{t}u{i}"]) for i, n in enumerate(names)], body=f"\\{t}{{0}}")
            for t, names in (("b", beta), ("g", gamma))
        )
        candidates = find_control_candidates({g.key: g}, params)
        pairs, unmatched = match_pairs([detect_changeover(b, params)], candidates)
        assert unmatched == 0
        assert pairs[0].record.g_beta == pairs[0].g_gamma == 2 / 18
        assert pairs[0].control_late_name == "\\zfirst"


class TestControlCandidateScaling:
    def test_many_early_names_linear(self):
        # half the uses under one name, half under names used once each:
        # the early window of 16k uses holds 2.4k distinct names
        m = 16_000
        tl = timeline(
            [(f"p{i:05d}", i, "\\main" if i % 2 else f"\\n{i}", [f"u{i}"]) for i in range(m)]
        )
        start = time.perf_counter()
        (cand,) = find_control_candidates({tl.key: tl}, ChangeoverParams())
        elapsed = time.perf_counter() - start
        assert cand.early_name == "\\main" and len(cand.others) == 2400
        assert elapsed < 0.5, f"took {elapsed:.3f}s"
