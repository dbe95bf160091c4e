import pytest

from macrolens.changeover import (
    ChangeoverParams,
    Curve,
    aggregate_median_curves,
    changeover_feature_columns,
    changeover_features,
    crossing_point,
    detect_changeover,
    experience_curves,
    find_control_candidates,
    match_pairs,
    most_used_name,
    sliding_curve,
    usage_fraction,
    window_grid,
)
from macrolens.timelines import ExperienceLedger

from conftest import corpus_of, paper, random_timeline, simple_timeline, timeline
from oracles import oracle_changeover


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


class TestUsageFraction:
    def test_everyone_uses_it(self):
        tl = simple_timeline(["\\n", "\\n", "\\n"])
        assert usage_fraction(tl, "\\n", 0, 1) == 1.0

    def test_disjoint_halves(self):
        tl = timeline(
            [("p1", 0, "\\a", ["u1"]), ("p2", 1, "\\a", ["u2"]),
             ("p3", 2, "\\b", ["u3"]), ("p4", 3, "\\b", ["u4"])]
        )
        assert usage_fraction(tl, "\\a", 0, 1) == 0.5
        assert usage_fraction(tl, "\\b", 0, 1) == 0.5

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
        assert usage_fraction(tl, "\\N", 0, 1) == pytest.approx(2 / 3)
        assert usage_fraction(tl, "\\M", 0, 1) == pytest.approx(2 / 3)


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
                body=tl.body,
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
    def test_constant_curve(self):
        tl = simple_timeline(["\\n"] * 40)
        curve = sliding_curve(tl, "\\n", 0.05)
        assert curve.grid == window_grid(0.05)
        assert all(v == 1.0 for v in curve.values)

    def test_two_phase_step(self):
        tl = simple_timeline(["\\a"] * 50 + ["\\b"] * 50)
        curve = sliding_curve(tl, "\\a", 0.05)
        # oracle: recompute each window from scratch
        for t, v in zip(curve.grid, curve.values):
            assert v == usage_fraction(tl, "\\a", t, t + 0.05)
        assert curve.values[0] == 1.0 and curve.values[-1] == 0.0

    def test_delta_one_single_point(self):
        tl = simple_timeline(["\\a", "\\b"])
        curve = sliding_curve(tl, "\\a", 1.0)
        assert curve.grid == (0.0,)
        assert curve.values[0] == usage_fraction(tl, "\\a", 0, 1)


class TestCrossingPoint:
    def grid(self):
        return window_grid(0.05)

    def test_g_dominates_everywhere(self):
        g = self.grid()
        f = Curve(g, tuple(0.2 for _ in g))
        h = Curve(g, tuple(0.8 for _ in g))
        assert crossing_point(f, h, 0.1) == 0.0

    def test_f_strictly_above(self):
        g = self.grid()
        f = Curve(g, tuple(0.9 for _ in g))
        h = Curve(g, tuple(0.1 for _ in g))
        assert crossing_point(f, h, 0.1) is None

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
        assert crossing_point(Curve(g, f_vals), Curve(g, g_vals), 0.1) == pytest.approx(0.2)

    def test_monotone_under_raising_g(self, rng):
        g = self.grid()
        for _ in range(50):
            f_vals = tuple(rng.random() for _ in g)
            g_vals = tuple(rng.random() for _ in g)
            base = crossing_point(Curve(g, f_vals), Curve(g, g_vals), 0.1)
            raised = tuple(min(1.0, v + rng.random() * 0.5) for v in g_vals)
            lifted = crossing_point(Curve(g, f_vals), Curve(g, raised), 0.1)
            if base is not None:
                assert lifted is not None and lifted <= base

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            crossing_point(Curve((0.0, 0.5), (0, 0)), Curve((0.0, 0.25), (0, 0)), 0.1)


class TestAggregates:
    def make_record(self, shift):
        tl = simple_timeline(["\\a"] * (60 - shift) + ["\\b"] * (60 + shift))
        return detect_changeover(tl, ChangeoverParams(s=50))

    def test_single_record_is_its_own_median(self):
        rec = self.make_record(0)
        f_med, g_med, hist = aggregate_median_curves([rec])
        assert f_med.values == rec.f_curve.values
        assert g_med.values == rec.g_curve.values
        assert hist == [(rec.crossing, 1)]

    def test_median_of_three(self):
        grid = (0.0,)
        recs = []
        for v in (0.1, 0.5, 0.9):
            rec = self.make_record(0)
            rec.f_curve = Curve(grid, (v,))
            rec.g_curve = Curve(grid, (1 - v,))
            rec.crossing = None
            recs.append(rec)
        f_med, g_med, hist = aggregate_median_curves(recs)
        assert f_med.values == (0.5,)
        assert g_med.values == (0.5,)
        assert hist == []

    def test_identical_records_aggregate_to_themselves(self):
        recs = [self.make_record(4) for _ in range(5)]
        f_med, g_med, hist = aggregate_median_curves(recs)
        assert f_med.values == recs[0].f_curve.values
        assert hist == [(recs[0].crossing, 5)]

    def test_histogram_conserves_count(self, rng):
        recs = [self.make_record(s) for s in (0, 2, 4, 8)]
        _, _, hist = aggregate_median_curves(recs)
        assert sum(c for _, c in hist) == sum(1 for r in recs if r.crossing is not None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_median_curves([])


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
        pairs, unmatched = match_pairs([rec], candidates, params)
        assert len(pairs) == 1 and unmatched == 0
        pair = pairs[0]
        assert pair.control_late_name == "\\late"
        assert pair.f_beta == pair.f_gamma
        assert pair.g_beta == pair.g_gamma

    def test_volume_ratio_rejected(self):
        beta, _ = paired_timelines(m=60)
        _, gamma = paired_timelines(m=50)  # ratio 1.2
        params = self.params()
        rec = detect_changeover(beta, params)
        candidates = find_control_candidates({gamma.key: gamma}, params)
        pairs, unmatched = match_pairs([rec], candidates, params)
        assert pairs == [] and unmatched == 1

    def test_prevalence_gap_rejected(self):
        beta, gamma = paired_timelines(m=60, seeds=(2, 7, 12))
        # control with a very different early late-name prevalence
        _, gamma_far = paired_timelines(m=60, seeds=(2,))
        params = self.params()
        rec = detect_changeover(beta, params)
        candidates = find_control_candidates({gamma_far.key: gamma_far}, params)
        # gap = 3/18 - 1/18 = 2/18 > 0.01
        pairs, unmatched = match_pairs([rec], candidates, params)
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
        pairs, unmatched = match_pairs(recs, candidates, params)
        assert len(pairs) == 1 and unmatched == 1


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
            ("use0" if i == 0 else f"b{i:03d}", corpus.rank_of("use0") if i == 0 else 100 + i,
             o.name, ["veteran"] if i == 0 else list(o.authors))
            for i, o in enumerate(beta.occurrences)
        ]
        beta2 = timeline(entries, body=beta.body)
        rec = detect_changeover(beta2, ChangeoverParams(s=30))
        gamma2 = timeline(
            [(f"g{i:03d}", 100 + i, o.name, list(o.authors)) for i, o in enumerate(gamma.occurrences)],
            body=gamma.body,
        )
        candidates = find_control_candidates({gamma2.key: gamma2}, ChangeoverParams(s=30))
        pairs, _ = match_pairs([rec], candidates, ChangeoverParams(s=30))
        # window [0, 0.025] of m=40 holds exactly the veteran's use
        curves = experience_curves(pairs, ledger, 0.025)
        assert curves.series["usage_early"][0] == pytest.approx(5.0)

    def test_second_use_not_adoption(self):
        papers = [
            paper("p0", "2000-01-01", ["w"]),
            paper("p1", "2000-01-02", ["w"]),
        ]
        corpus = corpus_of(*papers)
        ledger = ExperienceLedger(corpus)
        tl = timeline(
            [
                ("p0", corpus.rank_of("p0"), "\\n", ["w"]),
                ("p1", corpus.rank_of("p1"), "\\n", ["w"]),
            ]
        )
        from macrolens.changeover import _first_use_positions, _window_experiences

        first_use = _first_use_positions(tl)
        usage = _window_experiences(tl, "\\n", 0.5, 1.0, ledger, False, first_use)
        adoption = _window_experiences(tl, "\\n", 0.5, 1.0, ledger, True, first_use)
        assert usage == [1]  # second use counts for usage
        assert adoption == []  # but not adoption

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
        tl = timeline([(pid, corpus.rank_of(pid), n, a) for pid, _, n, a in entries])
        from macrolens.changeover import _first_use_positions, _window_experiences

        first_use = _first_use_positions(tl)
        grid = window_grid(0.1)
        for t in grid:
            got = _window_experiences(tl, "\\late", t, t + 0.1, ledger, True, first_use)
            lo = int(t * m)
            expected = [i // 2 for i in range(lo, lo + 4) if i >= 2]
            assert got == expected
        # the ramp rises across windows
        means = [
            sum(v) / len(v)
            for t in grid
            if (v := _window_experiences(tl, "\\late", t, t + 0.1, ledger, True, first_use))
        ]
        assert means == sorted(means)


class TestChangeoverFeatures:
    def test_early_author_counts(self):
        beta, gamma = paired_timelines()
        params = ChangeoverParams(s=30)
        rec = detect_changeover(beta, params)
        candidates = find_control_candidates({gamma.key: gamma}, params)
        pairs, _ = match_pairs([rec], candidates, params)
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
        pairs, _ = match_pairs([rec], candidates, params)
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
            pairs, _ = match_pairs([rec], candidates, params)
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
