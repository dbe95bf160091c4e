"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest report.
"""

import contextlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from macrolens import analytics, changeover, fights, synth
from macrolens.cli import run
from macrolens.corpus import load_corpus
from macrolens.timelines import ExperienceLedger, build_timelines, interval

from conftest import crossover_timeline, random_timeline
from headline import binomial_test, high_dominance_rate, overall_older_win_rate
from oracles import oracle_betweenness, oracle_changeover, oracle_validate_matched_pair
from record_corpus import extract_all

GOLDEN = Path(__file__).parent / "data" / "golden"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_parser_golden_suite(tmp_path):
    with criterion(1, "parser golden suite is byte-exact in under 1 s"):
        start = time.perf_counter()
        assert run(["extract", "--corpus", str(GOLDEN / "manifest.jsonl"),
                    "--out", str(tmp_path)]) == 0
        actual = (tmp_path / "definitions.csv").read_bytes()
        elapsed = time.perf_counter() - start
        golden = (GOLDEN / "golden_definitions.csv").read_bytes()
        assert actual == golden
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_changeover_oracle_equivalence():
    with criterion(2, "detector agrees with the brute-force oracle on 1000 timelines"):
        rng = random.Random(20260810)
        params = changeover.ChangeoverParams(s=20)
        start = time.perf_counter()
        disagreements = 0
        for _ in range(1000):
            tl = random_timeline(rng, m_range=(20, 300), max_names=4)
            mine = changeover.detect_changeover(tl, params)
            ref = oracle_changeover(tl, params.s, params.q, params.theta)
            if (mine is None) != (ref is None):
                disagreements += 1
            elif mine is not None and (
                (mine.early_name, mine.late_name) != (ref.early_name, ref.late_name)
            ):
                disagreements += 1
        elapsed = time.perf_counter() - start
        assert disagreements == 0
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_3_crossing_point_recovery():
    with criterion(3, "planted crossing recovered within ±0.05 in ≥95% of 200 runs"):
        rng = random.Random(31415)
        targets = (0.1, 0.2, 0.4, 0.7)
        hits = 0
        total = 200
        for i in range(total):
            t_star = targets[i % len(targets)]
            m = rng.randint(100, 300)
            tl, early, late = crossover_timeline(rng, m=m, t_star=t_star, flip_prob=0.03)
            grid = changeover.window_grid(0.05)
            shares = [changeover.name_shares(interval(tl, t, t + 0.05)) for t in grid]
            f_curve = tuple(s.get(early, 0.0) for s in shares)
            g_curve = tuple(s.get(late, 0.0) for s in shares)
            found = changeover.crossing_point(f_curve, g_curve, 0.05, 0.1)
            if found is not None and abs(found - t_star) <= 0.05 + 1e-9:
                hits += 1
        assert hits >= 0.95 * total, f"only {hits}/{total} within tolerance"


def _changeover_pipeline(tmp_path, seed, n_pairs):
    cfg = synth.SynthConfig(seed=seed, preset="changeover", n_changeover_pairs=n_pairs)
    result = synth.generate(cfg)
    manifest, _ = synth.write_output(result, tmp_path)
    corpus = load_corpus(manifest).corpus
    defs, _ = extract_all(corpus)
    timelines = build_timelines(corpus, defs)
    params = changeover.ChangeoverParams()
    records = [
        rec
        for key in sorted(timelines)
        if (rec := changeover.detect_changeover(timelines[key], params)) is not None
    ]
    candidates = changeover.find_control_candidates(timelines, params)
    pairs, unmatched = changeover.match_pairs(records, candidates)
    return corpus, timelines, params, pairs, unmatched


def test_criterion_4_matched_pair_validity(tmp_path):
    with criterion(4, "every matched pair passes the post-hoc validator"):
        corpus, _, params, pairs, unmatched = _changeover_pipeline(tmp_path / "synth", 77, 8)
        assert pairs, "synthetic run produced no pairs"
        assert unmatched == 0
        violations = []
        for pair in pairs:
            violations += oracle_validate_matched_pair(pair, params.q, 0.91, 1.1, 0.01)
        # mini-corpus run with permissive parameters
        mini = load_corpus(GOLDEN / "manifest.jsonl").corpus
        mini_defs, _ = extract_all(mini)
        mini_tls = build_timelines(mini, mini_defs)
        mini_params = changeover.ChangeoverParams(s=2, q=0.5)
        mini_records = [
            rec
            for key in sorted(mini_tls)
            if (rec := changeover.detect_changeover(mini_tls[key], mini_params)) is not None
        ]
        mini_cands = changeover.find_control_candidates(mini_tls, mini_params)
        mini_pairs, _ = changeover.match_pairs(mini_records, mini_cands)
        for pair in mini_pairs:
            violations += oracle_validate_matched_pair(pair, mini_params.q, 0.91, 1.1, 0.01)
        assert violations == [], violations


def test_criterion_5_betweenness_oracle():
    with criterion(5, "betweenness matches exhaustive enumeration on 500 graphs"):
        rng = random.Random(555)
        worst = 0.0
        for _ in range(500):
            n = rng.randint(2, 7)
            nodes = [f"v{i}" for i in range(n)]
            edges = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < rng.choice((0.2, 0.5, 0.8))
            ]
            adj = {v: [] for v in nodes}
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            mine = analytics.betweenness(adj)
            ref = oracle_betweenness(nodes, edges)
            worst = max(worst, max(abs(mine[v] - ref[v]) for v in nodes))
        assert worst <= 1e-9, f"max abs error {worst}"


def test_criterion_6_logistic_regression():
    with criterion(6, "gradient check, separable accuracy, null-data accuracy"):
        # (a) analytic gradient vs central differences
        rng = np.random.default_rng(66)
        for _ in range(3):
            X = rng.normal(size=(60, 4))
            y = (rng.random(60) < 0.5).astype(float)
            for _ in range(10):
                w = rng.normal(size=4)
                b = float(rng.normal())
                _, gw, gb = analytics.logistic_loss_and_grad(X, y, w, b)
                h = 1e-5
                for j in range(4):
                    e = np.zeros(4)
                    e[j] = h
                    lp, _, _ = analytics.logistic_loss_and_grad(X, y, w + e, b)
                    lm, _, _ = analytics.logistic_loss_and_grad(X, y, w - e, b)
                    fd = (lp - lm) / (2 * h)
                    assert abs(fd - gw[j]) <= 1e-5 * max(1.0, abs(gw[j]))
                lp, _, _ = analytics.logistic_loss_and_grad(X, y, w, b + h)
                lm, _, _ = analytics.logistic_loss_and_grad(X, y, w, b - h)
                assert abs((lp - lm) / (2 * h) - gb) <= 1e-5 * max(1.0, abs(gb))
        # (b) margin-separable synthetic data
        py_rng = random.Random(67)
        rows, labels = [], []
        for _ in range(1000):
            label = py_rng.random() < 0.5
            offset = 0.6 if label else -0.6
            rows.append([offset + py_rng.gauss(0, 0.2), py_rng.gauss(0, 1)])
            labels.append(int(label))
        m = analytics.FeatureMatrix.from_rows(["x0", "x1"], rows, labels)
        train_raw, test_raw = analytics.split(m, seed=0)
        train, mean, stdev = analytics.zscore(train_raw)
        test = analytics.apply_zscore(test_raw, mean, stdev)
        model = analytics.logistic_fit(train)
        acc = analytics.count_correct(model, test) / len(test.y)
        assert acc >= 0.95, f"separable accuracy {acc}"
        # (c) label-randomized data
        rows = [[py_rng.gauss(0, 1), py_rng.gauss(0, 1)] for _ in range(2000)]
        labels = [py_rng.randint(0, 1) for _ in range(2000)]
        m = analytics.FeatureMatrix.from_rows(["x0", "x1"], rows, labels)
        train_raw, test_raw = analytics.split(m, seed=0)
        train, mean, stdev = analytics.zscore(train_raw)
        test = analytics.apply_zscore(test_raw, mean, stdev)
        model = analytics.logistic_fit(train)
        acc = analytics.count_correct(model, test) / len(test.y)
        assert 0.45 <= acc <= 0.55, f"null accuracy {acc}"


def test_criterion_7_planted_effects(tmp_path):
    with criterion(7, "planted fight outcomes recovered end to end"):
        # invisible name fights: younger wins 70% of 2000
        cfg = synth.SynthConfig(seed=700, preset="name-fights", n_name_fights=2000)
        result = synth.generate(cfg)
        manifest, _ = synth.write_output(result, tmp_path / "namefights")
        corpus = load_corpus(manifest).corpus
        defs, _ = extract_all(corpus)
        timelines = build_timelines(corpus, defs)
        ledger = ExperienceLedger(corpus)
        name_fights = fights.detect_name_fights(corpus, timelines, ledger)
        assert len(name_fights) == 2000, f"detected {len(name_fights)}"
        rate, wins, n = overall_older_win_rate(name_fights, seed=0)
        assert abs(rate - (1 - synth.NAME_FIGHT_YOUNGER_WIN)) <= 0.03, f"older-win rate {rate:.4f}"
        p_value = binomial_test(wins, n, 0.5)
        assert p_value < 0.01, f"p={p_value}"
        # visible title fights: high experience dominant in 57% of 1500 pairs
        cfg = synth.SynthConfig(seed=701, preset="title-fights", n_title_pairs=1500)
        result = synth.generate(cfg)
        manifest, _ = synth.write_output(result, tmp_path / "titlefights")
        corpus = load_corpus(manifest).corpus
        title_fights = fights.detect_title_fights(corpus, "colon", ExperienceLedger(corpus))
        assert len(title_fights) == 3000, f"detected {len(title_fights)}"
        pairs, unmatched = fights.match_title_fights(title_fights)
        assert len(pairs) == 1500, f"matched {len(pairs)} (unmatched {unmatched})"
        dom_rate, _, _ = high_dominance_rate(pairs)
        assert abs(dom_rate - synth.TITLE_HIGH_DOMINANCE) <= 0.04, f"dominance rate {dom_rate:.4f}"


_BATTERY = (
    ["extract"],
    ["timelines"],
    ["changeovers"],
    ["matched-pairs"],
    ["curves"],
    ["fights", "name", "--seed", "1"],
    ["fights", "body", "--seed", "1"],
    ["fights", "title"],
    ["report"],
)


def _run_battery(corpus_path, outdir, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    for argv in _BATTERY:
        full = [sys.executable, "-m", "macrolens.cli"] + argv + [
            "--corpus", str(corpus_path), "--out", str(outdir),
        ]
        proc = subprocess.run(full, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{argv}: {proc.stderr}"
    features = Path(outdir) / "name_fight_features.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "macrolens.cli", "predict", "--features", str(features),
         "--out", str(outdir), "--seed", "2"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "same seed gives byte-identical output trees across processes"):
        corpora = []
        for tag, hashseed in (("a", "1"), ("b", "2")):
            cdir = tmp_path / f"corpus_{tag}"
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "macrolens.cli", "synth", "--preset", "full",
                 "--seed", "9", "--out", str(cdir), "--changeover-pairs", "3",
                 "--name-fights", "20", "--body-fights", "16", "--title-pairs", "8"],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            corpora.append(cdir / "manifest.jsonl")
        assert corpora[0].read_bytes() == corpora[1].read_bytes()
        trees = []
        for tag, hashseed in (("a", "1"), ("b", "2")):
            outdir = tmp_path / f"out_{tag}"
            outdir.mkdir()
            _run_battery(corpora[0], outdir, hashseed)
            trees.append(_tree_bytes(outdir))
        assert trees[0].keys() == trees[1].keys()
        diffs = [name for name in trees[0] if trees[0][name] != trees[1][name]]
        assert diffs == [], f"differing files: {diffs}"


@pytest.mark.skipif(
    "MACROLENS_ARXIV_MANIFEST" not in os.environ,
    reason="full-corpus check needs a user-supplied bulk snapshot manifest",
)
def test_criterion_9_full_corpus_summary(tmp_path):
    with criterion(9, "full-corpus summary reproduces the six headline counts ±5%"):
        manifest = os.environ["MACROLENS_ARXIV_MANIFEST"]
        assert run(["report", "--corpus", manifest, "--out", str(tmp_path)]) == 0
        import csv

        with open(tmp_path / "summary.csv", encoding="utf-8", newline="") as fh:
            summary = dict(list(csv.reader(fh))[1:])
        expected = {
            "papers_with_macro": 583078,
            "definitions": 22628300,
            "unique_bodies": 2586548,
            "avg_names_per_body": 1.40,
            "unique_authors": 222689,
            "avg_authors_per_paper": 2.35,
        }
        for metric, target in expected.items():
            got = float(summary[metric])
            assert abs(got - target) <= 0.05 * target, f"{metric}: {got} vs {target}"
