import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolens.analytics import (
    FeatureMatrix,
    TrainConfig,
    accuracy,
    apply_zscore,
    betweenness,
    binomial_ci,
    binomial_test,
    logistic_fit,
    logistic_loss_and_grad,
    predict_proba,
    split,
    zscore,
)

from oracles import oracle_betweenness


def matrix(rows, labels, columns=None):
    columns = columns or [f"f{i}" for i in range(len(rows[0]))]
    return FeatureMatrix.from_rows(columns, rows, labels)


class TestZscore:
    def test_hand_computed(self):
        m = matrix([[1.0], [3.0]], [0, 1])
        normalized, stats = zscore(m)
        assert normalized.X[:, 0].tolist() == [-1.0, 1.0]  # population stdev
        assert stats.mean == (2.0,)
        assert stats.stdev == (1.0,)

    def test_constant_column_zeros_with_warning(self, caplog):
        m = matrix([[5.0, 1.0], [5.0, 2.0]], [0, 1])
        with caplog.at_level("WARNING"):
            normalized, _ = zscore(m)
        assert normalized.X[:, 0].tolist() == [0.0, 0.0]
        assert any("zero-variance" in r.message for r in caplog.records)

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        m = FeatureMatrix([f"f{i}" for i in range(3)], X, np.zeros(50, dtype=int) % 2)
        m.y[::2] = 1
        normalized, _ = zscore(m)
        assert np.abs(normalized.X - X).max() < 1e-12

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            zscore(matrix([[1.0]], [0]))

    def test_test_data_uses_training_stats(self):
        train = matrix([[0.0], [2.0]], [0, 1])
        test = matrix([[4.0]], [1])
        _, stats = zscore(train)
        out = apply_zscore(test, stats)
        assert out.X[0, 0] == 3.0  # (4 - 1) / 1


class TestSplit:
    def test_balanced_split_counts(self):
        m = matrix([[float(i)] for i in range(200)], [0] * 100 + [1] * 100)
        train, test = split(m, seed=1)
        assert train.n_rows == 160 and test.n_rows == 40
        assert int(train.y.sum()) == 80 and int(test.y.sum()) == 20

    def test_imbalanced_subsampled_first(self):
        m = matrix([[float(i)] for i in range(200)], [0] * 150 + [1] * 50)
        train, test = split(m, seed=1)
        assert train.n_rows + test.n_rows == 100
        assert int(train.y.sum()) == 40 and int(test.y.sum()) == 10

    def test_deterministic(self):
        m = matrix([[float(i)] for i in range(100)], [i % 2 for i in range(100)])
        a = split(m, seed=7)
        b = split(m, seed=7)
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            split(matrix([[1.0], [2.0]], [1, 1]))


def _separable_data(seed, n=400, margin=0.5):
    rng = random.Random(seed)
    rows, labels = [], []
    for _ in range(n):
        y = rng.random() < 0.5
        base = margin if y else -margin
        rows.append([base + rng.gauss(0, 0.15), rng.gauss(0, 1)])
        labels.append(int(y))
    return matrix(rows, labels)


class TestLogistic:
    def test_separable_holdout_accuracy(self):
        m = _separable_data(0, n=1000)
        train_raw, test_raw = split(m, seed=0)
        train, stats = zscore(train_raw)
        test = apply_zscore(test_raw, stats)
        model = logistic_fit(train)
        assert accuracy(model, test) >= 0.95

    def test_random_labels_near_chance(self):
        rng = random.Random(3)
        rows = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(2000)]
        labels = [rng.randint(0, 1) for _ in range(2000)]
        m = matrix(rows, labels)
        train_raw, test_raw = split(m, seed=0)
        train, stats = zscore(train_raw)
        test = apply_zscore(test_raw, stats)
        model = logistic_fit(train)
        assert 0.4 <= accuracy(model, test) <= 0.6

    def test_sign_sanity(self):
        rng = random.Random(5)
        rows = [[rng.gauss(0, 1)] for _ in range(500)]
        labels = [int(r[0] > 0) for r in rows]
        model = logistic_fit(matrix(rows, labels))
        assert model.weights[0] > 0

    def test_loss_monotone_nonincreasing(self):
        # the fit is deterministic, so a fit capped at k iterations ends at
        # the loss the uncapped fit reached after its k-th step
        m = _separable_data(1, n=200)
        caps = [*range(0, 100), *range(100, 501, 25)]
        hist = [logistic_fit(m, TrainConfig(max_iter=k)).final_loss for k in caps]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            n, d = 40, 3
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            for _ in range(10):
                w = rng.normal(size=d)
                b = float(rng.normal())
                _, gw, gb = logistic_loss_and_grad(X, y, w, b)
                h = 1e-5
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    lp, _, _ = logistic_loss_and_grad(X, y, w + e, b)
                    lm, _, _ = logistic_loss_and_grad(X, y, w - e, b)
                    fd = (lp - lm) / (2 * h)
                    assert abs(fd - gw[j]) <= 1e-5 * max(1.0, abs(gw[j]))
                lp, _, _ = logistic_loss_and_grad(X, y, w, b + h)
                lm, _, _ = logistic_loss_and_grad(X, y, w, b - h)
                fd = (lp - lm) / (2 * h)
                assert abs(fd - gb) <= 1e-5 * max(1.0, abs(gb))

    def test_rescaling_invariance_after_zscore(self):
        m = _separable_data(2, n=300)
        scaled = FeatureMatrix(m.columns, m.X * np.array([100.0, 0.01]), m.y)
        accs = []
        for data in (m, scaled):
            train_raw, test_raw = split(data, seed=9)
            train, stats = zscore(train_raw)
            test = apply_zscore(test_raw, stats)
            model = logistic_fit(train)
            accs.append(accuracy(model, test))
        assert accs[0] == pytest.approx(accs[1], abs=1e-12)

    def test_predict_is_sigmoid(self):
        m = _separable_data(6, n=100)
        model = logistic_fit(m, TrainConfig(max_iter=50))
        row = m.X[0]
        z = float(np.dot(model.weights, row) + model.intercept)
        assert predict_proba(model, m.take([0]))[0] == pytest.approx(1 / (1 + math.exp(-z)))


def _direct_binomial_two_sided(k, n, p0):
    """Oracle: direct summation over all n+1 outcomes with exact combs."""
    pmf = [math.comb(n, i) * (p0**i) * ((1 - p0) ** (n - i)) for i in range(n + 1)]
    return min(1.0, sum(p for p in pmf if p <= pmf[k] * (1 + 1e-9)))


class TestBinomial:
    def test_all_heads(self):
        assert binomial_test(10, 10, 0.5) == pytest.approx(
            _direct_binomial_two_sided(10, 10, 0.5), abs=1e-12
        )
        assert binomial_test(10, 10, 0.5) == pytest.approx(0.001953125, abs=1e-12)

    def test_even_split(self):
        assert binomial_test(5, 10, 0.5) == pytest.approx(1.0)

    def test_single_trial(self):
        assert binomial_test(0, 1, 0.5) == pytest.approx(1.0)

    def test_against_direct_summation(self, rng):
        for _ in range(50):
            n = rng.randint(1, 60)
            k = rng.randint(0, n)
            p0 = rng.choice([0.3, 0.5, 0.7])
            assert binomial_test(k, n, p0) == pytest.approx(
                _direct_binomial_two_sided(k, n, p0), rel=1e-9, abs=1e-12
            )

    @given(st.integers(0, 80), st.integers(0, 80))
    @settings(max_examples=200)
    def test_symmetry_at_half(self, k, extra):
        n = k + extra
        if n == 0:
            return
        assert binomial_test(k, n, 0.5) == pytest.approx(binomial_test(n - k, n, 0.5), rel=1e-12)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            binomial_test(5, 3)

    def test_ci_closed_form_k1(self):
        # for k=1 the lower bound solves 1-(1-p)^n = alpha/2 exactly
        lo, hi = binomial_ci(1, 4, alpha=0.05)
        assert lo == pytest.approx(1 - (1 - 0.025) ** (1 / 4), abs=1e-9)
        # upper bound: brute-force scan of P(X<=1 | p) = 0.025
        def upper_tail(p):
            return (1 - p) ** 4 + 4 * p * (1 - p) ** 3
        best = min((abs(upper_tail(p / 100000) - 0.025), p / 100000) for p in range(1, 100000))
        assert hi == pytest.approx(best[1], abs=1e-4)

    def test_ci_endpoints(self):
        assert binomial_ci(0, 9)[0] == 0.0
        assert binomial_ci(9, 9)[1] == 1.0


def adjacency(edges, nodes=None):
    nodes = set(nodes or [])
    for a, b in edges:
        nodes.update((a, b))
    adj = {v: [] for v in sorted(nodes)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


class TestBetweenness:
    def test_path_graph(self):
        scores = betweenness(adjacency([("a", "b"), ("b", "c")]))
        assert scores == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_complete_graph(self):
        nodes = "abcd"
        edges = [(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1 :]]
        assert all(v == 0.0 for v in betweenness(adjacency(edges)).values())

    def test_star_five_leaves(self):
        edges = [("hub", f"leaf{i}") for i in range(5)]
        scores = betweenness(adjacency(edges))
        assert scores["hub"] == pytest.approx(10.0)  # C(5,2) pairs routed

    def test_disconnected_pairs_contribute_zero(self):
        scores = betweenness(adjacency([("a", "b")], nodes=["a", "b", "c"]))
        assert scores == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(60):
            n = rng.randint(2, 7)
            nodes = [f"v{i}" for i in range(n)]
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.45:
                        edges.append((nodes[i], nodes[j]))
            mine = betweenness(adjacency(edges, nodes=nodes))
            ref = oracle_betweenness(nodes, edges)
            for v in nodes:
                assert abs(mine[v] - ref[v]) <= 1e-9


def dict_brandes(adjacency, sources=None):
    """Per-source dict Brandes with sources in sorted-name order (or the
    given order): the summation-order reference that ``betweenness`` must
    reproduce bit for bit."""
    nodes = sorted(adjacency)
    adj = {v: sorted(adjacency[v]) for v in nodes}
    scores = {v: 0.0 for v in nodes}
    for source in nodes if sources is None else sources:
        stack = []
        preds = {v: [] for v in nodes}
        sigma = {v: 0.0 for v in nodes}
        dist = {v: -1 for v in nodes}
        sigma[source] = 1.0
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                scores[w] += delta[w]
    return {v: s / 2.0 for v, s in scores.items()}


def component(adj, roots):
    reached = set(roots)
    todo = list(roots)
    while todo:
        for w in adj[todo.pop()]:
            if w not in reached:
                reached.add(w)
                todo.append(w)
    return reached


class TestBetweennessBitExact:
    @staticmethod
    def random_graph(rng):
        """Up to ~40 nodes in 1-5 components of mixed density; random
        names, so the components interleave in sorted-name order."""
        names = rng.sample([a + b + c for a in "abcdefgh" for b in "ijklmn" for c in "opqrst"], 40)
        edges = []
        nodes = []
        for _ in range(rng.randint(1, 5)):
            part = [names.pop() for _ in range(rng.randint(1, 8))]
            nodes += part
            density = rng.choice((0.15, 0.3, 0.5, 0.8))
            edges += [
                (x, y) for i, x in enumerate(part) for y in part[i + 1 :] if rng.random() < density
            ]
        return adjacency(edges, nodes=nodes)

    def test_equals_dict_reference_on_graph_and_fighter_components(self):
        rng = random.Random(301)
        order_sensitive = 0
        for _ in range(300):
            adj = self.random_graph(rng)
            ref = dict_brandes(adj)
            assert betweenness(adj) == ref
            fighters = rng.choices(sorted(adj), k=2)
            reached = component(adj, fighters)
            sub = betweenness({v: adj[v] for v in reached})
            assert sorted(sub) == sorted(reached)
            assert all(sub[v] == ref[v] for v in reached)
            reverse = dict_brandes(adj, sources=sorted(adj, reverse=True))
            order_sensitive += reverse != ref
        # another summation order changes some last bits, so == can see it
        assert order_sensitive > 0


class TestOracleBetweenness:
    def test_path(self):
        assert oracle_betweenness(["a", "b", "c"], [("a", "b"), ("b", "c")])["b"] == 1.0

    def test_triangle_zero(self):
        scores = oracle_betweenness(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert all(v == 0.0 for v in scores.values())

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            oracle_betweenness([f"v{i}" for i in range(11)], [])
