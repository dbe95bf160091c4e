"""Self-contained statistics and graph algorithms.

Everything the prediction harness needs, implemented directly so that
oracle tests can check it against naive re-derivations: z-score
normalization, balanced train/test splitting, maximum-likelihood
logistic regression via line-searched gradient descent, the exact
binomial confidence interval, and shortest-path betweenness centrality.
"""

from __future__ import annotations

import logging
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Feature matrices
# ---------------------------------------------------------------------------


class FeatureMatrix(NamedTuple):
    """Features ``X``, (rows, columns) float64, and int64 labels ``y`` in
    {0, 1}; a feature CSV's reader checks them, line by line."""

    columns: list[str]
    X: np.ndarray
    y: np.ndarray

    def take(self, indices: Sequence[int]) -> "FeatureMatrix":
        idx = list(indices)
        return FeatureMatrix(self.columns, self.X[idx], self.y[idx])

    @classmethod
    def from_rows(
        cls, columns: Sequence[str], rows: Iterable[Sequence[float]], labels: Iterable[int]
    ) -> "FeatureMatrix":
        rows = [list(r) for r in rows]
        X = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
        return cls(list(columns), X, np.array(list(labels), dtype=np.int64))


def zscore(matrix: FeatureMatrix) -> tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    """Column-wise (x - mean) / stdev with population stdev, and the means
    and stdevs used.  Zero-variance columns come out all zero (with a
    warning) instead of dividing by zero."""
    if len(matrix.y) < 2:
        raise ValueError("z-score needs at least 2 rows")
    mean = matrix.X.mean(axis=0)
    stdev = matrix.X.std(axis=0)  # population (ddof=0)
    for j in np.flatnonzero(stdev == 0.0):
        log.warning("zero-variance feature column %r maps to zeros", matrix.columns[j])
    return apply_zscore(matrix, mean, stdev), mean, stdev


def apply_zscore(matrix: FeatureMatrix, mean: np.ndarray, stdev: np.ndarray) -> FeatureMatrix:
    """Normalize held-out data with training statistics."""
    safe = np.where(stdev == 0.0, 1.0, stdev)
    normalized = (matrix.X - mean) / safe
    normalized[:, stdev == 0.0] = 0.0
    return FeatureMatrix(matrix.columns, normalized, matrix.y)


def split(
    matrix: FeatureMatrix, train_frac: float = 0.8, seed: int = 0
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Seeded balanced stratified split.

    The majority label is first subsampled to the minority count; each
    label class is then split train/test separately so both sides keep
    a 50/50 label mix.
    """
    if not 0 < train_frac < 1:  # also rejects NaN
        raise ValueError("train_frac must be in (0, 1)")
    rng = random.Random(seed)
    pos = [i for i, v in enumerate(matrix.y) if v == 1]
    neg = [i for i, v in enumerate(matrix.y) if v == 0]
    if not pos or not neg:
        raise ValueError("both labels must be present")
    k = min(len(pos), len(neg))
    cut = int(round(train_frac * k))
    if not 0 < cut < k:
        raise ValueError(f"train_frac {train_frac} with {k} rows per label leaves a side empty")
    pos = sorted(rng.sample(pos, k))
    neg = sorted(rng.sample(neg, k))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for group in (neg, pos):
        shuffled = list(group)
        rng.shuffle(shuffled)
        train_idx.extend(shuffled[:cut])
        test_idx.extend(shuffled[cut:])
    return matrix.take(sorted(train_idx)), matrix.take(sorted(test_idx))


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------


MAX_ITER = 10000
GRAD_TOL = 1e-8  # max-norm convergence threshold


@dataclass
class LogisticModel:
    """One weight per feature column, in column order, and the intercept."""

    weights: np.ndarray
    intercept: float
    iterations: int = 0
    converged: bool = True
    final_loss: float = 0.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_grad(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float
) -> tuple[float, np.ndarray, float]:
    """Mean negative log-likelihood and its gradient in (w, b)."""
    n = X.shape[0]
    z = X @ w + b
    # log(1 + exp(z)) - y*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    p = _sigmoid(z)
    gw = X.T @ (p - y) / n
    gb = float(np.mean(p - y))
    return loss, gw, gb


def logistic_fit(train: FeatureMatrix) -> LogisticModel:
    """Maximum-likelihood fit by gradient descent with backtracking.

    The backtracking line search keeps the loss monotone nonincreasing.
    Stops when the gradient max-norm drops below ``GRAD_TOL`` or after
    ``MAX_ITER`` iterations; non-convergence is reported in the model
    metadata, not raised.
    """
    X = train.X
    y = train.y.astype(np.float64)
    w = np.zeros(X.shape[1])
    b = 0.0
    loss, gw, gb = logistic_loss_and_grad(X, y, w, b)
    step = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        gmax = max(float(np.max(np.abs(gw))) if gw.size else 0.0, abs(gb))
        if gmax < GRAD_TOL:
            converged = True
            iterations -= 1
            break
        gnorm2 = float(gw @ gw) + gb * gb
        step = min(step * 2.0, 1e6)
        improved = False
        while step >= 1e-16:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, gw_new, gb_new = logistic_loss_and_grad(X, y, w_new, b_new)
            if loss_new <= loss - 1e-4 * step * gnorm2:
                improved = True
                break
            step *= 0.5
        if not improved:
            iterations -= 1
            break  # no descent step exists at float precision
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
    return LogisticModel(
        weights=w,
        intercept=b,
        iterations=iterations,
        converged=converged,
        final_loss=loss,
    )


def predict_proba(model: LogisticModel, matrix: FeatureMatrix) -> np.ndarray:
    return _sigmoid(matrix.X @ model.weights + model.intercept)


def count_correct(model: LogisticModel, test: FeatureMatrix) -> int:
    """The number of rows whose label the model predicts (p >= 0.5 is 1)."""
    return int(np.count_nonzero((predict_proba(model, test) >= 0.5) == test.y))


# ---------------------------------------------------------------------------
# Exact binomial confidence interval
# ---------------------------------------------------------------------------


def _log_pmf(k: int, n: int, p: float) -> float:
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _cdf(k: int, n: int, p: float) -> float:
    return sum(math.exp(_log_pmf(i, n, p)) for i in range(0, k + 1))


def binomial_ci(k: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact (Clopper-Pearson) confidence interval for a proportion,
    computed by bisection on the binomial tail probabilities."""
    if not (0 <= k <= n) or n <= 0:
        raise ValueError(f"invalid binomial counts k={k}, n={n}")

    def bisect(test, target: float, increasing: bool) -> float:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            above = test(mid) >= target
            if above == increasing:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    # lower: P(X >= k | p) grows with p; find where it reaches alpha/2
    lower = 0.0 if k == 0 else bisect(lambda p: 1.0 - _cdf(k - 1, n, p), alpha / 2, True)
    # upper: P(X <= k | p) shrinks with p; find where it falls to alpha/2
    upper = 1.0 if k == n else bisect(lambda p: _cdf(k, n, p), alpha / 2, False)
    return lower, upper


# ---------------------------------------------------------------------------
# Betweenness centrality
# ---------------------------------------------------------------------------


def betweenness(adjacency: Mapping[str, Iterable[str]]) -> dict[str, float]:
    """Unnormalized shortest-path betweenness, unordered pairs counted once.

    Brandes' single-source accumulation from every source, over node
    indices in sorted-name order; the ordered-pair total is halved at the
    end.  Disconnected pairs contribute nothing, and a source adds to the
    nodes it reaches only, so a node's score depends on its own connected
    component alone.  Each source resets just the nodes it reached, which
    makes a graph of many small components cost the sum of their own
    Brandes costs.
    """
    nodes = sorted(adjacency)
    position = {v: i for i, v in enumerate(nodes)}
    adj = [sorted(position[w] for w in adjacency[v]) for v in nodes]
    n = len(nodes)
    scores = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    sigma = [0.0] * n
    dist = [-1] * n
    delta = [0.0] * n
    for source in range(n):
        stack: list[int] = []  # BFS order
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
        for w in reversed(stack):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                scores[w] += delta[w]
        for v in stack:
            preds[v] = []
            sigma[v] = 0.0
            dist[v] = -1
            delta[v] = 0.0
    return {v: s / 2.0 for v, s in zip(nodes, scores)}
