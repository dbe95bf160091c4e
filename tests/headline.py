"""Single-number summaries of the planted fight effects, for the tests.

The CLI reports per-gap-bucket tables (``fights.win_rate_by_gap``,
``fights.dominance_by_gap``); the acceptance suite also checks one overall
rate per fight kind and the exact binomial test on it, which only the
tests use, so they live here rather than in the package.
"""

from __future__ import annotations

import math
from typing import Sequence

from macrolens.analytics import _log_pmf
from macrolens.fights import FightRecord, TitleFightPair, balance_by_position


def binomial_test(k: int, n: int, p0: float = 0.5) -> float:
    """Exact two-sided p-value under Binomial(n, p0).

    Sums the probability of every outcome no more likely than the
    observed one (with a tiny relative slack for floating point).
    """
    if not (0 <= k <= n) or n < 0:
        raise ValueError(f"invalid binomial counts k={k}, n={n}")
    if not (0.0 <= p0 <= 1.0):
        raise ValueError(f"invalid null probability {p0}")
    threshold = _log_pmf(k, n, p0) + 1e-9
    total = 0.0
    for i in range(n + 1):
        lp = _log_pmf(i, n, p0)
        if lp <= threshold:
            total += math.exp(lp)
    return min(total, 1.0)


def overall_older_win_rate(
    fights: Sequence[FightRecord], seed: int = 0
) -> tuple[float, int, int]:
    """(rate, older wins, decided fights) over the balanced set."""
    usable = balance_by_position(fights, seed)
    decided = [f.older_won() for f in usable if f.older_won() is not None]
    if not decided:
        raise ValueError("no decided fights")
    wins = sum(decided)
    return wins / len(decided), wins, len(decided)


def high_dominance_rate(pairs: Sequence[TitleFightPair]) -> tuple[float, int, int]:
    if not pairs:
        raise ValueError("no pairs")
    highs = sum(1 for p in pairs if p.verdict() == "high")
    return highs / len(pairs), highs, len(pairs)
