"""Global competition between names for one body.

Detects changeovers (an early dominant name displaced by a late one),
samples sliding-window usage curves, finds persistent crossing points,
builds matched changeover/control pairs, and derives the experience
curves and feature vectors used by the prediction harness.

All fractions here are author fractions: the share of authors in an
occurrence window that used a given name, out of all authors appearing
in the window.  An author using both names in one window counts for
both, so fractions can sum above 1.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

from .extraction import name_features
from .timelines import BodyTimeline, ExperienceLedger, interval, window_bounds

MAX_WINDOWS = 10_000  # the largest window grid a delta may give


@dataclass(frozen=True)
class ChangeoverParams:
    """Detection knobs: volume floor s, edge fraction q, author-share
    threshold, sliding-window increment, crossing persistence span."""

    s: int = 100
    q: float = 0.3
    theta: float = 0.3
    delta: float = 0.05
    persistence: float = 0.1

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if not 0 < self.q <= 0.5:
            raise ValueError("q must be in (0, 0.5]")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if (windows := _window_count(self.delta)) > MAX_WINDOWS:
            raise ValueError(f"--delta {self.delta!r} gives {windows} windows, "
                             f"more than {MAX_WINDOWS}")
        if not 0 < self.persistence < math.inf:
            raise ValueError("persistence must be positive and finite")


def _window_count(delta: float) -> int:
    return int(math.floor((1.0 - delta) / delta + 1e-9)) + 1


def window_grid(delta: float) -> tuple[float, ...]:
    """Window start points: multiples of delta up to 1 - delta."""
    return tuple(k * delta for k in range(_window_count(delta)))


def name_users(occurrences: Sequence) -> dict[str, set[str]]:
    """Each name's set of authors in one window, by first occurrence."""
    users: dict[str, set[str]] = {}
    for occ in occurrences:
        users.setdefault(occ.name, set()).update(occ.authors)
    return users


def name_shares(occurrences: Sequence) -> dict[str, float]:
    """Each name's author share in one window, by first occurrence: the
    share of the window's authors that used the name there."""
    users = name_users(occurrences)
    n_authors = len(set().union(*users.values()))
    if not n_authors:
        raise ValueError("interval has no authors")
    return {name: len(authors) / n_authors for name, authors in users.items()}


def most_used_name(occurrences: Sequence) -> str:
    """Name with the most occurrences; ties go to the name whose first
    occurrence in the slice comes earlier (a ``Counter`` keeps names in
    first-occurrence order, and ``max`` returns the first maximal one)."""
    if not occurrences:
        raise ValueError("empty occurrence slice")
    counts = Counter(occ.name for occ in occurrences)
    return max(counts, key=counts.__getitem__)


def crossing_point(
    f_curve: Sequence[float], g_curve: Sequence[float], delta: float, persistence: float
) -> float | None:
    """Earliest grid point ``i * delta`` from which g stays >= f for the
    persistence span; curves of different lengths raise ValueError.

    Evaluated on grid points only; near the end of the grid the span is
    clamped to the points that exist.
    """
    holds = [g >= f for f, g in zip(f_curve, g_curve, strict=True)]
    span = int(round(min(persistence / delta, len(holds))))  # any span >= last ends at last
    last = len(holds) - 1
    for i in range(len(holds)):
        if all(holds[i : min(i + span, last) + 1]):
            return i * delta
    return None


@dataclass
class ChangeoverRecord:
    """A changeover of ``timeline``'s body: its edge names, their author
    shares in the early window, their usage curves on the window grid
    and the crossing point."""

    early_name: str
    late_name: str
    f_beta: float
    g_beta: float
    f_curve: tuple[float, ...]
    g_curve: tuple[float, ...]
    crossing: float | None
    timeline: BodyTimeline = field(repr=False)


def changeover_names(
    timeline: BodyTimeline, params: ChangeoverParams
) -> tuple[str, str, dict[str, float]] | None:
    """Changeover test: volume floor, distinct early/late dominant names,
    both above the author-share threshold in their edge windows.

    Returns the (early, late) dominant names of a changeover and every
    name's author share in the early window, else None.
    """
    if timeline.m < params.s:
        return None
    early = interval(timeline, 0.0, params.q)
    late = interval(timeline, 1.0 - params.q, 1.0)
    n_early = most_used_name(early)
    n_late = most_used_name(late)
    if n_early == n_late:
        return None
    shares = name_shares(early)
    if shares[n_early] <= params.theta or name_shares(late)[n_late] <= params.theta:
        return None
    return n_early, n_late, shares


def detect_changeover(timeline: BodyTimeline, params: ChangeoverParams) -> ChangeoverRecord | None:
    """The changeover record, with its sliding usage curves and crossing
    point, of a body passing :func:`changeover_names`; else None."""
    names = changeover_names(timeline, params)
    if names is None:
        return None
    n_early, n_late, early_shares = names
    shares = [
        name_shares(interval(timeline, t, t + params.delta)) for t in window_grid(params.delta)
    ]
    f_curve = tuple(s.get(n_early, 0.0) for s in shares)
    g_curve = tuple(s.get(n_late, 0.0) for s in shares)
    return ChangeoverRecord(
        early_name=n_early,
        late_name=n_late,
        f_beta=early_shares[n_early],
        g_beta=early_shares.get(n_late, 0.0),
        f_curve=f_curve,
        g_curve=g_curve,
        crossing=crossing_point(f_curve, g_curve, params.delta, params.persistence),
        timeline=timeline,
    )


def aggregate_median_curves(
    records: Sequence[ChangeoverRecord],
) -> tuple[tuple[float, ...], tuple[float, ...], list[tuple[float, int]]]:
    """Pointwise median early/late curves plus a crossing-point histogram;
    curves of different lengths raise ValueError."""
    if not records:
        raise ValueError("no changeover records to aggregate")
    curves = [rec.f_curve for rec in records] + [rec.g_curve for rec in records]
    points = list(zip(*curves, strict=True))
    n = len(records)
    f_median = tuple(statistics.median(p[:n]) for p in points)
    g_median = tuple(statistics.median(p[n:]) for p in points)
    hist = Counter(rec.crossing for rec in records if rec.crossing is not None)
    return f_median, g_median, sorted(hist.items())


# matching bounds: changeover/control volume ratio band and the largest
# early-prevalence gap (exclusive) for either name
MATCH_RATIO_LO = 0.91
MATCH_RATIO_HI = 1.1
MATCH_PREVALENCE_TOL = 0.01


@dataclass
class ControlCandidate:
    """A non-changeover body eligible as a matched control."""

    timeline: BodyTimeline
    early_name: str
    early_prevalence: float
    # the other early names' prevalences, in first-occurrence order in
    # the early window (match_pairs breaks ties by that order)
    others: dict[str, float]


def find_control_candidates(
    timelines: Mapping[tuple[str, str], BodyTimeline], params: ChangeoverParams
) -> list[ControlCandidate]:
    """Bodies meeting the volume floor but failing the changeover test,
    with at least two names present in the early window."""
    out: list[ControlCandidate] = []
    for tl in timelines.values():
        if tl.m < params.s or changeover_names(tl, params) is not None:
            continue
        early = interval(tl, 0.0, params.q)
        n_early = most_used_name(early)
        others = name_shares(early)
        prevalence = others.pop(n_early)
        if others:
            out.append(ControlCandidate(tl, n_early, prevalence, others))
    return out


@dataclass
class MatchedPair:
    record: ChangeoverRecord
    control: BodyTimeline
    control_early_name: str
    control_late_name: str
    f_gamma: float
    g_gamma: float


def match_pairs(
    changeovers: Sequence[ChangeoverRecord],
    candidates: Sequence[ControlCandidate],
) -> tuple[list[MatchedPair], int]:
    """Greedy matching without replacement, largest controls first.

    A control matches when the volume ratio sits in the allowed band and
    both early-prevalence gaps are under the tolerance; its second name
    is the one closest in early prevalence to the changeover's late
    name, ties going to the name that occurs first in the control's
    early window.  The changeover's early shares are the record's
    ``f_beta`` and ``g_beta``.  Returns the pairs and the count of
    unmatched changeovers.
    """
    pool = sorted(candidates, key=lambda c: (-c.timeline.m, c.timeline.key))
    used = [False] * len(pool)
    pairs: list[MatchedPair] = []
    unmatched = 0
    for rec in sorted(changeovers, key=lambda r: (-r.timeline.m, r.timeline.key)):
        for idx, cand in enumerate(pool):
            if used[idx]:
                continue
            ratio = rec.timeline.m / cand.timeline.m
            if not (MATCH_RATIO_LO <= ratio <= MATCH_RATIO_HI):
                continue
            if abs(rec.f_beta - cand.early_prevalence) >= MATCH_PREVALENCE_TOL:
                continue
            gaps = {name: abs(rec.g_beta - share) for name, share in cand.others.items()}
            late_name = min(gaps, key=gaps.__getitem__)
            if gaps[late_name] >= MATCH_PREVALENCE_TOL:
                continue
            break
        else:
            unmatched += 1
            continue
        used[idx] = True
        pairs.append(MatchedPair(rec, cand.timeline, cand.early_name, late_name,
                                 cand.early_prevalence, cand.others[late_name]))
    return pairs, unmatched


# ---------------------------------------------------------------------------
# Experience curves and prediction features
# ---------------------------------------------------------------------------


def _first_use_positions(timeline: BodyTimeline) -> dict[tuple[str, str], int]:
    first: dict[tuple[str, str], int] = {}
    for idx, occ in enumerate(timeline.occurrences):
        for author in occ.authors:
            first.setdefault((author, occ.name), idx)
    return first


def _sides(pair: MatchedPair) -> tuple[tuple[BodyTimeline, str, str], ...]:
    """(timeline, early name, late name) of the changeover, then the control."""
    return (
        (pair.record.timeline, pair.record.early_name, pair.record.late_name),
        (pair.control, pair.control_early_name, pair.control_late_name),
    )


def _mean_experience(
    timeline: BodyTimeline,
    name: str,
    t0: float,
    t1: float,
    ledger: ExperienceLedger,
    first_use: dict[tuple[str, str], int],
) -> tuple[float | None, float | None]:
    """Mean experience of the authors using ``name`` in the window, one
    value per use (usage), then one per first use (adoption); None where
    there is none."""
    start, end = window_bounds(timeline.m, t0, t1)
    usage, adoption = [], []
    for idx in range(start, end):
        occ = timeline.occurrences[idx]
        if occ.name != name:
            continue
        for author in occ.authors:
            usage.append(ledger.experience_at_rank(author, occ.group_rank))
            if first_use[(author, name)] == idx:
                adoption.append(usage[-1])
    return tuple(sum(values) / len(values) if values else None for values in (usage, adoption))


EXPERIENCE_SERIES = (
    "usage_early",
    "usage_late",
    "usage_early_control",
    "usage_late_control",
    "adoption_early",
    "adoption_late",
    "adoption_early_control",
    "adoption_late_control",
)


def experience_curves(
    pairs: Sequence[MatchedPair], ledger: ExperienceLedger, delta: float
) -> dict[str, list[float | None]]:
    """Each of the ``EXPERIENCE_SERIES``: the mean usage/adoption
    experience per window of ``window_grid(delta)`` for the four names,
    averaged across pairs; windows empty in every pair come out None."""
    if not pairs:
        raise ValueError("no matched pairs")
    grid = window_grid(delta)
    sums = {name: [0.0] * len(grid) for name in EXPERIENCE_SERIES}
    counts = {name: [0] * len(grid) for name in EXPERIENCE_SERIES}
    for pair in pairs:
        for side, (timeline, *names) in zip(("", "_control"), _sides(pair)):
            first_use = _first_use_positions(timeline)
            for edge, name in zip(("early", "late"), names):
                series = (f"usage_{edge}{side}", f"adoption_{edge}{side}")
                for i, t in enumerate(grid):
                    means = _mean_experience(timeline, name, t, t + delta, ledger, first_use)
                    for key, mean in zip(series, means):
                        if mean is not None:
                            sums[key][i] += mean
                            counts[key][i] += 1
    return {
        name: [(sums[name][i] / counts[name][i]) if counts[name][i] else None
               for i in range(len(grid))]
        for name in EXPERIENCE_SERIES
    }


FEATURE_WINDOW_WIDTH = 0.05


def _feature_window_count(q: float) -> int:
    """How many feature windows of FEATURE_WINDOW_WIDTH fit in the edge window q."""
    return int(math.floor(q / FEATURE_WINDOW_WIDTH + 1e-9))


def changeover_feature_columns(q: float) -> list[str]:
    n_windows = _feature_window_count(q)
    cols = ["early_authors_e", "early_authors_l"]
    for tag in ("e", "l"):
        for kind in ("usage", "adoption"):
            for w in range(n_windows):
                cols.append(f"{kind}_exp_{tag}_w{w}")
                cols.append(f"{kind}_exp_{tag}_w{w}_missing")
    for tag in ("e", "l"):
        cols.extend(
            [
                f"name_len_{tag}",
                f"name_non_alpha_{tag}",
                f"name_frac_lower_{tag}",
                f"name_frac_upper_{tag}",
            ]
        )
    return cols


def changeover_features(
    pair: MatchedPair, q: float, ledger: ExperienceLedger
) -> tuple[list[float], list[float]]:
    """Feature rows for the changeover body (label 1) and its control
    (label 0): early author counts, windowed experiences with missing
    flags, and name orthography."""
    n_windows = _feature_window_count(q)
    rows: list[list[float]] = []
    for timeline, *names in _sides(pair):
        first_use = _first_use_positions(timeline)
        users = name_users(interval(timeline, 0.0, q))
        row = [float(len(users.get(name, ()))) for name in names]
        for name in names:
            means = [
                _mean_experience(timeline, name, t, t + FEATURE_WINDOW_WIDTH, ledger, first_use)
                for t in (w * FEATURE_WINDOW_WIDTH for w in range(n_windows))
            ]
            for mean in chain(*zip(*means)):  # the usage windows, then the adoption windows
                row.extend([0.0, 1.0] if mean is None else [mean, 0.0])
        for name in names:
            row.extend(name_features(name))
        rows.append(row)
    return rows[0], rows[1]
