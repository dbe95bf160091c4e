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


@dataclass(frozen=True)
class Curve:
    """A function sampled on the shared window grid {0, d, 2d, ...}."""

    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values differ in length")


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


def crossing_point(f_curve: Curve, g_curve: Curve, persistence: float) -> float | None:
    """Earliest grid t from which g stays >= f for the persistence span.

    Evaluated on grid points only; near the end of the grid the span is
    clamped to the points that exist.
    """
    if f_curve.grid != g_curve.grid:
        raise ValueError("curves sampled on different grids")
    grid = f_curve.grid
    if not grid:
        return None
    delta = grid[1] - grid[0] if len(grid) > 1 else 1.0
    span = int(round(min(persistence / delta, len(grid))))  # any span >= last ends at last
    last = len(grid) - 1
    for i in range(len(grid)):
        hi = min(i + span, last)
        if all(g_curve.values[j] >= f_curve.values[j] for j in range(i, hi + 1)):
            return grid[i]
    return None


@dataclass
class ChangeoverRecord:
    body: str
    signature: str
    early_name: str
    late_name: str
    m: int
    f_curve: Curve
    g_curve: Curve
    crossing: float | None
    timeline: BodyTimeline = field(repr=False)


def changeover_names(timeline: BodyTimeline, params: ChangeoverParams) -> tuple[str, str] | None:
    """Changeover test: volume floor, distinct early/late dominant names,
    both above the author-share threshold in their edge windows.

    Returns the (early, late) dominant names of a changeover, else None.
    """
    if timeline.m < params.s:
        return None
    early = interval(timeline, 0.0, params.q)
    late = interval(timeline, 1.0 - params.q, 1.0)
    n_early = most_used_name(early)
    n_late = most_used_name(late)
    if n_early == n_late:
        return None
    if name_shares(early)[n_early] <= params.theta or name_shares(late)[n_late] <= params.theta:
        return None
    return n_early, n_late


def detect_changeover(timeline: BodyTimeline, params: ChangeoverParams) -> ChangeoverRecord | None:
    """The changeover record, with its sliding usage curves and crossing
    point, of a body passing :func:`changeover_names`; else None."""
    names = changeover_names(timeline, params)
    if names is None:
        return None
    n_early, n_late = names
    grid = window_grid(params.delta)
    shares = [name_shares(interval(timeline, t, t + params.delta)) for t in grid]
    f_curve = Curve(grid, tuple(s.get(n_early, 0.0) for s in shares))
    g_curve = Curve(grid, tuple(s.get(n_late, 0.0) for s in shares))
    return ChangeoverRecord(
        body=timeline.body,
        signature=timeline.signature,
        early_name=n_early,
        late_name=n_late,
        m=timeline.m,
        f_curve=f_curve,
        g_curve=g_curve,
        crossing=crossing_point(f_curve, g_curve, params.persistence),
        timeline=timeline,
    )


def aggregate_median_curves(
    records: Sequence[ChangeoverRecord],
) -> tuple[Curve, Curve, list[tuple[float, int]]]:
    """Pointwise median early/late curves plus a crossing-point histogram."""
    if not records:
        raise ValueError("no changeover records to aggregate")
    grid = records[0].f_curve.grid
    for rec in records:
        if rec.f_curve.grid != grid or rec.g_curve.grid != grid:
            raise ValueError("records sampled on different grids")
    f_median = tuple(
        statistics.median(rec.f_curve.values[i] for rec in records) for i in range(len(grid))
    )
    g_median = tuple(
        statistics.median(rec.g_curve.values[i] for rec in records) for i in range(len(grid))
    )
    hist: dict[float, int] = {}
    for rec in records:
        if rec.crossing is not None:
            hist[rec.crossing] = hist.get(rec.crossing, 0) + 1
    return Curve(grid, f_median), Curve(grid, g_median), sorted(hist.items())


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
    for key in sorted(timelines):
        tl = timelines[key]
        if tl.m < params.s:
            continue
        if changeover_names(tl, params) is not None:
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
    f_beta: float
    g_beta: float
    f_gamma: float
    g_gamma: float

    @property
    def m_beta(self) -> int:
        return self.record.m

    @property
    def m_gamma(self) -> int:
        return self.control.m


def match_pairs(
    changeovers: Sequence[ChangeoverRecord],
    candidates: Sequence[ControlCandidate],
    params: ChangeoverParams,
) -> tuple[list[MatchedPair], int]:
    """Greedy matching without replacement, largest controls first.

    A control matches when the volume ratio sits in the allowed band and
    both early-prevalence gaps are under the tolerance; its second name
    is the one closest in early prevalence to the changeover's late
    name, ties going to the name that occurs first in the control's
    early window.  Returns the pairs and the count of unmatched changeovers.
    """
    pool = sorted(candidates, key=lambda c: (-c.timeline.m, c.timeline.key))
    used = [False] * len(pool)
    pairs: list[MatchedPair] = []
    unmatched = 0
    for rec in sorted(changeovers, key=lambda r: (-r.m, (r.signature, r.body))):
        shares = name_shares(interval(rec.timeline, 0.0, params.q))
        f_b, g_b = shares.get(rec.early_name, 0.0), shares.get(rec.late_name, 0.0)
        hit = None
        for idx, cand in enumerate(pool):
            if used[idx]:
                continue
            ratio = rec.m / cand.timeline.m
            if not (MATCH_RATIO_LO <= ratio <= MATCH_RATIO_HI):
                continue
            if abs(f_b - cand.early_prevalence) >= MATCH_PREVALENCE_TOL:
                continue
            gaps = {name: abs(g_b - share) for name, share in cand.others.items()}
            late_name = min(gaps, key=gaps.__getitem__)
            if gaps[late_name] >= MATCH_PREVALENCE_TOL:
                continue
            hit = (idx, cand, late_name)
            break
        if hit is None:
            unmatched += 1
            continue
        idx, cand, late_name = hit
        used[idx] = True
        pairs.append(
            MatchedPair(
                record=rec,
                control=cand.timeline,
                control_early_name=cand.early_name,
                control_late_name=late_name,
                f_beta=f_b,
                g_beta=g_b,
                f_gamma=cand.early_prevalence,
                g_gamma=cand.others[late_name],
            )
        )
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


@dataclass
class ExperienceCurves:
    grid: tuple[float, ...]
    series: dict[str, list[float | None]]


def experience_curves(
    pairs: Sequence[MatchedPair], ledger: ExperienceLedger, delta: float
) -> ExperienceCurves:
    """Mean usage/adoption experience per window for the four names,
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
    series_out: dict[str, list[float | None]] = {}
    for name in EXPERIENCE_SERIES:
        series_out[name] = [
            (sums[name][i] / counts[name][i]) if counts[name][i] else None
            for i in range(len(grid))
        ]
    return ExperienceCurves(grid=grid, series=series_out)


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
            nf = name_features(name)
            row.extend([float(nf.length), float(nf.non_alpha), nf.frac_lower, nf.frac_upper])
        rows.append(row)
    return rows[0], rows[1]
