"""Local convention fights between pairs of co-authors.

Three kinds of contention events over a two-authored paper:

* name fights: the authors arrive with different names for a shared
  macro body, and the paper uses one of them;
* body fights: roles swapped, the authors arrive with different bodies
  for a shared (whitelisted) macro name;
* title fights: a first collaboration where the paper's title either
  does or does not exhibit a style that the two authors favor to
  different degrees over their lifetimes.

Temporal filters are strict about month-granular data: any candidate
whose ordering evidence is ambiguous (another paper by a participant in
the same tie group as the fight or as a prior use) is discarded rather
than resolved by guesswork.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Sequence

from .analytics import FeatureMatrix, betweenness
from .corpus import Corpus, Paper
from .extraction import body_features
from .timelines import (
    BodyTimeline,
    CoauthorIndex,
    ExperienceLedger,
    coauthor_graph,
    flexibility,
)

DEFAULT_BODY_FIGHT_NAMES = ("\\proof", "\\eps", "\\Re")


@dataclass(frozen=True)
class FightFilters:
    min_distinct_authors: int = 30
    min_shared_len: int = 10
    # robustness variant: three-author papers, contention between the
    # second and third listed authors
    three_author: bool = False


@dataclass(frozen=True)
class FightRecord:
    """One resolved contention: who arrived with what, and whose choice stuck.

    ``shared`` is the macro body for name fights and the macro name for
    body fights; ``variant_a``/``variant_b`` are each author's most
    recent prior choices and ``winner`` indexes the byline (0 = first
    author's choice was used, 1 = second author's).
    """

    kind: str  # "name" or "body"
    paper_id: str
    group_rank: int
    author_a: str
    author_b: str
    shared_key: tuple[str, str]
    shared: str
    variant_a: str
    variant_b: str
    winner: int
    exp_a: int
    exp_b: int

    @property
    def older_experience(self) -> int:
        return max(self.exp_a, self.exp_b)

    @property
    def younger_experience(self) -> int:
        return min(self.exp_a, self.exp_b)

    @property
    def gap(self) -> int:
        return self.older_experience - self.younger_experience

    def older_won(self) -> bool | None:
        """None when the experiences tie and "older" is undefined."""
        if self.exp_a == self.exp_b:
            return None
        older_idx = 0 if self.exp_a > self.exp_b else 1
        return self.winner == older_idx


def _latest_unambiguous_variant(
    timeline: BodyTimeline, author: str, cutoff_rank: int, ledger: ExperienceLedger
) -> str | None:
    """The author's most recent prior choice, or None when unusable.

    Unusable: no prior use, or the author has other papers sharing the
    prior use's tie group (order ambiguous).
    """
    positions = timeline.prior_positions(author, cutoff_rank)
    if not positions:
        return None
    last = timeline.occurrences[positions[-1]]
    if ledger.count_in_group(author, last.group_rank) > 1:
        return None
    return last.name


def _detect_fights(
    kind: str,
    timelines: Mapping,
    ledger: ExperienceLedger,
    filters: FightFilters,
) -> list[FightRecord]:
    candidates: list[FightRecord] = []
    want_authors = 3 if filters.three_author else 2
    for key in sorted(timelines):
        tl = timelines[key]
        if len(tl.distinct_authors()) < filters.min_distinct_authors:
            continue
        if len(tl.body) < filters.min_shared_len:
            continue
        for occ in tl.occurrences:
            if len(occ.authors) != want_authors:
                continue
            a, b = occ.authors[-2:]
            rank = occ.group_rank
            if ledger.count_in_group(a, rank) > 1 or ledger.count_in_group(b, rank) > 1:
                continue
            va = _latest_unambiguous_variant(tl, a, rank, ledger)
            vb = _latest_unambiguous_variant(tl, b, rank, ledger)
            if va is None or vb is None or va == vb:
                continue
            if occ.name not in (va, vb):
                continue
            candidates.append(
                FightRecord(
                    kind=kind,
                    paper_id=occ.paper_id,
                    group_rank=rank,
                    author_a=a,
                    author_b=b,
                    shared_key=tl.key,
                    shared=tl.body,
                    variant_a=va,
                    variant_b=vb,
                    winner=0 if occ.name == va else 1,
                    exp_a=ledger.experience_at_rank(a, rank),
                    exp_b=ledger.experience_at_rank(b, rank),
                )
            )
    # one fight per author pair: the chronologically earliest
    candidates.sort(key=lambda f: (f.group_rank, f.paper_id, f.shared_key))
    chosen: dict[tuple[str, str], FightRecord] = {}
    for fight in candidates:
        pair = (min(fight.author_a, fight.author_b), max(fight.author_a, fight.author_b))
        if pair not in chosen:
            chosen[pair] = fight
    return sorted(chosen.values(), key=lambda f: (f.group_rank, f.paper_id, f.shared_key))


def detect_name_fights(
    corpus: Corpus,
    timelines: Mapping[tuple[str, str], BodyTimeline],
    ledger: ExperienceLedger,
    filters: FightFilters | None = None,
) -> list[FightRecord]:
    """Fights over the name of a shared macro body."""
    return _detect_fights("name", timelines, ledger, filters or FightFilters())


def detect_body_fights(
    name_timelines: Mapping[str, BodyTimeline],
    ledger: ExperienceLedger,
    min_distinct_authors: int = 30,
    three_author: bool = False,
) -> list[FightRecord]:
    """Fights over the body of a shared macro name (roles swapped).

    ``name_timelines`` come from :func:`~macrolens.timelines.build_name_timelines`,
    whose whitelist picks the names considered.  The length filter is
    dropped since these names and bodies are typically short.
    """
    filters = FightFilters(
        min_distinct_authors=min_distinct_authors, min_shared_len=0, three_author=three_author
    )
    return _detect_fights("body", name_timelines, ledger, filters)


def balance_by_position(
    fights: Sequence[FightRecord], seed: int = 0
) -> list[FightRecord]:
    """Subsample so first- and second-listed authors win equally often.

    Selection only; every surviving record is unchanged.
    """
    first_wins = [f for f in fights if f.winner == 0]
    second_wins = [f for f in fights if f.winner == 1]
    rng = random.Random(seed)
    k = min(len(first_wins), len(second_wins))
    sampled = rng.sample(first_wins, k) + rng.sample(second_wins, k)
    return sorted(sampled, key=lambda f: (f.group_rank, f.paper_id, f.shared_key))


@dataclass(frozen=True)
class GapBucketRow:
    lo: int
    hi: int | None  # None = unbounded
    rate: float | None  # None when undefined (no decided fights)
    n: int


def _bucket_rows(
    values: Sequence[tuple[float, bool | None]], bucket_edges: Sequence[int]
) -> list[GapBucketRow]:
    edges = sorted(set(bucket_edges))
    bounds: list[tuple[int, int | None]] = [(0, edges[0] if edges else None)]
    for i, lo in enumerate(edges):
        hi = edges[i + 1] if i + 1 < len(edges) else None
        bounds.append((lo, hi))
    rows = []
    for lo, hi in bounds:
        members = [
            won for gap, won in values if gap >= lo and (hi is None or gap < hi)
        ]
        decided = [w for w in members if w is not None]
        rate = sum(decided) / len(decided) if decided else None
        rows.append(GapBucketRow(lo=lo, hi=hi, rate=rate, n=len(members)))
    return rows


DEFAULT_GAP_EDGES = (1, 2, 4, 8, 16, 32)


def win_rate_by_gap(
    fights: Sequence[FightRecord],
    bucket_edges: Sequence[int] = DEFAULT_GAP_EDGES,
    seed: int = 0,
) -> list[GapBucketRow]:
    """Older-author win rate per experience-gap bucket.

    The fight set is first balanced by byline position (seeded) so that
    position effects cannot masquerade as experience effects.
    Equal-experience fights land in a gap-0 bucket with no defined rate.
    """
    usable = balance_by_position(fights, seed)
    values = [(float(f.gap), f.older_won()) for f in usable]
    return _bucket_rows(values, bucket_edges)


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


# ---------------------------------------------------------------------------
# Fight features
# ---------------------------------------------------------------------------

FIGHT_FEATURE_COLUMNS = [
    "experience_1",
    "experience_2",
    "prior_uses_1",
    "prior_uses_2",
    "flexibility_1",
    "flexibility_2",
    "degree_1",
    "degree_2",
    "betweenness_1",
    "betweenness_2",
    "name_len_1",
    "name_len_2",
    "body_len",
    "body_non_alpha",
    "body_max_depth",
]


def fight_features(
    fight: FightRecord,
    timeline: BodyTimeline,
    corpus: Corpus,
    ledger: ExperienceLedger,
    index: CoauthorIndex,
) -> list[float]:
    """Per-author history and position features plus token orthography.

    For body fights the record's roles are swapped, so the "name"
    columns describe each author's body and the "body" columns the
    shared name.
    """
    graph = coauthor_graph(corpus, timeline, fight.paper_id, index=index)
    adj = graph.adjacency()
    authors = (fight.author_a, fight.author_b)
    # a node's betweenness depends on its own component only
    reached = {a for a in authors if a in adj}
    todo = list(reached)
    while todo:
        for w in adj[todo.pop()]:
            if w not in reached:
                reached.add(w)
                todo.append(w)
    central = betweenness({v: adj[v] for v in reached})
    row: list[float] = [float(fight.exp_a), float(fight.exp_b)]
    for author in authors:
        row.append(float(len(timeline.prior_positions(author, fight.group_rank))))
    for author in authors:
        row.append(flexibility(timeline, author, fight.paper_id, corpus))
    for author in authors:
        row.append(float(len(adj.get(author, []))))
    for author in authors:
        row.append(central.get(author, 0.0))
    row.extend([float(len(fight.variant_a)), float(len(fight.variant_b))])
    bf = body_features(fight.shared)
    row.extend([float(bf.length), float(bf.non_alpha), float(bf.max_brace_depth)])
    return row


def fight_feature_matrix(
    fights: Sequence[FightRecord],
    timelines: Mapping,
    corpus: Corpus,
    ledger: ExperienceLedger,
    index: CoauthorIndex,
) -> FeatureMatrix:
    """Label 0 when the first-listed author wins, 1 when the second does."""
    rows = []
    labels = []
    for fight in fights:
        rows.append(fight_features(fight, timelines[fight.shared_key], corpus, ledger, index))
        labels.append(fight.winner)
    return FeatureMatrix.from_rows(FIGHT_FEATURE_COLUMNS, rows, labels)


# ---------------------------------------------------------------------------
# Title styles and visible fights
# ---------------------------------------------------------------------------

# the first_* styles are "first_" plus a TitleLexicon.first_word_class result
STYLE_NAMES = (
    "colon",
    "question_mark",
    "math",
    "first_noun",
    "first_verb",
    "first_adjective",
    "first_determiner",
)

_MATH_RE = re.compile(r"\$|\\[A-Za-z]+|\\[^A-Za-z\s]")


class TitleLexicon:
    """Closed-class word lists plus suffix heuristics for first-word
    part-of-speech guesses.  Swappable via a JSON file."""

    def __init__(self, data: dict):
        self.determiners = frozenset(data["determiners"])
        self.verbs = frozenset(data["verbs"])
        self.adjectives = frozenset(data["adjectives"])
        self.nouns = frozenset(data["nouns"])
        self.suffixes: list[tuple[str, str]] = []
        for cls, key in (
            ("noun", "noun_suffixes"),
            ("verb", "verb_suffixes"),
            ("adjective", "adjective_suffixes"),
        ):
            for suf in data.get(key, []):
                self.suffixes.append((suf, cls))
        # longest suffix wins; fixed class order breaks exact ties
        order = {"noun": 0, "adjective": 1, "verb": 2}
        self.suffixes.sort(key=lambda sc: (-len(sc[0]), order[sc[1]]))

    @classmethod
    def load(cls, path: str | None = None) -> "TitleLexicon":
        if path is None:
            text = resources.files("macrolens.data").joinpath("title_lexicon.json").read_text(
                encoding="utf-8"
            )
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return cls(json.loads(text))

    def first_word_class(self, word: str) -> str | None:
        word = word.casefold()
        if word in self.determiners:
            return "determiner"
        if word in self.verbs:
            return "verb"
        if word in self.adjectives:
            return "adjective"
        if word in self.nouns:
            return "noun"
        if len(word) >= 5:
            for suf, cls in self.suffixes:
                if word.endswith(suf) and len(word) > len(suf) + 1:
                    return cls
        return None


@functools.cache
def default_lexicon() -> TitleLexicon:
    return TitleLexicon.load()


def _first_word(title: str) -> str | None:
    tokens = title.split()
    if not tokens:
        return None
    word = tokens[0].strip("$\\{}()[]\"'`.,:;!?*~^_-")
    if word and all(("a" <= c <= "z") or ("A" <= c <= "Z") for c in word):
        return word
    return None


def classify_title(title: str, lexicon: TitleLexicon | None = None) -> set[str]:
    """The names in ``STYLE_NAMES`` that the title shows: punctuation and
    math by literal scan, at most one first-word class from the lexicon
    (an unknown first word shows none)."""
    if not title:
        raise ValueError("empty title")
    lex = lexicon or default_lexicon()
    word = _first_word(title)
    cls = lex.first_word_class(word) if word else None
    styles = {f"first_{cls}"} if cls else set()
    if ":" in title:
        styles.add("colon")
    if "?" in title:
        styles.add("question_mark")
    if _MATH_RE.search(title):
        styles.add("math")
    return styles


def _titled_papers_without(ledger: ExperienceLedger, author: str, coauthor: str) -> list[Paper]:
    """The author's titled papers not co-authored with ``coauthor``."""
    return [p for p in ledger.papers_of(author) if coauthor not in p.authors and p.title]


def title_profile(
    ledger: ExperienceLedger,
    author: str,
    style: str,
    exclude_coauthor: str,
    lexicon: TitleLexicon | None = None,
) -> float:
    """Lifetime fraction of the author's papers showing the style,
    skipping papers co-authored with ``exclude_coauthor`` and papers
    without a title.  Uses the whole corpus horizon by design."""
    eligible = _titled_papers_without(ledger, author, exclude_coauthor)
    if not eligible:
        raise ValueError(f"author {author!r} has no eligible papers")
    positives = sum(1 for p in eligible if style in classify_title(p.title, lexicon))
    return positives / len(eligible)


@dataclass(frozen=True)
class TitleFightFilters:
    older_exp_threshold: int = 20
    min_younger_papers: int = 10


@dataclass(frozen=True)
class TitleFight:
    style: str
    paper_id: str
    group_rank: int
    younger: str
    older: str
    exp_younger: int
    exp_older: int
    profile_younger: float
    profile_older: float
    indicator: int


def detect_title_fights(
    corpus: Corpus,
    style: str,
    ledger: ExperienceLedger,
    index: CoauthorIndex,
    filters: TitleFightFilters | None = None,
    lexicon: TitleLexicon | None = None,
) -> list[TitleFight]:
    """Style contentions at first collaborations.

    Candidate papers have exactly two authors who never co-authored
    strictly before (and have no other joint paper in the same tie
    group), an older author above the experience threshold, and a
    younger author with enough non-joint lifetime papers to give a
    meaningful style profile.  Equal experiences assign "younger" to
    the first-listed author.
    """
    if style not in STYLE_NAMES:
        raise ValueError(f"unknown style {style!r}")
    flt = filters or TitleFightFilters()
    lex = lexicon or default_lexicon()
    fights: list[TitleFight] = []
    for paper in corpus:
        if len(paper.authors) != 2 or not paper.title:
            continue
        a, b = paper.authors
        rank = corpus.rank_of(paper.paper_id)
        if index.joint_count_before(a, b, rank) > 0:
            continue
        if index.joint_count_in_group(a, b, rank) > 1:
            continue
        exp_a = ledger.experience_at_rank(a, rank)
        exp_b = ledger.experience_at_rank(b, rank)
        if exp_a <= exp_b:
            younger, older = a, b
            exp_y, exp_o = exp_a, exp_b
        else:
            younger, older = b, a
            exp_y, exp_o = exp_b, exp_a
        if exp_o < flt.older_exp_threshold:
            continue
        if len(_titled_papers_without(ledger, younger, older)) < flt.min_younger_papers:
            continue
        try:
            p_y = title_profile(ledger, younger, style, exclude_coauthor=older, lexicon=lex)
            p_o = title_profile(ledger, older, style, exclude_coauthor=younger, lexicon=lex)
        except ValueError:
            continue
        fights.append(
            TitleFight(
                style=style,
                paper_id=paper.paper_id,
                group_rank=rank,
                younger=younger,
                older=older,
                exp_younger=exp_y,
                exp_older=exp_o,
                profile_younger=p_y,
                profile_older=p_o,
                indicator=1 if style in classify_title(paper.title, lex) else 0,
            )
        )
    fights.sort(key=lambda f: (f.group_rank, f.paper_id))
    return fights


@dataclass(frozen=True)
class TitleFightPair:
    first: TitleFight
    second: TitleFight

    def verdict(self) -> str:
        """"low" when the style showed up where the younger author's
        lifetime tendency is higher, "high" for the older author.

        Symmetric in member order: the member with the higher younger
        profile is found by value, with a deterministic tie-break.
        """
        key = lambda f: (f.profile_younger, -f.profile_older, f.paper_id)
        dominant = max((self.first, self.second), key=key)
        return "low" if dominant.indicator == 1 else "high"

    @property
    def mean_gap(self) -> float:
        return ((self.first.exp_older - self.first.exp_younger)
                + (self.second.exp_older - self.second.exp_younger)) / 2.0


def match_title_fights(
    fights: Sequence[TitleFight], tolerance: float = 0.05
) -> tuple[list[TitleFightPair], int]:
    """Greedy swap-matching without replacement.

    Partners must have profiles swapped within the tolerance and
    opposite indicators; each fight takes the closest (by the larger of
    the two profile gaps) compatible partner still unmatched.
    """
    styles = {f.style for f in fights}
    if len(styles) > 1:
        raise ValueError("fights must share one style")
    ordered = sorted(fights, key=lambda f: (f.group_rank, f.paper_id))
    used = [False] * len(ordered)
    pairs: list[TitleFightPair] = []
    for i, fight in enumerate(ordered):
        if used[i]:
            continue
        best_j = None
        best_rank: tuple[float, str] | None = None
        for j in range(i + 1, len(ordered)):
            if used[j]:
                continue
            other = ordered[j]
            if other.indicator != 1 - fight.indicator:
                continue
            gap = max(
                abs(other.profile_younger - fight.profile_older),
                abs(other.profile_older - fight.profile_younger),
            )
            if gap > tolerance:
                continue
            rank = (gap, other.paper_id)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_j = j
        if best_j is not None:
            used[i] = used[best_j] = True
            pairs.append(TitleFightPair(first=fight, second=ordered[best_j]))
    unmatched = sum(1 for u in used if not u)
    return pairs, unmatched


def dominance_by_gap(
    pairs: Sequence[TitleFightPair], bucket_edges: Sequence[int] = DEFAULT_GAP_EDGES
) -> list[GapBucketRow]:
    """High-experience-dominance rate per experience-gap bucket; a pair
    sits in the bucket of the mean of its two gaps."""
    values = [(p.mean_gap, p.verdict() == "high") for p in pairs]
    return _bucket_rows(values, bucket_edges)


def high_dominance_rate(pairs: Sequence[TitleFightPair]) -> tuple[float, int, int]:
    if not pairs:
        raise ValueError("no pairs")
    highs = sum(1 for p in pairs if p.verdict() == "high")
    return highs / len(pairs), highs, len(pairs)
