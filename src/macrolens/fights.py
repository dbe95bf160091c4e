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
import math
import random
import re
from dataclasses import dataclass
from importlib import resources
from itertools import compress, pairwise
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Corpus
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

    ``shared_key`` is the contested timeline's key, ``(signature, body)``
    for name fights and ``("", name)`` for body fights; ``variant_a`` and
    ``variant_b`` are each author's most recent prior choices and ``winner``
    indexes the byline (0 = first author's choice was used, 1 = second's).
    """

    paper_id: str
    group_rank: int
    author_a: str
    author_b: str
    shared_key: tuple[str, str]
    variant_a: str
    variant_b: str
    winner: int
    exp_a: int
    exp_b: int

    @property
    def gap(self) -> int:
        return abs(self.exp_a - self.exp_b)

    def older_won(self) -> bool | None:
        """None when the experiences tie and "older" is undefined."""
        if self.exp_a == self.exp_b:
            return None
        return self.winner == (0 if self.exp_a > self.exp_b else 1)


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
    timelines: Iterable[BodyTimeline],
    ledger: ExperienceLedger,
    filters: FightFilters,
) -> list[FightRecord]:
    candidates: list[FightRecord] = []
    want_authors = 3 if filters.three_author else 2
    for tl in timelines:
        if len(tl.distinct_authors()) < filters.min_distinct_authors:
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
                    paper_id=occ.paper_id,
                    group_rank=rank,
                    author_a=a,
                    author_b=b,
                    shared_key=tl.key,
                    variant_a=va,
                    variant_b=vb,
                    winner=0 if occ.name == va else 1,
                    exp_a=ledger.experience_at_rank(a, rank),
                    exp_b=ledger.experience_at_rank(b, rank),
                )
            )
    # one fight per author pair: the earliest; unique sort keys keep ``chosen`` sorted
    candidates.sort(key=lambda f: (f.group_rank, f.paper_id, f.shared_key))
    chosen: dict[tuple[str, str], FightRecord] = {}
    for fight in candidates:
        pair = (min(fight.author_a, fight.author_b), max(fight.author_a, fight.author_b))
        if pair not in chosen:
            chosen[pair] = fight
    return list(chosen.values())


def detect_name_fights(
    corpus: Corpus,
    timelines: Mapping[tuple[str, str], BodyTimeline],
    ledger: ExperienceLedger,
    filters: FightFilters | None = None,
) -> list[FightRecord]:
    """Fights over the name of a shared macro body ``min_shared_len`` or longer."""
    filters = filters or FightFilters()
    shared = (tl for tl in timelines.values() if len(tl.key[1]) >= filters.min_shared_len)
    return _detect_fights(shared, ledger, filters)


def detect_body_fights(
    name_timelines: Mapping[tuple[str, str], BodyTimeline],
    ledger: ExperienceLedger,
    filters: FightFilters | None = None,
) -> list[FightRecord]:
    """Fights over the body of a shared macro name (roles swapped).

    ``name_timelines`` come from :func:`~macrolens.timelines.build_name_timelines`,
    whose whitelist picks the names considered.  ``min_shared_len`` is not
    read, since these names and bodies are typically short.
    """
    return _detect_fights(name_timelines.values(), ledger, filters or FightFilters())


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


class GapBucketRow(NamedTuple):
    lo: int
    hi: int | None  # None = unbounded
    rate: float | None  # None when undefined (no decided fights)
    n: int


def _bucket_rows(
    values: Sequence[tuple[float, bool | None]], bucket_edges: Sequence[int]
) -> list[GapBucketRow]:
    if any(edge < 1 for edge in bucket_edges):
        raise ValueError("gap bucket edges must be at least 1")
    rows = []
    for lo, hi in pairwise((0, *sorted(set(bucket_edges)), None)):
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
    fight: FightRecord, timeline: BodyTimeline, index: CoauthorIndex
) -> list[float]:
    """Per-author history and position features plus token orthography.

    Degree and betweenness are read in the fighters' components of the
    prior users' co-author graph; a node's betweenness depends on its own
    component only.  For body fights the record's roles are swapped, so
    the "name" columns describe each author's body and the "body" columns
    the shared name.
    """
    from .analytics import betweenness
    authors = (fight.author_a, fight.author_b)
    rank = fight.group_rank
    adj = coauthor_graph(timeline, rank, index, authors).adjacency
    central = betweenness(adj)
    row: list[float] = [float(fight.exp_a), float(fight.exp_b)]
    row.extend(float(len(timeline.prior_positions(a, rank))) for a in authors)
    row.extend(flexibility(timeline, a, rank) for a in authors)
    row.extend(float(len(adj[a])) for a in authors)
    row.extend(central[a] for a in authors)
    row.extend([float(len(fight.variant_a)), float(len(fight.variant_b))])
    row.extend(body_features(fight.shared_key[1]))
    return row


def fight_feature_matrix(
    fights: Sequence[FightRecord],
    timelines: Mapping,
    corpus: Corpus,
    ledger: ExperienceLedger,
    index: CoauthorIndex,
) -> list[tuple]:
    """One row per fight: the ``FIGHT_FEATURE_COLUMNS`` as ``float``, then
    the label, 0 when the first-listed author wins and 1 when the second
    does.  No feature reads ``corpus`` or ``ledger``; they stay for
    callers that pass them."""
    return [(*fight_features(f, timelines[f.shared_key], index), f.winner) for f in fights]


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
    part-of-speech guesses.  Swappable via a JSON file; its words and
    suffixes match in any case."""

    def __init__(self, data: dict):
        lists = ("determiners", "verbs", "adjectives", "nouns")
        if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in lists):
            raise ValueError(f"title lexicon needs a JSON object with word lists {', '.join(lists)}")
        for key in (*lists, "noun_suffixes", "adjective_suffixes", "verb_suffixes"):
            words = data.get(key, [])
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise ValueError(f"title lexicon {key!r} must be a list of strings")
        # a word listed under two classes takes the first in this order
        self.word_class: dict[str, str] = {}
        for cls in ("determiner", "verb", "adjective", "noun"):
            for word in data[f"{cls}s"]:
                self.word_class.setdefault(word.casefold(), cls)
        # a suffix listed under two classes takes the first in this order
        self.suffix_class: dict[str, str] = {}
        for cls in ("noun", "adjective", "verb"):
            for suf in data.get(f"{cls}_suffixes", []):
                self.suffix_class.setdefault(suf.casefold(), cls)
        # the longest suffix the word ends with wins
        self.suffix_lengths = sorted({len(suf) for suf in self.suffix_class}, reverse=True)

    @classmethod
    def load(cls, path: str | None = None) -> "TitleLexicon":
        if path is None:
            text = resources.files("macrolens.data").joinpath("title_lexicon.json").read_text(
                encoding="utf-8"
            )
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("title lexicon nests deeper than the JSON decoder reads") from None
        return cls(data)

    def first_word_class(self, word: str) -> str | None:
        word = word.casefold()
        if (cls := self.word_class.get(word)) or len(word) < 5:
            return cls
        for n in self.suffix_lengths:  # ``len(word) - n`` keeps an empty suffix exact
            if len(word) > n + 1 and (cls := self.suffix_class.get(word[len(word) - n:])):
                return cls
        return None


@functools.cache
def default_lexicon() -> TitleLexicon:
    return TitleLexicon.load()


def _first_word(title: str) -> str | None:
    tokens = title.split(None, 1)
    if not tokens:
        return None
    word = tokens[0].strip("$\\{}()[]\"'`.,:;!?*~^_-")
    return word if word.isascii() and word.isalpha() else None


def _style_test(style: str, lexicon: TitleLexicon) -> Callable[[str], bool]:
    """Whether a non-empty title shows ``style``: punctuation and math by
    literal scan, a first-word class by ``lexicon`` (an unknown first word
    shows none), looked up once per distinct first word the test meets."""
    if style not in STYLE_NAMES:
        raise ValueError(f"unknown style {style!r}")
    if style == "colon":
        return lambda title: ":" in title
    if style == "question_mark":
        return lambda title: "?" in title
    if style == "math":
        return lambda title: _MATH_RE.search(title) is not None
    cls = style.removeprefix("first_")
    by_word: dict[str | None, bool] = {None: False}

    def first_word_shows(title: str) -> bool:
        word = _first_word(title)
        if word not in by_word:
            by_word[word] = lexicon.first_word_class(word) == cls
        return by_word[word]

    return first_word_shows


def classify_title(title: str, lexicon: TitleLexicon | None = None) -> set[str]:
    """The names in ``STYLE_NAMES`` whose test the title passes; at most
    one first-word class shows."""
    if not title:
        raise ValueError("empty title")
    lex = lexicon or default_lexicon()
    return {style for style in STYLE_NAMES if _style_test(style, lex)(title)}


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
    filters: TitleFightFilters | None = None,
    lexicon: TitleLexicon | None = None,
) -> list[TitleFight]:
    """Style contentions at first collaborations, in corpus order.

    Candidate papers have exactly two authors who never co-authored
    strictly before (and have no other joint paper in the same tie
    group), an older author with at least the threshold experience, and
    a younger author with enough titled papers without the older one to
    give a meaningful style profile.  Each profile is the lifetime
    fraction (the whole corpus horizon, by design) of the author's
    titled papers without the other author that show the style.  Equal
    experiences assign "younger" to the first-listed author.
    """
    test = _style_test(style, lexicon or default_lexicon())
    flt = filters or TitleFightFilters()
    ranks, titles = corpus.ranks, corpus.titles()
    shown: dict[int, bool] = {}  # each titled paper's test, made once

    def shows(i: int) -> bool:
        if i not in shown:
            shown[i] = test(titles[i])
        return shown[i]

    fights: list[TitleFight] = []
    for i in compress(range(len(corpus)), map((2).__eq__, corpus.author_counts())):
        if not titles[i]:
            continue
        a, b = corpus.authors(i)
        rank = ranks[i]
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
        joint = set(ledger.positions_of(a)).intersection(ledger.positions_of(b))
        # paper i is joint: another joint paper before it or in its tie group rejects it
        if sum(ranks[j] <= rank for j in joint) > 1:
            continue
        own_y = [j for j in ledger.positions_of(younger) if j not in joint and titles[j]]
        if len(own_y) < max(flt.min_younger_papers, 1):
            continue
        own_o = [j for j in ledger.positions_of(older) if j not in joint and titles[j]]
        if not own_o:
            continue
        fights.append(
            TitleFight(
                style=style,
                paper_id=corpus.paper_id(i),
                group_rank=rank,
                younger=younger,
                older=older,
                exp_younger=exp_y,
                exp_older=exp_o,
                profile_younger=sum(map(shows, own_y)) / len(own_y),
                profile_older=sum(map(shows, own_o)) / len(own_o),
                indicator=int(shows(i)),
            )
        )
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
    if not 0 <= tolerance < math.inf:
        raise ValueError("match tolerance must be finite and at least 0")
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
