"""The record-based corpus, experience ledger, co-author index and title
fight detection that the column-backed ones replaced, kept as they were
so that ``test_columns.py`` can compare the two on the same inputs.

Each paper is one ``Paper`` record; the ledger keeps each author's records
and ranks in lists, and the index reads every paper.  ``rank_of`` and
``group_ranks`` read a column-backed ``Corpus`` by paper id for tests.
``extract_all`` gives each paper's ``MacroDefinition`` records, and
``definition_records`` decodes a ``Definitions`` back into them, less
their offsets, which the columns do not hold.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from macrolens.corpus import Corpus, Paper
from macrolens.extraction import Definitions, MacroDefinition, extract_definitions
from macrolens.fights import (
    STYLE_NAMES,
    TitleFight,
    TitleFightFilters,
    TitleLexicon,
    classify_title,
    default_lexicon,
)


def rank_of(corpus: Corpus, paper_id: str) -> int:
    """The tie-group rank of the paper ``paper_id``."""
    return corpus.ranks[list(map(corpus.paper_id, range(len(corpus)))).index(paper_id)]


def group_ranks(corpus: Corpus) -> dict[str, int]:
    """Paper id to tie-group rank, in corpus order."""
    return {p.paper_id: rank for p, rank in zip(corpus, corpus.ranks)}


def extract_all(corpus: Corpus) -> tuple[dict[str, list[MacroDefinition]], int]:
    """Each paper's definitions (papers with none left out), and the
    number of malformed definitions skipped."""
    by_paper: dict[str, list[MacroDefinition]] = {}
    skipped = 0
    for i, source in enumerate(corpus.sources or ()):  # a stored corpus has no sources
        res = extract_definitions(source, corpus.paper_id(i))
        skipped += res.skipped
        if res.definitions:
            by_paper[corpus.paper_id(i)] = res.definitions
    return by_paper, skipped


def definition_records(corpus: Corpus, columns: Definitions) -> dict[str, list[MacroDefinition]]:
    """The records ``columns`` hold, by paper id as ``extract_all`` gives
    them (papers with none left out), each with offset 0."""
    string = columns.strings.__getitem__
    rows = iter(zip(map(string, columns.name), map(string, columns.body),
                    map(string, columns.command), map(string, columns.signature)))
    by_paper = {}
    for i, count in enumerate(columns.counts):
        records = [MacroDefinition(corpus.paper_id(i), *next(rows)) for _ in range(count)]
        if records:
            by_paper[corpus.paper_id(i)] = records
    assert next(rows, None) is None
    return by_paper


class RecordCorpus:
    def __init__(self, papers: Iterable[Paper]):
        ordered = sorted(papers, key=lambda p: (p.date, p.paper_id))
        ranks: dict[str, int] = {}
        rank = -1
        tie_month: int | None = None
        for p in ordered:
            if p.paper_id in ranks:
                raise ValueError(f"duplicate paper id {p.paper_id!r}")
            month, day = divmod(p.date, 100)
            if day:
                rank += 1
                tie_month = None
            elif month != tie_month:
                rank += 1
                tie_month = month
            ranks[p.paper_id] = rank
        self.papers: tuple[Paper, ...] = tuple(ordered)
        self.group_rank: dict[str, int] = ranks

    def __len__(self) -> int:
        return len(self.papers)

    def __iter__(self) -> Iterator[Paper]:
        return iter(self.papers)

    def rank_of(self, paper_id: str) -> int:
        return self.group_rank[paper_id]


class RecordLedger:
    def __init__(self, corpus: RecordCorpus):
        self._papers: dict[str, list[Paper]] = {}
        self._ranks: dict[str, list[int]] = {}
        for paper in corpus:
            rank = corpus.rank_of(paper.paper_id)
            for a in paper.authors:
                self._papers.setdefault(a, []).append(paper)
                self._ranks.setdefault(a, []).append(rank)

    def papers_of(self, author: str) -> list[Paper]:
        return list(self._papers.get(author, []))

    def experience_at_rank(self, author: str, group_rank: int) -> int:
        ranks = self._ranks.get(author)
        if not ranks:
            return 0
        return bisect_left(ranks, group_rank)

    def count_in_group(self, author: str, group_rank: int) -> int:
        ranks = self._ranks.get(author, [])
        return bisect_left(ranks, group_rank + 1) - bisect_left(ranks, group_rank)


class RecordCoauthorIndex:
    def __init__(self, corpus: RecordCorpus):
        self._joint: dict[str, dict[str, list[int]]] = {}
        for paper in corpus:
            rank = corpus.rank_of(paper.paper_id)
            authors = paper.authors
            for i in range(len(authors)):
                for j in range(i + 1, len(authors)):
                    a, b = authors[i], authors[j]
                    of_a = self._joint.setdefault(a, {})
                    ranks = of_a.get(b)
                    if ranks is None:
                        ranks = of_a[b] = self._joint.setdefault(b, {})[a] = []
                    ranks.append(rank)

    def neighbours(self, author: str) -> dict[str, list[int]]:
        return self._joint.get(author, {})

    def joint_ranks(self, a: str, b: str) -> list[int]:
        return self.neighbours(a).get(b, [])

    def coauthored_before(self, a: str, b: str, group_rank: int) -> bool:
        ranks = self.joint_ranks(a, b)
        return bool(ranks) and ranks[0] < group_rank

    def joint_count_before(self, a: str, b: str, group_rank: int) -> int:
        return bisect_left(self.joint_ranks(a, b), group_rank)

    def joint_count_in_group(self, a: str, b: str, group_rank: int) -> int:
        ranks = self.joint_ranks(a, b)
        return bisect_left(ranks, group_rank + 1) - bisect_left(ranks, group_rank)


def _titled_papers_without(ledger: RecordLedger, author: str, coauthor: str) -> list[Paper]:
    return [p for p in ledger.papers_of(author) if coauthor not in p.authors and p.title]


def record_title_profile(
    ledger: RecordLedger, author: str, style: str, exclude_coauthor: str,
    lexicon: TitleLexicon | None = None,
) -> float:
    eligible = _titled_papers_without(ledger, author, exclude_coauthor)
    if not eligible:
        raise ValueError(f"author {author!r} has no eligible papers")
    positives = sum(1 for p in eligible if style in classify_title(p.title, lexicon))
    return positives / len(eligible)


def record_detect_title_fights(
    corpus: RecordCorpus,
    style: str,
    ledger: RecordLedger,
    index: RecordCoauthorIndex,
    filters: TitleFightFilters | None = None,
    lexicon: TitleLexicon | None = None,
) -> list[TitleFight]:
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
            p_y = record_title_profile(ledger, younger, style, exclude_coauthor=older, lexicon=lex)
            p_o = record_title_profile(ledger, older, style, exclude_coauthor=younger, lexicon=lex)
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
