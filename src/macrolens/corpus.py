"""Corpus data model: paper records, author normalization, temporal ordering.

A corpus is loaded from a newline-delimited JSON manifest (one record per
paper) and ordered into a total preorder over papers.  Timestamps may be
exact (``YYYY-MM-DD``) or month-granular (``YYYY-MM``); month-granular
papers that share a month form a *tie group* whose internal order is
unknown.  Downstream analyses that need a strict order must check tie
groups rather than rely on the (deterministic, but arbitrary) secondary
sort by paper id.
"""

from __future__ import annotations

import datetime
import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

# Zero-padded ASCII digits only: ``re.ASCII`` keeps ``\d`` from matching
# other scripts' digits, which ``int`` would accept.
_DATE = re.compile(r"(\d{4})-(\d{2})(?:-(\d{2}))?", re.ASCII)


def normalize_author(raw: str) -> str:
    """Collapse an author byline string to a canonical key.

    Case-folded, diacritics-stripped, whitespace-collapsed.  Uses the
    Unicode compatibility-caseless fold (NFD/casefold/NFKD rounds) so the
    result is idempotent, then drops combining marks.  On ASCII text the
    normalizations are the identity, ``casefold`` equals ``lower`` and
    there are no combining marks, so that fold is ``lower`` alone.
    """
    if not raw or not raw.strip():
        raise ValueError("author string is empty")
    if raw.isascii():
        return " ".join(raw.lower().split())
    t = unicodedata.normalize("NFD", raw).casefold()
    t = unicodedata.normalize("NFKD", t).casefold()
    t = unicodedata.normalize("NFKD", t)
    t = "".join(ch for ch in t if not unicodedata.combining(ch))
    return " ".join(t.split())


@dataclass(frozen=True, order=True)
class PaperDate:
    """A timestamp that is either exact or resolved only to a month.

    ``day`` is None for month-granular dates.  Sorting places a
    month-granular date before exact dates in the same month (day None
    compares as day 0); the relative order of the two granularities
    within one month is not meaningful and only needs to be consistent.
    """

    year: int
    month: int
    day: int | None = None

    def __post_init__(self) -> None:
        probe = 1 if self.day is None else self.day
        datetime.date(self.year, self.month, probe)  # raises on bad fields

    @classmethod
    def parse(cls, text: str) -> "PaperDate":
        m = _DATE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"date {text!r} is neither YYYY-MM nor YYYY-MM-DD")
        year, month, day = m.groups()
        return cls(int(year), int(month), None if day is None else int(day))

    @property
    def month_granular(self) -> bool:
        return self.day is None

    def sort_key(self) -> tuple[int, int, int]:
        return (self.year, self.month, 0 if self.day is None else self.day)

    def __str__(self) -> str:
        if self.day is None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"


@dataclass(frozen=True)
class Paper:
    """One corpus document.  ``authors`` are normalized keys in byline order."""

    paper_id: str
    date: PaperDate
    authors: tuple[str, ...]
    title: str
    source: str

    def __post_init__(self) -> None:
        if not self.authors:
            raise ValueError(f"paper {self.paper_id!r} has no authors")
        if len(set(self.authors)) != len(self.authors):
            raise ValueError(f"paper {self.paper_id!r} has duplicate authors")


class Corpus:
    """An immutable, temporally ordered collection of papers.

    ``group_rank`` maps paper id to the index of its tie group in the
    global order; papers share a rank exactly when their relative order
    is unknown (same month, month-granular).  Exact-dated papers always
    get singleton groups, even when they share a day.
    """

    def __init__(self, papers: Iterable[Paper]):
        ordered = sorted(papers, key=lambda p: (p.date.sort_key(), p.paper_id))
        seen: set[str] = set()
        for p in ordered:
            if p.paper_id in seen:
                raise ValueError(f"duplicate paper id {p.paper_id!r}")
            seen.add(p.paper_id)
        ranks: dict[str, int] = {}
        rank = -1
        prev_bucket: tuple[int, int] | None = None
        for p in ordered:
            bucket = (p.date.year, p.date.month)
            if p.date.month_granular and bucket == prev_bucket:
                pass  # same month-granular tie group
            else:
                rank += 1
            ranks[p.paper_id] = rank
            prev_bucket = bucket if p.date.month_granular else None
        self.papers: tuple[Paper, ...] = tuple(ordered)
        self.group_rank: dict[str, int] = ranks
        self._by_id: dict[str, Paper] = {p.paper_id: p for p in ordered}

    def __len__(self) -> int:
        return len(self.papers)

    def __iter__(self) -> Iterator[Paper]:
        return iter(self.papers)

    def get(self, paper_id: str) -> Paper:
        return self._by_id[paper_id]

    def rank_of(self, paper_id: str) -> int:
        return self.group_rank[paper_id]


@dataclass
class LoadResult:
    corpus: Corpus
    skipped: int
    problems: list[str] = field(default_factory=list)


def _parse_record(rec: dict, base_dir: Path) -> Paper:
    paper_id = rec["id"]
    if not isinstance(paper_id, str) or not paper_id:
        raise ValueError("missing or empty id")
    date = PaperDate.parse(rec["date"])
    raw_authors = rec["authors"]
    if not isinstance(raw_authors, list) or not raw_authors:
        raise ValueError("authors must be a non-empty list")
    authors = tuple(map(normalize_author, raw_authors))
    title = rec.get("title", "")
    if not isinstance(title, str):
        raise ValueError("title must be a string")
    if "source" in rec:
        source = rec["source"]
        if not isinstance(source, str):
            raise ValueError("source must be a string")
    elif "source_path" in rec:
        source = (base_dir / rec["source_path"]).read_text(encoding="utf-8")
    else:
        raise ValueError("record has neither source nor source_path")
    return Paper(paper_id=paper_id, date=date, authors=authors, title=title, source=source)


def load_corpus(path: Path | str) -> LoadResult:
    """Load a corpus from a JSONL manifest.

    Malformed records (bad JSON, bad date, duplicate authors, duplicate
    ids, missing source files) are skipped and counted, never silently
    dropped; each is listed in ``problems`` and logged at DEBUG, so a
    damaged snapshot does not flood the log.  A missing manifest is fatal.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"corpus manifest not found: {path}")
    base_dir = path.parent
    papers: list[Paper] = []
    seen_ids: set[str] = set()
    skipped = 0
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                paper = _parse_record(rec, base_dir)
                if paper.paper_id in seen_ids:
                    raise ValueError(f"duplicate paper id {paper.paper_id!r}")
            except Exception as exc:  # per-record failures are non-fatal
                skipped += 1
                msg = f"{path.name}:{lineno}: skipped record ({exc})"
                problems.append(msg)
                log.debug(msg)
                continue
            seen_ids.add(paper.paper_id)
            papers.append(paper)
    return LoadResult(corpus=Corpus(papers), skipped=skipped, problems=problems)
