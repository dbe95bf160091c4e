"""Corpus data model: paper records, author normalization, temporal ordering.

A corpus is loaded from a newline-delimited JSON manifest (one record per
paper) and ordered into a total preorder over papers.  Timestamps may be
exact (``YYYY-MM-DD``) or month-granular (``YYYY-MM``); month-granular
papers that share a month form a *tie group* whose internal order is
unknown.  Downstream analyses that need a strict order must check tie
groups rather than rely on the (deterministic, but arbitrary) secondary
sort by paper id.

Decoding a manifest line costs one call of the C scanner that
``json.loads`` itself runs, and gives what ``json.loads`` gives:

* ``json.loads(s)`` (no hooks) skips JSON whitespace (``" \\t\\n\\r"``),
  scans one value with the default decoder's ``scan_once`` and fails
  with "Extra data" unless only JSON whitespace follows; a leading BOM
  fails first.  The loader calls the same ``scan_once`` at index 0 and
  accepts its value only when the rest of the line is JSON whitespace,
  tested with ``strip(" \\t\\n\\r")`` rather than ``str.strip``'s larger
  set (which also holds ``\\x1c`` and U+0085).
* An accepted line starts with a value, so neither a BOM nor whitespace
  precedes it: ``json.loads`` would scan from the same index 0, reach the
  same end and return an equal value.
* Every other line (leading whitespace or BOM, no value, bad JSON,
  trailing data) goes to ``json.loads``, which raises the exception the
  record's problem line reports.  An error that is neither
  ``StopIteration`` nor ``ValueError`` (deep nesting's ``RecursionError``)
  comes from a scan at index 0 that ``json.loads`` would repeat as it is.
* One bound is not the same: before Python 3.12 the scanner's nesting limit
  is what is left of the recursion limit, and ``json.loads`` scans three
  frames deeper.  So a value nested within three levels of that limit
  (994 to 996 deep, called from a shallow stack) loads here where
  ``json.loads`` raises ``RecursionError``; both limits move with the
  caller's stack depth.
"""

from __future__ import annotations

import datetime
import io
import json
import operator
import re
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, cycle, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# Zero-padded ASCII digits only: ``re.ASCII`` keeps ``\d`` from matching
# other scripts' digits, which ``int`` would accept.
_DATE = re.compile(r"(\d{4})-(\d{2})(?:-(\d{2}))?", re.ASCII)

COLUMN_TYPE = "i"  # of every int column; the corpus store writes and reads them in it

# The C scanner behind ``json.loads`` and the whitespace it skips after a
# value (its ``WHITESPACE`` pattern); see the module docstring.
_scan_once = json.JSONDecoder().scan_once
_JSON_WS = " \t\n\r"


def normalize_author(raw: str) -> str:
    """Collapse an author byline string to a canonical key.

    Case-folded, diacritics-stripped, whitespace-collapsed.  Uses the
    Unicode compatibility-caseless fold (NFD/casefold/NFKD rounds) so the
    result is idempotent, then drops combining marks.  On ASCII text the
    normalizations are the identity, ``casefold`` equals ``lower`` and
    there are no combining marks, so that fold is ``lower`` alone.  An
    empty key (a blank string, or combining marks only) is an error.
    """
    if raw.isascii():
        key = " ".join(raw.lower().split())
    else:
        t = unicodedata.normalize("NFD", raw).casefold()
        t = unicodedata.normalize("NFKD", t).casefold()
        t = unicodedata.normalize("NFKD", t)
        key = " ".join("".join(ch for ch in t if not unicodedata.combining(ch)).split())
    if not key:
        raise ValueError("author string is empty")
    return key


def parse_date(text: str) -> int:
    """A manifest date, ``YYYY-MM-DD`` or month-granular ``YYYY-MM``
    (surrounding whitespace allowed), as yyyymmdd, dd 0 when month-granular."""
    # A string that matches as it stands has nothing to strip.
    m = _DATE.fullmatch(text) or _DATE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"date {text!r} is neither YYYY-MM nor YYYY-MM-DD")
    year, month, day = int(m[1]), int(m[2]), int(m[3] or 0)
    try:  # a written day 00 is off the calendar, not month-granular
        datetime.date(year, month, day if m[3] else 1)
    except ValueError as exc:
        raise ValueError(f"date {text!r} is not on the calendar ({exc})") from None
    return (year * 100 + month) * 100 + day


class Paper(NamedTuple):
    """One corpus document.  ``authors`` are normalized keys in byline order,
    and ``date`` is yyyymmdd as :func:`parse_date` gives it.

    The loader checks a record (non-empty byline, no author twice) before
    it builds one.
    """

    paper_id: str
    date: int
    authors: tuple[str, ...]
    title: str
    source: str


class Columns:
    """Int columns, named by ``COLUMNS``, over one string table; the corpus
    store writes and reads a table by them."""

    COLUMNS: tuple[str, ...]

    def __init__(self, strings: Sequence[str], **columns: Sequence[int]):
        self.strings = strings
        for column in self.COLUMNS:
            setattr(self, column, columns[column])

    def columns(self) -> dict[str, Sequence[int]]:
        return {column: getattr(self, column) for column in self.COLUMNS}


class Corpus(Columns):
    """An immutable, temporally ordered collection of papers, held as columns.

    Papers are numbered by their position in corpus order, which follows
    (date, paper id): a month-granular paper sorts as day 0, so a month's
    tie group comes before that month's exact dates, and papers within a
    group are sorted by id.  ``ranks[i]`` is the index of paper ``i``'s tie
    group in the global order; papers share a rank exactly when their
    relative order is unknown (same month, month-granular).  Exact-dated
    papers always get singleton groups, even when they share a day.

    Strings are ids into ``strings``: of ``n`` papers, ``strings[i]`` is
    paper ``i``'s id, ``strings[n + i]`` its title, and
    ``author_ids[author_offsets[i]:author_offsets[i + 1]]`` its authors'
    ids in byline order, with one id per distinct author key.  ``dates[i]``
    is its date.  Only :meth:`from_papers` (so :func:`load_corpus`) keeps
    each paper's source, in ``sources``; a corpus that :meth:`build` made
    (the corpus store's build and its fallback) or a store read back has
    None there, and every source is ``""``.  A ``Paper`` record is built
    only when a caller asks for one.
    """

    COLUMNS = ("dates", "ranks", "author_offsets", "author_ids")
    sources: list[str] | None = None

    @classmethod
    def build(cls, papers: Iterable[Paper],
              take_source: Callable[[str, str], object] | None = None
              ) -> tuple["Corpus", array | None]:
        """The corpus of ``papers`` (unique ids), read once in the order
        given, and where each of its papers came in that order, listed in
        corpus order (None when they came in corpus order).

        Each paper's id, title, date and author ids are appended as it is
        read, an author key getting the next id on first sight, and its
        source goes to ``take_source(source, paper_id)`` and is dropped,
        or, with no ``take_source``, is kept in ``sources``.  The rows are
        then put in corpus order by :func:`in_corpus_order`, so the columns
        and strings do not depend on the order given.
        """
        columns = {"ids": [], "titles": [], "dates": array(COLUMN_TYPE),
                   "counts": array(COLUMN_TYPE), "author_ids": array(COLUMN_TYPE)}
        ids, titles, dates, counts, author_ids = columns.values()
        if take_source is None:
            sources = columns["sources"] = []
            take_source = lambda source, _: sources.append(source)
        authors = interner()
        for paper_id, date, byline, title, source in papers:
            ids.append(paper_id)
            titles.append(title)
            dates.append(date)
            counts.append(len(byline))
            author_ids.extend(map(authors.__getitem__, byline))
            take_source(source, paper_id)
        n = len(ids)
        order = None
        if not all(map(operator.lt, zip(dates, ids), islice(zip(dates, ids), 1, None))):
            keys = list(zip(dates, ids))  # (date, paper_id)
            order = array(COLUMN_TYPE, sorted(range(n), key=keys.__getitem__))
            del keys
        del ids, titles, dates, counts, author_ids  # the columns' old order goes once reordered
        columns, author_strings = in_corpus_order(
            order, columns, list(authors), {"author_ids": "counts"}, ("author_ids",))
        # strings: the paper ids (paper i's is string i), the titles, then each distinct author
        corpus = cls(
            [*columns["ids"], *columns["titles"], *author_strings],
            dates=columns["dates"],
            ranks=_tie_group_ranks(columns["dates"]),
            author_offsets=array(COLUMN_TYPE, accumulate(columns["counts"], initial=0)),
            author_ids=array(COLUMN_TYPE, map((2 * n).__add__, columns["author_ids"])),
        )
        corpus.sources = columns.get("sources")
        return corpus, order

    @classmethod
    def from_papers(cls, papers: Iterable[Paper]) -> "Corpus":
        """The corpus of ``papers``, keeping each paper's source."""
        corpus, _ = cls.build(papers)
        ids = corpus.strings[:len(corpus)]
        if len(set(ids)) < len(ids):
            duplicate = next(pid for pid, k in Counter(ids).items() if k > 1)
            raise ValueError(f"duplicate paper id {duplicate!r}")
        return corpus

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[Paper]:
        return map(self.paper, range(len(self)))

    def paper_id(self, i: int) -> str:
        return self.strings[i]

    def title(self, i: int) -> str:
        return self.strings[len(self.ranks) + i]  # not ``len(self)``, a Python call

    def titles(self) -> list[str]:
        """Every paper's title in corpus order, read in one pass."""
        n = len(self.ranks)
        return list(map(self.strings.__getitem__, range(n, 2 * n)))

    def authors(self, i: int) -> tuple[str, ...]:
        ids = self.author_ids[self.author_offsets[i]:self.author_offsets[i + 1]]
        return tuple(map(self.strings.__getitem__, ids))

    def author_counts(self) -> Iterator[int]:
        """Each paper's number of authors, in corpus order."""
        offsets = self.author_offsets
        return map(operator.sub, offsets[1:], offsets)

    def paper(self, i: int) -> Paper:
        return tuple.__new__(Paper, (
            self.paper_id(i),
            self.dates[i],
            self.authors(i),
            self.title(i),
            "" if self.sources is None else self.sources[i],
        ))


def interner() -> defaultdict[str, int]:
    """A mapping that gives each key it has not seen the next id, from 0."""
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__
    return ids


def in_corpus_order(order: Sequence[int] | None, columns: dict[str, Sequence],
                    strings: Sequence[str], counts: dict[str, str], string_ids: Sequence[str]
                    ) -> tuple[dict[str, Sequence], Sequence[str]]:
    """``columns`` with their rows taken in ``order``, and ``strings`` with
    their ids renumbered to match; both as given when ``order`` is None.

    A column named in ``counts`` holds ``columns[counts[name]][i]`` values
    for row ``i``; any other holds one value per row.  The columns named in
    ``string_ids`` hold ids into ``strings``, each given on first sight as
    the rows were appended, reading a row's columns in that order; they are
    renumbered so that this holds again in the new order.
    """
    if order is None:
        return columns, strings
    lengths = {name: columns[name] for name in dict.fromkeys(counts.values())}
    # the rows that hold values, in ``order``: only they move a value
    filled = array("q", compress(order, map(any, zip(*(
        map(column.__getitem__, order) for column in lengths.values())))))
    starts = {name: array("q", accumulate(column, initial=0)) for name, column in lengths.items()}

    def spans(lengths_name: str) -> Iterator[range]:
        """Where each filled row's values are, by the lengths in that column."""
        start = starts[lengths_name]
        return map(range, map(start.__getitem__, filled),
                   map(start.__getitem__, map((1).__add__, filled)))

    # each row's values in the ``string_ids`` columns in turn, the rows in ``order``
    read = chain.from_iterable(map(map, cycle([columns[name].__getitem__ for name in string_ids]),
                                   chain.from_iterable(zip(*map(spans, map(counts.get, string_ids))))))
    renumber = dict(zip(dict.fromkeys(read), count()))
    positions = {name: array("q", chain.from_iterable(spans(name))) for name in lengths}
    ordered: dict[str, Sequence] = {}
    for name, column in columns.items():
        values = map(column.__getitem__, positions[counts[name]] if name in counts else order)
        if name in string_ids:
            values = map(renumber.__getitem__, values)
        ordered[name] = array(COLUMN_TYPE, values) if isinstance(column, array) else list(values)
    return ordered, list(map(strings.__getitem__, renumber))


def _tie_group_ranks(dates: Sequence[int]) -> array:
    """Each paper's tie-group rank from its yyyymmdd date, the papers in
    corpus order: a month-granular date (dd 0) shares the rank of an equal
    date right before it, and every other date starts a new rank."""
    starts = (date % 100 > 0 or date != before for before, date in zip(chain((0,), dates), dates))
    return array(COLUMN_TYPE, (n - 1 for n in accumulate(starts)))


@dataclass
class LoadResult:
    corpus: Corpus
    skipped: int
    problems: list[str] = field(default_factory=list)


def _field_problem(rec: dict, name: str, kind: type = str) -> ValueError:
    """Why ``rec[name]`` is not a non-empty ``kind``."""
    if name not in rec:
        return ValueError(f"missing field {name!r}")
    if isinstance(rec[name], kind):
        return ValueError(f"field {name!r} is empty")
    expected = "a list" if kind is list else "a string"
    return ValueError(f"field {name!r} must be {expected}, not {type(rec[name]).__name__}")


def _open_file(directory: Path, name: str) -> io.FileIO:
    return io.FileIO(str(directory / name))  # a str: an error names it, not ``PosixPath(...)``


def _parse_record(rec: dict, base_dir: Path, open_file: Callable[..., io.FileIO]) -> Paper:
    if not isinstance(rec, dict):
        raise ValueError(f"record must be a JSON object, not {type(rec).__name__}")
    paper_id, raw_date, raw_authors = rec.get("id"), rec.get("date"), rec.get("authors")
    if not isinstance(paper_id, str) or not paper_id:
        raise _field_problem(rec, "id")
    if not isinstance(raw_date, str):
        raise _field_problem(rec, "date")
    date = parse_date(raw_date)
    if not isinstance(raw_authors, list) or not raw_authors:
        raise _field_problem(rec, "authors", list)
    for raw in raw_authors:
        if not isinstance(raw, str):
            raise ValueError(f"field 'authors' item must be a string, not {type(raw).__name__}")
    authors = tuple(map(normalize_author, raw_authors))
    title = rec.get("title", "")
    if not isinstance(title, str):
        raise _field_problem(rec, "title")
    if "source" in rec:
        source = rec["source"]
        if not isinstance(source, str):
            raise _field_problem(rec, "source")
    elif "source_path" in rec:
        if not isinstance(rec["source_path"], str):
            raise _field_problem(rec, "source_path")
        with open_file(base_dir, rec["source_path"]) as fh:
            data = io.BytesIO(fh.readall())
        source = io.TextIOWrapper(data, encoding="utf-8").read()  # as ``Path.read_text`` reads
    else:
        raise ValueError("record has neither source nor source_path")
    if len(authors) > 1 and len(set(authors)) != len(authors):
        raise ValueError(f"paper {paper_id!r} has duplicate authors")
    return tuple.__new__(Paper, (paper_id, date, authors, title, source))


def read_records(path: Path | str, problems: list[str],
                 open_file: Callable[..., io.FileIO] = _open_file) -> Iterator[Paper]:
    """The accepted records of a JSONL manifest, one at a time, in
    manifest order.

    Malformed records (bad JSON, bytes that are not UTF-8, bad date,
    duplicate authors, missing source files) are skipped, and so is a
    record whose id an earlier accepted record has; each skip appends one
    line to ``problems``, which the CLI logs at DEBUG, so a damaged
    snapshot is never silently dropped and does not flood the log.  A
    missing manifest is fatal.  Each file is opened through one hook,
    ``open_file(directory, name)``, that returns a raw binary file (by
    default a plain unbuffered one): the manifest by its own directory and
    name, each ``source_path`` by the manifest's directory.  Each is read
    once (the manifest by ``readinto``, a source by ``readall``) and
    closed; a source's open or read error is its record's problem.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"corpus manifest not found: {path}")
    base_dir = path.parent
    seen_ids: set[str] = set()
    # A byte that is not UTF-8 decodes to a lone surrogate, so that only its
    # own line fails; no line that decoded cleanly holds one.
    buffered = io.BufferedReader(open_file(base_dir, path.name))
    with io.TextIOWrapper(buffered, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # raises on an escaped byte
                try:
                    rec, end = _scan_once(line, 0)
                    if line[end:].strip(_JSON_WS):
                        raise ValueError("trailing data")
                except (StopIteration, ValueError):
                    rec = json.loads(line)
                paper = _parse_record(rec, base_dir, open_file)
                if paper.paper_id in seen_ids:
                    raise ValueError(f"duplicate paper id {paper.paper_id!r}")
            except Exception as exc:  # per-record failures are non-fatal
                problems.append(f"{path.name}:{lineno}: skipped record ({exc})")
                continue
            seen_ids.add(paper.paper_id)
            yield paper


def load_corpus(path: Path | str, open_file: Callable[..., io.FileIO] = _open_file) -> LoadResult:
    """The corpus of a JSONL manifest's accepted records (see
    :func:`read_records`), keeping every source, and what was skipped."""
    problems: list[str] = []
    corpus = Corpus.from_papers(read_records(path, problems, open_file))
    return LoadResult(corpus, len(problems), problems)
