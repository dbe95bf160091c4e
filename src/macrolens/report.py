"""Table emission: corpus summary statistics and CSV/JSON writers.

CSV is the canonical interchange format (quoted fields, UTF-8, header
row, LF line endings so output bytes are platform-independent); JSON
mirrors every table field-for-field, with LF line endings too.

A CSV field is the cell's text as :func:`fmt_value` gives it, between
double quotes, with each ``"`` in it doubled; nothing else is escaped.
The rows are read once, ``BLOCK_ROWS`` at a time, and each column of a
block takes one of three paths by the exact types of its cells:

- all ``str``: a per-column dict quotes each distinct string once; it
  is emptied before a block once it holds more than ``BLOCK_ROWS``
  strings, so the writer's memory does not grow with the table;
- all ``int`` or ``float``: ``'"{}"'.format``, which gives ``str`` and
  ``repr``'s text and needs no doubling;
- anything else (``None``, ``bool``, numpy scalars, ``str`` subclasses):
  ``fmt_value`` per cell.

Only exact ``str`` cells may share a dict entry: ``1``, ``1.0`` and
``True`` are equal keys, as are ``0.0`` and ``-0.0``, and a ``str``
subclass equals its plain string but may print differently.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, compress, islice
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus
from .extraction import Definitions


def body_hash(signature: str, body: str) -> str:
    payload = signature + "\x1f" + body
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip repr, numpy scalars included
    return str(v)


BLOCK_ROWS = 1024


class _Quoted(dict):
    """Each ``str`` looked up, as a quoted CSV field built on first use."""

    def __missing__(self, text: str) -> str:
        field = self[text] = '"' + text.replace('"', '""') + '"'
        return field


def _quoted_other(v) -> str:
    return '"' + fmt_value(v).replace('"', '""') + '"'


def _write_csv(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    quoted = [_Quoted() for _ in header]
    fh.write(",".join(map(_quoted_other, header)) + "\n")
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        fields = []
        for memo, column in zip(quoted, zip(*block)):
            types = set(map(type, column))
            if types == {str}:
                if len(memo) > BLOCK_ROWS:
                    memo.clear()
                fields.append(map(memo.__getitem__, column))
            elif types <= {int, float}:
                fields.append(map('"{}"'.format, column))
            else:
                fields.append(map(_quoted_other, column))
        fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _write_json(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``json.dump``'s bytes and a newline, encoded ``BLOCK_ROWS`` row objects at a time."""
    encode = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False).encode
    rows, separator = iter(rows), "[\n"
    while block := list(islice(rows, BLOCK_ROWS)):
        fh.write(separator + encode([dict(zip(header, row)) for row in block])[2:-2])
        separator = ",\n"
    fh.write("[]\n" if separator == "[\n" else "\n]\n")


def write_table(
    base: Path, header: Sequence[str], rows: Iterable[Sequence], fmt: str = "csv"
) -> Path:
    """Write one table as ``<base>.csv`` or ``<base>.json``, reading
    ``rows`` once."""
    base.parent.mkdir(parents=True, exist_ok=True)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    path = base.with_suffix(f".{fmt}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        (_write_csv if fmt == "csv" else _write_json)(fh, header, rows)
    return path


def corpus_summary(corpus: Corpus, definitions: Definitions) -> dict[str, float | int]:
    """The six headline dataset statistics, in the row order of the
    ``summary`` table.

    Author counts cover papers that define at least one macro, matching
    the denominator used for the other quantities.  The sets hold ids,
    and equal ids are equal strings.
    """
    papers_with = list(compress(range(len(corpus)), definitions.counts))
    named = set(zip(definitions.signature, definitions.body, definitions.name))
    bodies = {(signature, body) for signature, body, _ in named}
    offsets, author_ids = corpus.author_offsets, corpus.author_ids
    bylines = [author_ids[offsets[i]:offsets[i + 1]] for i in papers_with]
    authors = set(chain.from_iterable(bylines))
    author_slots = sum(map(len, bylines))
    return {
        "papers_with_macro": len(papers_with),
        "definitions": len(definitions.name),
        "unique_bodies": len(bodies),
        "avg_names_per_body": (len(named) / len(bodies)) if bodies else 0.0,
        "unique_authors": len(authors),
        "avg_authors_per_paper": (author_slots / len(papers_with)) if papers_with else 0.0,
    }
