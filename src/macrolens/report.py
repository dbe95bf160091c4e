"""Table emission: corpus summary statistics and CSV/JSON writers.

CSV is the canonical interchange format (quoted fields, UTF-8, header
row, LF line endings so output bytes are platform-independent); JSON
mirrors every table field-for-field.
"""

from __future__ import annotations

import csv
import hashlib
import json
from itertools import chain, compress
from pathlib import Path
from typing import Sequence

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


def write_table(
    base: Path, header: Sequence[str], rows: Sequence[Sequence], fmt: str = "csv"
) -> Path:
    """Write one table as ``<base>.csv`` or ``<base>.json``."""
    base.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = base.with_suffix(".csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
            writer.writerow(header)
            # ``csv.writer`` writes these cell types as ``fmt_value`` does
            if set(map(type, chain.from_iterable(rows))) <= {str, int, float, type(None)}:
                writer.writerows(rows)
            else:
                writer.writerows([fmt_value(v) for v in row] for row in rows)
        return path
    if fmt == "json":
        path = base.with_suffix(".json")
        payload = [dict(zip(header, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
            fh.write("\n")
        return path
    raise ValueError(f"unknown format {fmt!r}")


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
