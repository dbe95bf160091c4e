"""A relational oracle: the ``timelines`` table and ``report``'s summary,
computed by SQL over the loader's papers and the extractor's records.

The papers come from ``load_corpus`` and each paper's records, offsets
included, from ``extract_definitions``; both have their own goldens and
oracles.  Everything after that is SQL in an in-memory SQLite database,
and nothing reads the package's definition columns, timelines, ledger or
co-author index, so a wrong rule there would have to be written twice,
in two paradigms, to go unnoticed.

The two rules, each stated once below as a window:

* a paper's effective definition of a name is its last one by offset,
  an offset tie going to the later record;
* a paper's convention for a body ``(signature, body)`` is its earliest
  effective definition of it by offset, a tie going to the name that
  appears first.

Usage (not collected by pytest)::

    PYTHONPATH=src python3 tests/sql_oracle.py MANIFEST
"""

from __future__ import annotations

import sqlite3
import sys
import time

from macrolens.corpus import load_corpus
from macrolens.extraction import extract_definitions

SCHEMA = """
CREATE TABLE bylines(paper INTEGER, author TEXT);
CREATE INDEX bylines_by_paper ON bylines(paper);
CREATE TABLE defs(paper INTEGER, seq INTEGER, name TEXT, body TEXT, signature TEXT, start INTEGER);
"""

# {effective} and {convention} are the sort directions of the two rules:
# DESC keeps a name's last definition, ASC a body's earliest one.
CONVENTIONS = """
WITH placed AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY paper ORDER BY start, seq) AS place
  FROM defs
), named AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY paper, name ORDER BY place {effective}) AS kept,
            MIN(place) OVER (PARTITION BY paper, name) AS name_place
  FROM placed
), chosen AS (
  SELECT *, ROW_NUMBER() OVER (
              PARTITION BY paper, signature, body ORDER BY start {convention}, name_place
            ) AS first_of_body
  FROM named WHERE kept = 1
)
SELECT paper, name, body, signature FROM chosen WHERE first_of_body = 1
"""

TIMELINES = """
SELECT c.signature, c.body, COUNT(DISTINCT c.paper), COUNT(DISTINCT c.name),
       COUNT(DISTINCT b.author)
FROM ({conventions}) AS c JOIN bylines AS b ON b.paper = c.paper
GROUP BY c.signature, c.body
ORDER BY c.signature, c.body
"""

SUMMARY = """
WITH with_macro AS (SELECT DISTINCT paper FROM defs),
     slots AS (SELECT author FROM bylines WHERE paper IN (SELECT paper FROM with_macro)),
     counts AS (
  SELECT (SELECT COUNT(*) FROM with_macro) AS papers,
         (SELECT COUNT(*) FROM defs) AS definitions,
         (SELECT COUNT(*) FROM (SELECT DISTINCT signature, body FROM defs)) AS bodies,
         (SELECT COUNT(*) FROM (SELECT DISTINCT signature, body, name FROM defs)) AS named,
         (SELECT COUNT(DISTINCT author) FROM slots) AS authors,
         (SELECT COUNT(*) FROM slots) AS author_slots
)
SELECT papers, definitions, bodies,
       CASE WHEN bodies > 0 THEN CAST(named AS REAL) / bodies ELSE 0.0 END,
       authors,
       CASE WHEN papers > 0 THEN CAST(author_slots AS REAL) / papers ELSE 0.0 END
FROM counts
"""

SUMMARY_METRICS = ("papers_with_macro", "definitions", "unique_bodies", "avg_names_per_body",
                   "unique_authors", "avg_authors_per_paper")


def load(manifest) -> sqlite3.Connection:
    """The manifest's papers (numbered in load order) and their records."""
    db = sqlite3.connect(":memory:")
    db.executescript(SCHEMA)
    for paper, record in enumerate(load_corpus(manifest).corpus):
        db.executemany("INSERT INTO bylines VALUES (?, ?)",
                       ((paper, author) for author in record.authors))
        found = extract_definitions(record.source, record.paper_id).definitions
        db.executemany("INSERT INTO defs VALUES (?, ?, ?, ?, ?, ?)", (
            (paper, seq, d.name, d.body, d.signature, d.offset) for seq, d in enumerate(found)
        ))
    return db


def timelines(db: sqlite3.Connection, last_name: bool = True,
              earliest_body: bool = True) -> list[tuple[str, str, int, int, int]]:
    """``(signature, body, m, distinct names, distinct authors)`` per body,
    in body order; the flags reverse either rule."""
    conventions = CONVENTIONS.format(effective="DESC" if last_name else "ASC",
                                     convention="ASC" if earliest_body else "DESC")
    return db.execute(TIMELINES.format(conventions=conventions)).fetchall()


def summary(db: sqlite3.Connection) -> list[tuple[str, int | float]]:
    """``report``'s summary rows, ``(metric, value)``."""
    return list(zip(SUMMARY_METRICS, db.execute(SUMMARY).fetchone()))


if __name__ == "__main__":
    db = load(sys.argv[1])
    for name, query in (("timelines", timelines), ("summary", summary)):
        start = time.perf_counter()
        rows = query(db)
        print(f"{name}: {len(rows)} rows, {time.perf_counter() - start:.2f} s of SQL")
