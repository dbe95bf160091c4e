"""Output checks for one battery command, against the planted facts.

Each check reads the command's output files (and the warnings it
logged) and returns a list of problems; an empty list is a pass.  Body
hashes are re-derived here rather than imported from the package.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path


def body_hash(body: str, signature: str = "") -> str:
    return hashlib.sha1((signature + "\x1f" + body).encode("utf-8")).hexdigest()


def tree_hash(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _logged(messages: list[str], pattern: str) -> int:
    """The count in the one message matching ``pattern``, 0 when absent."""
    counts = [int(m.group(1)) for m in (re.fullmatch(pattern, s) for s in messages) if m]
    return counts[0] if len(counts) == 1 else (0 if not counts else -1)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _fights(out: Path, kind: str, planted: dict, problems: list[str]) -> None:
    fights = _rows(out / f"{kind}_fights.csv")
    _expect(problems, f"{kind} fight papers", sorted(r["paper_id"] for r in fights),
            planted[f"{kind}_fights"])
    _expect(problems, f"{kind} feature rows", len(_rows(out / f"{kind}_fight_features.csv")),
            len(fights))
    if not _rows(out / f"{kind}_fight_gap_table.csv"):
        problems.append(f"{kind} gap table is empty")


def _changeovers(rows: list[dict], planted: dict, hash_col: str, problems: list[str]) -> None:
    found = {r[hash_col]: (r["early_name"], r["late_name"]) for r in rows}
    for c in planted["changeovers"]:
        _expect(problems, f"changeover {c['body']}", found.get(body_hash(c["body"])),
                (c["early_name"], c["late_name"]))


def _definitions(out: Path, planted: dict, messages: list[str], problems: list[str]) -> None:
    _expect(problems, "definitions rows", len(_rows(out / "definitions.csv")),
            planted["definitions"])
    _expect(problems, "skipped definitions",
            _logged(messages, r"skipped (\d+) malformed macro definitions"),
            planted["skipped_definitions"])


def check(command: tuple[str, ...], out: Path, planted: dict, messages: list[str]) -> list[str]:
    """Problems with one command's outputs; ``messages`` are the log
    messages it emitted."""
    problems: list[str] = []
    name = command[0] if command[0] != "fights" else f"fights {command[1]}"
    try:
        if name != "predict":
            _expect(problems, "skipped records",
                    _logged(messages, r"skipped (\d+) malformed corpus records"),
                    planted["skipped_records"])
        if name in ("fights name", "fights body"):
            _fights(out, command[1], planted, problems)
        elif name == "predict":
            metrics = _rows(out / "prediction_metrics.csv")
            _expect(problems, "prediction rows", len(metrics), 1)
            n = int(metrics[0]["n_train"]) + int(metrics[0]["n_test"])
            if not 0 < n <= len(planted["name_fights"]):
                problems.append(f"prediction used {n} rows")
            if not 0.0 <= float(metrics[0]["accuracy"]) <= 1.0:
                problems.append("accuracy outside [0, 1]")
        elif name == "fights title":
            _expect(problems, "title fight papers",
                    sorted(r["paper_id"] for r in _rows(out / "title_fights.csv")),
                    planted["title_fights"])
            _expect(problems, "title pairs", len(_rows(out / "title_fight_pairs.csv")),
                    planted["title_pairs"])
        elif name == "matched-pairs":
            pairs = _rows(out / "matched_pairs.csv")
            _changeovers(pairs, planted, "beta_hash", problems)
            _expect(problems, "changeover feature rows",
                    len(_rows(out / "changeover_features.csv")), 2 * len(pairs))
        elif name == "curves":
            for table in ("aggregate_curves", "crossing_histogram", "experience_curves"):
                if not _rows(out / f"{table}.csv"):
                    problems.append(f"{table} is empty")
        elif name == "extract":
            _definitions(out, planted, messages, problems)
        elif name == "changeovers":
            rows = _rows(out / "changeovers.csv")
            _changeovers(rows, planted, "body_hash", problems)
            for r in rows:
                if not (out / "curves" / f"{r['body_hash']}.csv").is_file():
                    problems.append(f"missing curve for {r['body_hash']}")
        elif name == "report":
            _definitions(out, planted, messages, problems)
            summary = {r["metric"]: r["value"] for r in _rows(out / "summary.csv")}
            _expect(problems, "summary definitions", summary.get("definitions"),
                    str(planted["definitions"]))
        else:
            problems.append(f"no check for {name}")
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
