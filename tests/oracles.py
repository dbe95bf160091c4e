"""Brute-force reference implementations used to check the pipeline.

These deliberately share no code with the production modules: every
rule is re-derived here with plain loops and explicit enumeration so
that a bug would have to occur twice, independently, to go unnoticed.
Where a faster production function replaced a former one, the former
one is kept here as it was.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import logging
import math
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class OracleChangeover:
    early_name: str
    late_name: str


def _slice_bounds(m: int, t0: float, t1: float) -> tuple[int, int]:
    lo = math.floor(t0 * m)
    if lo > m - 1:
        lo = m - 1
    hi = math.floor(t1 * m)
    if hi <= lo:
        hi = lo + 1
    if hi > m:
        hi = m
    return lo, hi


def _top_name(names: list[str]) -> str:
    """Most frequent name; count ties go to the earliest first position."""
    counts: dict[str, int] = {}
    for n in names:
        counts[n] = counts.get(n, 0) + 1
    ranked = []
    seen = set()
    for idx, n in enumerate(names):
        if n in seen:
            continue
        seen.add(n)
        ranked.append((-counts[n], idx, n))
    ranked.sort()
    return ranked[0][2]


def _author_share(occs: list, name: str) -> float:
    everyone = []
    users = []
    for occ in occs:
        for a in occ.authors:
            if a not in everyone:
                everyone.append(a)
            if occ.name == name and a not in users:
                users.append(a)
    return len(users) / len(everyone)


def oracle_changeover(timeline, s: int, q: float, theta: float) -> OracleChangeover | None:
    """Clause-by-clause evaluation of the changeover definition."""
    occs = list(timeline.occurrences)
    m = len(occs)
    if m < s:
        return None
    lo, hi = _slice_bounds(m, 0.0, q)
    early = occs[lo:hi]
    lo, hi = _slice_bounds(m, 1.0 - q, 1.0)
    late = occs[lo:hi]
    early_names = [o.name for o in early]
    late_names = [o.name for o in late]
    n_e = _top_name(early_names)
    n_l = _top_name(late_names)
    if n_e == n_l:
        return None
    if not _author_share(early, n_e) > theta:
        return None
    if not _author_share(late, n_l) > theta:
        return None
    return OracleChangeover(early_name=n_e, late_name=n_l)


def oracle_betweenness(nodes: list[str], edges: list[tuple[str, str]]) -> dict[str, float]:
    """Exhaustive shortest-path enumeration; practical up to ~10 nodes.

    For every unordered pair, all shortest paths are listed explicitly
    and each interior node is credited its share.
    """
    if len(nodes) > 10:
        raise ValueError("oracle limited to 10 nodes")
    adj: dict[str, set[str]] = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def all_shortest_paths(s: str, t: str) -> list[list[str]]:
        # breadth-first layers, then depth-first walk of all minimal paths
        dist = {s: 0}
        frontier = [s]
        while frontier and t not in dist:
            nxt = []
            for v in frontier:
                for w in sorted(adj[v]):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if t not in dist:
            return []
        paths: list[list[str]] = []

        def walk(path: list[str]) -> None:
            v = path[-1]
            if v == t:
                paths.append(list(path))
                return
            for w in sorted(adj[v]):
                if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                    path.append(w)
                    walk(path)
                    path.pop()

        walk([s])
        return paths

    scores = {v: 0.0 for v in nodes}
    ordered = sorted(nodes)
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            paths = all_shortest_paths(ordered[i], ordered[j])
            if not paths:
                continue
            for v in nodes:
                if v in (ordered[i], ordered[j]):
                    continue
                through = sum(1 for p in paths if v in p)
                scores[v] += through / len(paths)
    return scores


def oracle_coauthor_edges(
    papers: list[tuple[int, tuple[str, ...]]],
    uses: list[tuple[int, tuple[str, ...]]],
    cutoff_rank: int,
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """A body's prior users and the co-author pairs among them.

    ``papers`` lists every paper of the corpus and ``uses`` the papers that
    used the body, each as (tie-group rank, authors).  The users are the
    authors of uses strictly before ``cutoff_rank``; two users are joined
    when some paper strictly before the cutoff lists both, whether or not
    it used the body.  Nodes are sorted, edges are sorted (smaller,
    larger) name pairs.
    """
    users: list[str] = []
    for rank, authors in uses:
        if rank < cutoff_rank:
            for a in authors:
                if a not in users:
                    users.append(a)
    edges: list[tuple[str, str]] = []
    for rank, authors in papers:
        if rank >= cutoff_rank:
            continue
        for x in authors:
            for y in authors:
                if x < y and x in users and y in users and (x, y) not in edges:
                    edges.append((x, y))
    return tuple(sorted(users)), tuple(sorted(edges))


def oracle_validate_matched_pair(pair, q: float, ratio_lo: float, ratio_hi: float, tol: float) -> list[str]:
    """Recheck a matched pair's invariants from its raw timelines.

    Returns human-readable violations (empty list = valid).
    """
    problems: list[str] = []
    m_b = len(pair.record.timeline.occurrences)
    m_g = len(pair.control.occurrences)
    ratio = m_b / m_g
    if not (ratio_lo <= ratio <= ratio_hi):
        problems.append(f"volume ratio {ratio:.4f} outside [{ratio_lo}, {ratio_hi}]")

    def share(timeline, name: str) -> float:
        occs = list(timeline.occurrences)
        lo, hi = _slice_bounds(len(occs), 0.0, q)
        return _author_share(occs[lo:hi], name)

    f_b = share(pair.record.timeline, pair.record.early_name)
    g_b = share(pair.record.timeline, pair.record.late_name)
    f_g = share(pair.control, pair.control_early_name)
    g_g = share(pair.control, pair.control_late_name)
    if not abs(f_b - f_g) < tol:
        problems.append(f"early-name prevalence gap {abs(f_b - f_g):.4f} >= {tol}")
    if not abs(g_b - g_g) < tol:
        problems.append(f"late-name prevalence gap {abs(g_b - g_g):.4f} >= {tol}")
    return problems


# ---------------------------------------------------------------------------
# Macro extraction: the character-by-character scanner the package used
# before its shared lexer, kept as it was apart from names.  Each loop
# states the escape rule (``\\X`` is opaque) and counts brace depth
# itself, so it shares no scanning code with ``macrolens.extraction``.
# ---------------------------------------------------------------------------


def _is_letter(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z")


@dataclass(frozen=True)
class OracleDefinition:
    paper_id: str
    name: str
    body: str
    command: str
    signature: str = ""
    offset: int = 0


@dataclass
class OracleExtraction:
    definitions: list[OracleDefinition]
    skipped: int


def oracle_strip_comments(source: str) -> str:
    """Drop ``%`` to end-of-line comments; ``\\%`` survives."""
    out: list[str] = []
    for line in source.split("\n"):
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if c == "\\":
                i += 2
                continue
            if c == "%":
                line = line[:i]
                break
            i += 1
        out.append(line)
    return "\n".join(out)


def _scan_control_sequence(text: str, i: int) -> tuple[str | None, int]:
    """Parse a control sequence starting at the backslash at ``i``.

    Returns (sequence including backslash, next index), or (None, next
    index) when the backslash starts nothing usable as a name.
    """
    j = i + 1
    n = len(text)
    if j >= n:
        return None, j
    c = text[j]
    if _is_letter(c):
        k = j
        while k < n and _is_letter(text[k]):
            k += 1
        return text[i:k], k
    if c in "{}" or c.isspace():
        return None, j + 1
    return text[i : j + 1], j + 1


def _scan_group(text: str, i: int) -> tuple[str | None, int]:
    """Scan the balanced ``{...}`` group starting at ``text[i]``.

    Returns (group content without the outer braces, index after the
    closing brace), or (None, len(text)) when unbalanced.
    """
    depth = 0
    j = i
    n = len(text)
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[i + 1 : j], j + 1
        j += 1
    return None, n


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def oracle_check_balanced(text: str) -> bool:
    """True iff braces balance, treating ``\\X`` as opaque."""
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\":
            i += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return False
        i += 1
    return depth == 0


def _normalize_body(raw: str) -> str:
    """Canonical body text: whitespace runs collapsed, ends trimmed.

    Everything else (control sequences, braces, punctuation) is kept
    byte-for-byte so that equal bodies compare equal across papers.
    """
    if not oracle_check_balanced(raw):
        raise ValueError("unbalanced braces in macro body")
    return " ".join(raw.split())


def _parse_def(text: str, i: int, paper_id: str, start: int) -> tuple[OracleDefinition | None, int]:
    """Parse a ``\\def`` at ``i`` (just past the command word)."""
    k = _skip_ws(text, i)
    if k >= len(text) or text[k] != "\\":
        return None, k
    name, k = _scan_control_sequence(text, k)
    if name is None:
        return None, k
    sig_start = k
    n = len(text)
    while k < n:
        c = text[k]
        if c == "\\":
            k += 2
            continue
        if c == "{":
            break
        if c == "}":
            return None, k + 1  # stray close brace in parameter text
        k += 1
    if k >= n:
        return None, n
    signature = " ".join(text[sig_start:k].split())
    body, k2 = _scan_group(text, k)
    if body is None:
        return None, k + 1  # resume inside the unbalanced group
    return (
        OracleDefinition(
            paper_id=paper_id,
            name=name,
            body=_normalize_body(body),
            command="def",
            signature=signature,
            offset=start,
        ),
        k2,
    )


def _parse_newcommand(
    text: str, i: int, paper_id: str, start: int, command: str
) -> tuple[OracleDefinition | None, int]:
    """Parse a ``\\newcommand``/``\\renewcommand`` at ``i``."""
    n = len(text)
    if i < n and text[i] == "*":
        i += 1
    k = _skip_ws(text, i)
    if k >= n:
        return None, n
    if text[k] == "{":
        inner, k2 = _scan_group(text, k)
        if inner is None:
            return None, k + 1  # resume inside the unbalanced group
        k = k2
        name = inner.strip()
        if not _valid_name(name):
            return None, k
    elif text[k] == "\\":
        name, k = _scan_control_sequence(text, k)
        if name is None:
            return None, k
    else:
        return None, k + 1
    signature = ""
    k = _skip_ws(text, k)
    if k < n and text[k] == "[":
        arg_count, k = _scan_bracket_group(text, k)
        if arg_count is None or not (arg_count.strip().isdigit() and len(arg_count.strip()) == 1):
            return None, k
        signature = f"[{arg_count.strip()}]"
        k = _skip_ws(text, k)
        if k < n and text[k] == "[":
            default, k = _scan_bracket_group(text, k)
            if default is None:
                return None, k
            signature += f"[{default}]"
        k = _skip_ws(text, k)
    if k >= n or text[k] != "{":
        return None, k
    body, k2 = _scan_group(text, k)
    if body is None:
        return None, k + 1
    return (
        OracleDefinition(
            paper_id=paper_id,
            name=name,
            body=_normalize_body(body),
            command=command,
            signature=signature,
            offset=start,
        ),
        k2,
    )


def _scan_bracket_group(text: str, i: int) -> tuple[str | None, int]:
    """Scan ``[...]`` starting at ``text[i]``; braces inside are opaque."""
    depth = 0
    j = i + 1
    n = len(text)
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return None, j + 1
        elif c == "]" and depth == 0:
            return text[i + 1 : j], j + 1
        j += 1
    return None, n


def _valid_name(name: str) -> bool:
    if len(name) < 2 or name[0] != "\\":
        return False
    rest = name[1:]
    if all(_is_letter(c) for c in rest):
        return True
    return len(rest) == 1 and not rest.isspace() and rest not in "{}"


def oracle_extract_definitions(source: str, paper_id: str) -> OracleExtraction:
    """All recognized macro definitions in ``source``, in source order."""
    text = oracle_strip_comments(source)
    defs: list[OracleDefinition] = []
    skipped = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] != "\\":
            i += 1
            continue
        seq, j = _scan_control_sequence(text, i)
        if seq is None:
            i = j
            continue
        if seq == "\\def":
            parsed, j2 = _parse_def(text, j, paper_id, i)
        elif seq in ("\\newcommand", "\\renewcommand"):
            parsed, j2 = _parse_newcommand(text, j, paper_id, i, seq[1:])
        else:
            i = j
            continue
        if parsed is None:
            skipped += 1
            i = max(j2, j)
        else:
            defs.append(parsed)
            i = j2
    return OracleExtraction(definitions=defs, skipped=skipped)


@dataclass(frozen=True)
class OracleBodyFeatures:
    length: int
    non_alpha: int
    max_brace_depth: int


def oracle_body_features(body: str) -> OracleBodyFeatures:
    if not body:
        raise ValueError("empty body")
    non_alpha = sum(1 for c in body if not _is_letter(c))
    depth = 0
    max_depth = 0
    i = 0
    n = len(body)
    while i < n:
        c = body[i]
        if c == "\\":
            i += 2
            continue
        if c == "{":
            depth += 1
            max_depth = max(max_depth, depth)
        elif c == "}":
            depth -= 1
        i += 1
    return OracleBodyFeatures(length=len(body), non_alpha=non_alpha, max_brace_depth=max_depth)


# ---------------------------------------------------------------------------
# Author keys: the full Unicode chain on every input, with no ASCII shortcut,
# and whitespace collapsed by a character loop rather than ``str.split``.
# ---------------------------------------------------------------------------


def oracle_normalize_author(raw: str) -> str:
    """NFD, casefold, NFKD, casefold, NFKD; combining marks dropped;
    whitespace runs collapsed to one space and ends trimmed.  Nothing
    left (blank, or combining marks only) is an error."""
    t = unicodedata.normalize("NFD", raw).casefold()
    t = unicodedata.normalize("NFKD", t).casefold()
    t = unicodedata.normalize("NFKD", t)
    words: list[str] = []
    word = ""
    for ch in t:
        if unicodedata.combining(ch):
            continue
        if ch.isspace():
            if word:
                words.append(word)
            word = ""
        else:
            word += ch
    if word:
        words.append(word)
    if not words:
        raise ValueError("author string is empty")
    return " ".join(words)


# ---------------------------------------------------------------------------
# Manifest loading: the loader as it stood before its decode fast path,
# copied as it was.  Every line goes through ``json.loads``, and the records
# are frozen dataclasses that check themselves in ``__post_init__``.
# ---------------------------------------------------------------------------

_ORACLE_DATE = re.compile(r"(\d{4})-(\d{2})(?:-(\d{2}))?", re.ASCII)

_oracle_log = logging.getLogger("oracles.load_corpus")


def _oracle_author_key(raw: str) -> str:
    if not raw or not raw.strip():
        raise ValueError("author string is empty")
    if raw.isascii():
        return " ".join(raw.lower().split())
    t = unicodedata.normalize("NFD", raw).casefold()
    t = unicodedata.normalize("NFKD", t).casefold()
    t = unicodedata.normalize("NFKD", t)
    t = "".join(ch for ch in t if not unicodedata.combining(ch))
    if not t.split():  # combining marks only
        raise ValueError("author string is empty")
    return " ".join(t.split())


@dataclass(frozen=True, order=True)
class _OracleDate:
    year: int
    month: int
    day: int | None = None

    def __post_init__(self) -> None:
        probe = 1 if self.day is None else self.day
        datetime.date(self.year, self.month, probe)  # raises on bad fields

    @classmethod
    def parse(cls, text: str) -> "_OracleDate":
        m = _ORACLE_DATE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"date {text!r} is neither YYYY-MM nor YYYY-MM-DD")
        year, month, day = m.groups()
        try:
            return cls(int(year), int(month), None if day is None else int(day))
        except ValueError as exc:
            raise ValueError(f"date {text!r} is not on the calendar ({exc})") from None

    @property
    def month_granular(self) -> bool:
        return self.day is None

    def sort_key(self) -> tuple[int, int, int]:
        return (self.year, self.month, 0 if self.day is None else self.day)


@dataclass(frozen=True)
class _OraclePaper:
    paper_id: str
    date: _OracleDate
    authors: tuple[str, ...]
    title: str
    source: str

    def __post_init__(self) -> None:
        if not self.authors:
            raise ValueError(f"paper {self.paper_id!r} has no authors")
        if len(set(self.authors)) != len(self.authors):
            raise ValueError(f"paper {self.paper_id!r} has duplicate authors")


def _oracle_order(papers) -> tuple[list[_OraclePaper], dict[str, int]]:
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
    return ordered, ranks


def _oracle_field(rec: dict, name: str, kind: type, expected: str):
    """``rec[name]``, or the problem that names the field."""
    if name not in rec:
        raise ValueError(f"missing field {name!r}")
    if not isinstance(rec[name], kind):
        raise ValueError(f"field {name!r} must be {expected}, not {type(rec[name]).__name__}")
    return rec[name]


def _oracle_parse_record(rec: dict, base_dir: Path) -> _OraclePaper:
    if not isinstance(rec, dict):
        raise ValueError(f"record must be a JSON object, not {type(rec).__name__}")
    paper_id = _oracle_field(rec, "id", str, "a string")
    if not paper_id:
        raise ValueError("field 'id' is empty")
    date = _OracleDate.parse(_oracle_field(rec, "date", str, "a string"))
    raw_authors = _oracle_field(rec, "authors", list, "a list")
    if not raw_authors:
        raise ValueError("field 'authors' is empty")
    for raw in raw_authors:
        if not isinstance(raw, str):
            raise ValueError(f"field 'authors' item must be a string, not {type(raw).__name__}")
    authors = tuple(map(_oracle_author_key, raw_authors))
    title = _oracle_field(rec, "title", str, "a string") if "title" in rec else ""
    if "source" in rec:
        source = _oracle_field(rec, "source", str, "a string")
    elif "source_path" in rec:
        path = _oracle_field(rec, "source_path", str, "a string")
        source = (base_dir / path).read_text(encoding="utf-8")
    else:
        raise ValueError("record has neither source nor source_path")
    return _OraclePaper(paper_id=paper_id, date=date, authors=authors, title=title, source=source)


def oracle_load_corpus(path) -> tuple[list[tuple], dict[str, int], int, list[str]]:
    """``(papers, group_rank, skipped, problems)``; each paper in corpus
    order as ``(id, (year, month, day), authors, title, source)``."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"corpus manifest not found: {path}")
    base_dir = path.parent
    papers: list[_OraclePaper] = []
    seen_ids: set[str] = set()
    skipped = 0
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                paper = _oracle_parse_record(rec, base_dir)
                if paper.paper_id in seen_ids:
                    raise ValueError(f"duplicate paper id {paper.paper_id!r}")
            except Exception as exc:  # per-record failures are non-fatal
                skipped += 1
                msg = f"{path.name}:{lineno}: skipped record ({exc})"
                problems.append(msg)
                _oracle_log.debug(msg)
                continue
            seen_ids.add(paper.paper_id)
            papers.append(paper)
    ordered, ranks = _oracle_order(papers)
    rows = [
        (p.paper_id, (p.date.year, p.date.month, p.date.day), p.authors, p.title, p.source)
        for p in ordered
    ]
    return rows, ranks, skipped, problems


# ---------------------------------------------------------------------------
# Timelines from definition records, as built before the definitions were
# read as columns: each paper's effective definitions and conventions are
# worked out from its records on every call.
# ---------------------------------------------------------------------------


def _oracle_effective(defs: list) -> dict:
    """Each name's last definition in offset order (a stable sort)."""
    survivors = {}
    for d in sorted(defs, key=lambda d: d.offset):
        survivors[d.name] = d
    return survivors


def _oracle_conventions(defs: list) -> list[tuple[tuple[str, str], str]]:
    """Each body key's earliest effective definition's name."""
    best: dict = {}
    for d in _oracle_effective(defs).values():
        key = (d.signature, d.body)
        cur = best.get(key)
        if cur is None or d.offset < cur.offset:
            best[key] = d
    return [(key, d.name) for key, d in best.items()]


def _oracle_buckets(corpus, definitions: dict, uses) -> dict:
    """Each key's (paper id, rank, name, authors) occurrences, papers in
    corpus order, keys sorted; papers not in the corpus left out."""
    positions = {corpus.paper_id(i): i for i in range(len(corpus))}
    buckets: dict = {}
    for i in sorted(positions[p] for p, defs in definitions.items() if defs and p in positions):
        paper_id = corpus.paper_id(i)
        for key, name in uses(definitions[paper_id]):
            buckets.setdefault(key, []).append(
                (paper_id, corpus.ranks[i], name, corpus.authors(i)))
    return {key: buckets[key] for key in sorted(buckets)}


def oracle_timelines(corpus, definitions: dict) -> dict:
    """(signature, body) -> occurrences of each paper's convention."""
    return _oracle_buckets(corpus, definitions, _oracle_conventions)


def oracle_name_timelines(corpus, definitions: dict, whitelist) -> dict:
    """("", name) -> occurrences carrying the body (signature folded in)
    that each paper's surviving definition of the whitelisted name gives it."""
    allowed = set(whitelist)

    def uses(defs):
        return [
            (("", name), d.body if not d.signature else d.signature + " " + d.body)
            for name, d in sorted(_oracle_effective(defs).items())
            if name in allowed
        ]

    return _oracle_buckets(corpus, definitions, uses)


def _oracle_cell_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def oracle_csv(header, rows) -> bytes:
    """A table's CSV bytes: ``csv.writer`` with every field quoted and LF
    line ends, over each cell's text (``None`` empty, ``bool`` 0 or 1, a
    float by its shortest round-trip repr, anything else by ``str``)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_oracle_cell_text(v) for v in row] for row in rows)
    return buffer.getvalue().encode("utf-8")
