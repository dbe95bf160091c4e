"""Corpus store: each manifest is loaded and extracted once, then reopened.

:func:`open_corpus` gives what a fresh :func:`~macrolens.corpus.load_corpus`
plus :func:`extract_all` give, with every ``Paper.source`` set to ``""``.
It reads them from one file per manifest under ``$XDG_CACHE_HOME/macrolens/``
(or ``~/.cache/macrolens/``), named by the sha256 of the resolved manifest
path.  On a miss the loader and the extractor run once and write the file,
which is then opened exactly as on a hit.

A file is used only when the sha256 of its contents holds and its key
matches: the format, the Python version and byte order, the sha256 of the
source of ``corpus.py``, ``extraction.py`` and this module, the sha256 of
the manifest's bytes, and, for every ``source_path`` file the loader read,
the file's sha256 or its read error.  Anything else is rebuilt.  When no file
can be written the command loads the manifest as before, after one DEBUG
line.  The file holds a JSON header, ``array`` ints and one UTF-8 string
table, so reading it runs no code; deleting it is always safe.

Layout: magic, sha256 of the rest, header length (8 bytes), header (key,
``source_path`` fingerprints, skip counts, problem lines without the
manifest name, column lengths), the int columns in ``_COLUMNS`` order, then
the string table whose lengths are the last column.  Lone surrogates pass
through the table by ``surrogatepass``.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import sys
from array import array
from functools import partial
from itertools import accumulate, chain, islice, pairwise, repeat, starmap
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus, Paper, PaperDate, load_corpus, read_source
from .extraction import MacroDefinition, extract_definitions

log = logging.getLogger(__name__)
_problem_log = logging.getLogger("macrolens.corpus")  # the loader's problem lines

_FORMAT = 1
_MAGIC = b"macrolens corpus store\n"
# Papers in corpus order (a date is yyyymmdd, dd 0 when month-granular;
# ``authors`` and ``definitions`` count each paper's), their authors, their
# definitions, and the string table's lengths.
_PAPER = ("paper_id", "date", "rank", "title", "authors", "definitions")
_DEFINITION = ("name", "body", "command", "signature", "offset")
_COLUMNS = (*_PAPER, "author", *_DEFINITION, "lengths")
_INT, _SIZE = "i", 4  # signed 32-bit: a larger value fails the build, not the command
_make_definition = partial(tuple.__new__, MacroDefinition)


class Opened(NamedTuple):
    """A manifest's corpus (every ``source`` is ``""`` when it came from a
    store file), its definitions by paper id, and what the loader and the
    extractor skipped."""

    corpus: Corpus
    definitions: dict[str, list[MacroDefinition]]  # empty unless asked for
    skipped: int
    problems: list[str]
    definitions_skipped: int


def extract_all(corpus: Corpus) -> tuple[dict[str, list[MacroDefinition]], int]:
    """Each paper's definitions (papers with none left out), and the
    number of malformed definitions skipped."""
    by_paper: dict[str, list[MacroDefinition]] = {}
    skipped = 0
    for paper in corpus:
        res = extract_definitions(paper.source, paper.paper_id)
        skipped += res.skipped
        if res.definitions:
            by_paper[paper.paper_id] = res.definitions
    return by_paper, skipped


def open_corpus(path: Path | str, definitions: bool = True) -> Opened:
    """The manifest's corpus, definitions (if asked for) and skip counts;
    its problem lines are logged at DEBUG.  A store problem never fails
    the call: the manifest is then loaded as it stands."""
    path = Path(path)
    opened = None
    if path.is_file():  # otherwise the loader raises its own error
        try:
            opened = _open_store(path, definitions)
        except Exception as exc:
            log.debug("corpus store not used for %s (%s: %s)", path.name, type(exc).__name__, exc)
    if opened is None:
        result = load_corpus(path)
        defs, defs_skipped = extract_all(result.corpus) if definitions else ({}, 0)
        opened = Opened(result.corpus, defs, result.skipped, result.problems, defs_skipped)
    for line in opened.problems:
        _problem_log.debug(line)
    return opened


def _open_store(path: Path, definitions: bool) -> Opened:
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(xdg):
        if not os.environ.get("HOME"):
            raise OSError("neither XDG_CACHE_HOME nor HOME is set")
        xdg = os.path.join(os.environ["HOME"], ".cache")
    directory = Path(xdg, "macrolens")
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    file = directory / hashlib.sha256(os.fsencode(path.resolve())).hexdigest()
    code = hashlib.sha256()
    for name in ("corpus.py", "extraction.py", "store.py"):
        code.update(Path(__file__).with_name(name).read_bytes())
    with open(path, "rb") as fh:
        manifest = _digest(fh, 0).hex()
    key = {"format": _FORMAT, "python": f"{sys.version} {sys.byteorder}", "code": code.hexdigest(),
           "manifest": manifest}
    try:
        opened = _read(file, path, key, definitions)
    except (OSError, ValueError, LookupError, TypeError):  # unreadable or garbled: rebuilt
        opened = None
    if opened is None:
        _write(file, path, key)
        opened = _read(file, path, key, definitions)
        if opened is None:
            raise ValueError("the store file changed while it was built")
    return opened


def _fingerprint(file: Path) -> tuple[str, bytes | None]:
    """(sha256 of the file's bytes, the bytes), or (its read error, None)."""
    try:
        data = file.read_bytes()
    except OSError as exc:
        return f"{type(exc).__name__}: {exc}", None
    return hashlib.sha256(data).hexdigest(), data


def _digest(fh, start: int) -> bytes:
    """sha256 of ``fh`` from ``start`` to its end, read in chunks."""
    fh.seek(start)
    digest = hashlib.sha256()
    while chunk := fh.read(1 << 20):
        digest.update(chunk)
    return digest.digest()


def _write(file: Path, path: Path, key: dict) -> None:
    """Builds the store file of ``path`` beside ``file``, then moves it in."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=file.parent, prefix=file.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w+b") as fh:
            header, cols, strings = _build(path, key)
            fh.write(_MAGIC + bytes(32) + len(header).to_bytes(8, "little") + header)
            fh.writelines(cols.pop(name) for name in _COLUMNS)
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogatepass", newline="")
            text.writelines(strings)
            text.detach()
            digest = _digest(fh, len(_MAGIC) + 32)
            fh.seek(len(_MAGIC))
            fh.write(digest)
        os.replace(tmp, file)
    except BaseException:
        os.unlink(tmp)
        raise


def _build(path: Path, key: dict) -> tuple[bytes, dict[str, array], dict[str, int]]:
    """Loads and extracts ``path``: the store's header, its int columns and
    its strings (in table order)."""
    read: list[tuple[str, str]] = []

    def recorded(base_dir: Path, name: str) -> str:
        fingerprint, data = _fingerprint(base_dir / name)
        read.append((name, fingerprint))
        if data is None:
            return read_source(base_dir, name)  # raises the loader's own error
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()

    result = load_corpus(path, recorded)
    papers, ranks = list(result.corpus), result.corpus.group_rank
    skipped, problems = result.skipped, result.problems
    del result  # so that each paper's source goes once it is extracted
    cols = {name: array(_INT) for name in _COLUMNS}
    strings: dict[str, int] = {}

    def index(text: str) -> int:
        return strings.setdefault(text, len(strings))

    defs_skipped = 0
    for i, p in enumerate(papers):
        papers[i] = None
        res = extract_definitions(p.source, p.paper_id)
        defs_skipped += res.skipped
        year, month, day = p.date
        for column, value in zip(_PAPER, (
            index(p.paper_id), (year * 100 + month) * 100 + (day or 0),
            ranks[p.paper_id], index(p.title), len(p.authors), len(res.definitions),
        )):
            cols[column].append(value)
        cols["author"].extend(map(index, p.authors))
        for d in res.definitions:
            for column, value in zip(_DEFINITION, (
                index(d.name), index(d.body), index(d.command), index(d.signature), d.offset,
            )):
                cols[column].append(value)
    cols["lengths"].extend(map(len, strings))
    prefix = len(path.name) + 1  # the problem lines' "<manifest name>:"
    header = json.dumps({
        "key": key, "read": read, "skipped": skipped, "definitions_skipped": defs_skipped,
        "problems": [line[prefix:] for line in problems],
        "columns": [len(cols[name]) for name in _COLUMNS],
    }).encode("ascii")
    return header, cols, strings


def _read(file: Path, path: Path, key: dict, definitions: bool) -> Opened | None:
    """The store file's contents, or None when it is missing or does not
    hold for ``path`` as it is now."""
    try:
        data = memoryview(file.read_bytes())
    except FileNotFoundError:
        return None
    start = len(_MAGIC) + 32
    digest = hashlib.sha256(data[start:]).digest()
    if data[:len(_MAGIC)] != _MAGIC or data[start - 32:start] != digest:
        return None
    pos = start + 8 + int.from_bytes(data[start:start + 8], "little")
    header = json.loads(bytes(data[start + 8:pos]))
    if header["key"] != key or any(
        _fingerprint(path.parent / name)[0] != fingerprint for name, fingerprint in header["read"]
    ):
        return None
    cols = {}
    for name, length in zip(_COLUMNS, header["columns"], strict=True):
        cols[name] = data[pos:pos + _SIZE * length].cast(_INT)
        pos += _SIZE * length
    text = str(data[pos:], "utf-8", "surrogatepass")
    bounds = starmap(slice, pairwise(accumulate(cols["lengths"], initial=0)))
    string = list(map(text.__getitem__, bounds)).__getitem__
    del text
    ids = list(map(string, cols["paper_id"]))
    dates: dict[int, PaperDate] = {}
    for v in cols["date"]:
        if v not in dates:
            dates[v] = tuple.__new__(PaperDate, (v // 10000, v // 100 % 100, v % 100 or None))
    authors = map(string, cols["author"])
    papers = tuple(
        tuple.__new__(Paper, (pid, dates[date], tuple(islice(authors, n)), string(title), ""))
        for pid, date, n, title in zip(ids, cols["date"], cols["authors"], cols["title"])
    )
    by_paper: dict[str, list[MacroDefinition]] = {}
    if definitions:
        flat = list(map(_make_definition, zip(
            chain.from_iterable(map(repeat, ids, cols["definitions"])),
            *(map(string, cols[name]) for name in _DEFINITION[:4]),
            cols["offset"],
        )))
        end = 0
        for pid, n in zip(ids, cols["definitions"]):
            if n:
                by_paper[pid] = flat[end:end + n]
                end += n
    return Opened(
        Corpus.ordered(papers, dict(zip(ids, cols["rank"]))), by_paper, header["skipped"],
        [f"{path.name}:{line}" for line in header["problems"]],
        header["definitions_skipped"] if definitions else 0,
    )
