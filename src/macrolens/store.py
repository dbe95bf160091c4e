"""Corpus store: each manifest is loaded and extracted once, then reopened.

:func:`open_corpus` gives what a fresh :func:`~macrolens.corpus.load_corpus`
gives, with every source ``""``, plus each paper's definitions extracted
and filled into a :class:`~macrolens.extraction.Definitions` (their
effective definitions and conventions worked out once).  It reads them
from one file per manifest under ``$XDG_CACHE_HOME/macrolens/`` (or
``~/.cache/macrolens/``), named by the sha256 of the resolved manifest path.
On a miss the loader and the extractor run once, reading the manifest and
each ``source_path`` file once, and write the file; the command decodes
the bytes it wrote, read back through its own descriptor (so a process
that replaces the file cannot change them).  Each build also deletes the
store files, of any format, whose recorded manifest no longer exists.

A file is used only when the sha256 of its contents holds and its key
matches: the format, the Python version and byte order, the sha256 of the
source of ``corpus.py``, ``extraction.py`` (which fills the definitions'
columns) and this module, the sha256 of the manifest's bytes (those the
build parsed; an open hashes the manifest only to check a file), and, for
every ``source_path`` file the loader read, the file's sha256 or its read
error.  Anything else is rebuilt.  When no file can be written the
command loads and extracts the manifest as it stands, filling the same
columns, after one DEBUG line.  Either way each source goes once it is
extracted.  The file holds a JSON header, ``array`` ints and two UTF-8
string tables, so reading it runs no code; deleting it is always safe.

Layout (format 5): magic, sha256 of the rest, header length (8 bytes),
header (key, resolved manifest path, ``source_path`` fingerprints, skip
counts, problem lines without the manifest name, column lengths), the int
columns of each table in ``_TABLES`` by its ``COLUMNS`` (the corpus's, then
the definitions': each paper's definitions, less their offsets, which no
command reads, and its effective definitions with their convention
flags), the char offsets of each table's strings into the text that
follows, then the text of the corpus's string table followed by the
definitions' one.  An open parses the header once, copies the columns
into arrays and decodes that text as one string; a corpus string is cut
from it only when a caller asks for it, and the definitions' columns and
strings are decoded only when definitions are asked for.  Lone
surrogates pass through the tables by ``surrogatepass``.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import mmap
import os
import sys
from array import array
from itertools import accumulate, chain, pairwise, starmap
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import COLUMN_TYPE, Corpus, load_corpus
from .extraction import Definitions, definition_columns, extract_definitions

log = logging.getLogger(__name__)
_problem_log = logging.getLogger("macrolens.corpus")  # the loader's problem lines

_FORMAT = 5
_MAGIC = b"macrolens corpus store\n"
# the fixed prefix: the magic, the sha256 of all that follows it, the header's length
_DIGEST, _LENGTH = slice(len(_MAGIC), len(_MAGIC) + 32), slice(len(_MAGIC) + 32, len(_MAGIC) + 40)
_TABLES = (Corpus, Definitions)  # in file order
_SIZE = array(COLUMN_TYPE).itemsize  # a value too large for it fails the build, not the command


class _Strings:
    """A string table cut from one decoded text by char offsets, one
    string at a time."""

    def __init__(self, text: str, offsets: Sequence[int]):
        self._text, self._offsets = text, offsets

    def __getitem__(self, i: int) -> str:
        return self._text[self._offsets[i]:self._offsets[i + 1]]


class Opened(NamedTuple):
    """A manifest's corpus (every ``source`` is ``""``), its definitions'
    columns, and what the loader and the extractor skipped."""

    corpus: Corpus
    definitions: Definitions | None  # None unless asked for
    skipped: int
    problems: list[str]
    definitions_skipped: int


def _extract(corpus: Corpus) -> tuple[Definitions, int]:
    """The columns of each paper's definitions, and the number of
    malformed definitions skipped; the corpus's sources are taken from it,
    and each is dropped once it is extracted."""
    sources, corpus.sources = corpus.sources, None
    skipped = 0

    def extracted():
        nonlocal skipped
        for i, source in enumerate(sources):
            sources[i] = None
            res = extract_definitions(source, corpus.paper_id(i))
            skipped += res.skipped
            yield res.definitions

    columns = definition_columns(extracted())  # counts ``skipped`` as it goes
    return columns, skipped


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
    if opened is None:  # not a build into memory, which measured 0.95-7.6x this load's CPU
        result = load_corpus(path)
        defs, defs_skipped = _extract(result.corpus) if definitions else (None, 0)
        result.corpus.sources = None  # taken by ``_extract``; unread without definitions
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
    key = {"format": _FORMAT, "python": f"{sys.version} {sys.byteorder}", "code": code.hexdigest()}
    try:
        stored = _read(file, path, key)
    except (OSError, ValueError, LookupError, TypeError):  # unreadable or garbled: rebuilt
        stored = None
    return _decode(*(stored or _write(file, path, key)), path, definitions)


def _fingerprint(file: Path) -> tuple[str, bytes | OSError]:
    """(sha256 of the file's bytes, the bytes), or (its read error, the error)."""
    try:
        data = file.read_bytes()
    except OSError as exc:
        return f"{type(exc).__name__}: {exc}", exc
    return hashlib.sha256(data).hexdigest(), data


def _write(file: Path, path: Path, key: dict) -> tuple[memoryview, dict, int]:
    """Builds the store file of ``path`` beside ``file``, moves it in and
    prunes the directory; returns the bytes it wrote, as ``_read`` does."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=file.parent, prefix=file.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w+b") as fh:
            header, cols, strings = _build(path, key)
            fh.write(_MAGIC + bytes(32) + len(header).to_bytes(8, "little") + header)
            fh.writelines(cols)
            cols.clear()
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogatepass", newline="")
            text.writelines(strings)
            text.detach()
            # read back once the build's columns and strings are gone, so
            # that they and the file's bytes are never held together
            fh.seek(0)
            data = memoryview(fh.read())
            fh.seek(_DIGEST.start)
            fh.write(hashlib.sha256(data[_DIGEST.stop:]).digest())
        os.replace(tmp, file)
    except BaseException:
        os.unlink(tmp)
        raise
    _prune(file.parent)
    return data, *_header(data)


def _build(path: Path, key: dict) -> tuple[bytes, list[array], Iterable[str]]:
    """Loads and extracts ``path``: the store's header (whose key names
    the manifest bytes that were parsed), int columns and strings in table
    order.  Each ``source_path`` file is read once."""
    read: list[tuple[str, str]] = []

    def recorded(base_dir: Path, name: str) -> bytes:
        fingerprint, data = _fingerprint(base_dir / name)
        read.append((name, fingerprint))
        if isinstance(data, OSError):
            raise data  # the loader's own error
        return data

    result = load_corpus(path, recorded)
    corpus, key = result.corpus, {**key, "manifest": result.sha256}
    defs, defs_skipped = _extract(corpus)
    tables = (corpus, defs)  # as in ``_TABLES``
    cols = [column for table in tables for column in table.columns().values()]
    end = 0
    for table in tables:
        cols.append(array(COLUMN_TYPE, accumulate(map(len, table.strings), initial=end)))
        end = cols[-1][-1]
    prefix = len(path.name) + 1  # the problem lines' "<manifest name>:"
    header = json.dumps({
        "key": key, "path": os.fsdecode(path.resolve()), "read": read, "skipped": result.skipped,
        "definitions_skipped": defs_skipped,
        "problems": [line[prefix:] for line in result.problems],
        "columns": list(map(len, cols)),
    }).encode("ascii")
    return header, cols, chain(corpus.strings, defs.strings)


def _prune(directory: Path) -> None:
    """Deletes the store files in ``directory``, of any format, whose
    recorded manifest no longer exists.  A file being written (``.tmp``)
    and a file whose header does not parse stay."""
    for file in directory.iterdir():
        if file.suffix == ".tmp":
            continue
        try:  # mapped, so that only the prefix and the header are read
            with open(file, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
                if not os.path.exists(_header(data)[0]["path"]):
                    file.unlink()
        except (OSError, ValueError, LookupError, TypeError):
            continue


def _header(data: memoryview | mmap.mmap) -> tuple[dict, int]:
    """A store file's header, and where its columns start; ``data`` holds
    the file from its start."""
    if data[:_DIGEST.start] != _MAGIC:
        raise ValueError("not a corpus store file")
    end = _LENGTH.stop + int.from_bytes(data[_LENGTH], "little")
    return json.loads(bytes(data[_LENGTH.stop:end])), end


def _read(file: Path, path: Path, key: dict) -> tuple[memoryview, dict, int] | None:
    """The store file's bytes, header and columns' start, or None when it
    is missing or does not hold for ``path`` as it is now (the one place
    that hashes the manifest)."""
    try:
        data = memoryview(file.read_bytes())
    except FileNotFoundError:
        return None
    if data[_DIGEST] != hashlib.sha256(data[_DIGEST.stop:]).digest():
        return None
    header, end = _header(data)
    # one reused buffer: a new 1-MB chunk per read raised latex-heavy's peak RSS 1.2 MB
    manifest, buffer = hashlib.sha256(), bytearray(1 << 16)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            manifest.update(memoryview(buffer)[:n])
    if header["key"] != {**key, "manifest": manifest.hexdigest()} or any(
        _fingerprint(path.parent / name)[0] != fingerprint for name, fingerprint in header["read"]
    ):
        return None
    return data, header, end


def _decode(data: memoryview, header: dict, pos: int, path: Path, definitions: bool) -> Opened:
    """The corpus, definitions (if asked for) and skip counts that a store
    file's bytes hold, its columns starting at ``pos``; ``data`` is
    released once they are copied out."""
    with data:  # the corpus keeps copies of its columns and of its part of the text
        cols = []
        for length in header["columns"]:
            cols.append(array(COLUMN_TYPE))
            cols[-1].frombytes(data[pos:pos + _SIZE * length])
            pos += _SIZE * length
        text = str(data[pos:], "utf-8", "surrogatepass")
    left = iter(cols)
    named = [dict(zip(table.COLUMNS, left)) for table in _TABLES]
    corpus_strings, definition_strings = left  # each table's string offsets; raises on a miscount
    corpus = Corpus(_Strings(text[:corpus_strings[-1]], corpus_strings), **named[0])
    defs = None
    if definitions:
        bounds = starmap(slice, pairwise(definition_strings))
        defs = Definitions(list(map(text.__getitem__, bounds)), **named[1])
    return Opened(
        corpus, defs, header["skipped"], [f"{path.name}:{line}" for line in header["problems"]],
        header["definitions_skipped"] if definitions else 0,
    )
