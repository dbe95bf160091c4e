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

A file is used only when its key matches, the files it was built from are
unchanged, and the sha256 of each section that the open reads holds.  The
key is the format, the Python version and byte order, and the sha256 of
the source of ``corpus.py``, ``extraction.py`` (which fills the
definitions' columns) and this module.  The files are those the loader
opened through its hook, to which the build passes ``_Reader``: the
manifest and each ``source_path`` file.  Each gives one entry: its name,
the sha256 of the bytes read (or the error that stopped the open or the
read), and the stat ``(st_size, st_mtime_ns, st_ctime_ns, st_ino,
st_dev)`` of the descriptor they came through.  The header keeps one
list, the manifest's entry and then each distinct other entry once (a
file that two reads saw differently keeps both, so the next open
rebuilds).  The build's start is the mtime of its temporary store file,
taken before the manifest is opened.

An open checks the manifest's entry at the path it was given and the
others in that path's directory.  It trusts a file without reading it only
when its stat equals the recorded one and the recorded mtime and ctime are
both earlier than the build's start; otherwise it reads the file again
through ``_Reader``, and a different sha256 or error rebuilds the store
(an equal one is a hit, and the file is not rewritten).  This is git's
rule for "racily clean" files (``Documentation/technical/racy-git.txt``):
any change after the build took its stat stamps a ctime no earlier than
the build's start, so it differs from a recorded ctime that is earlier,
and no user program can set a ctime back.  An edit that keeps the size and
restores the mtime is therefore seen, and so is a file swapped in by a
rename (a new inode).  The rule holds on filesystems that keep ctime and
stamp files from one clock.  A file whose stat changed while its bytes did
not (a ``touch``) is hashed once per open until the next build.  Anything
else is rebuilt.  When no file can be written the command loads and
extracts the manifest as it stands, filling the same columns, after one
DEBUG line.  Either way each source goes once it is extracted.  The file
holds a JSON header, ``array`` ints and UTF-8 string tables, so reading it
runs no code; deleting it is always safe.

Layout (format 7): magic, sha256 of the header, header length (8 bytes),
header, then one section for each table in ``_TABLES``: its int columns by
its ``COLUMNS``, the char offsets of each of its strings into the text
that follows, then that text.  The corpus comes first; the definitions'
columns hold each paper's definitions, less their offsets, which no
command reads, and its effective definitions with their convention flags.
The header holds the key, the resolved manifest path, the build's start,
the recorded-file list, skip counts, problem lines without the manifest
name, each table's column lengths, and each section's byte length and
sha256.  An open reads the prefix and the header with ``os.pread`` and
parses the header once; then it maps only the sections it decodes (without
definitions, the corpus's alone) and checks their sha256s.  It copies the
columns into arrays and decodes each table's text as one string before the
file is unmapped; a corpus string is cut from that text only when a caller
asks for it.  Lone surrogates pass through the tables by
``surrogatepass``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import mmap
import os
import sys
from array import array
from itertools import accumulate, pairwise, starmap
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import COLUMN_TYPE, Corpus, load_corpus
from .extraction import Definitions, definition_columns, extract_definitions

log = logging.getLogger(__name__)
_problem_log = logging.getLogger("macrolens.corpus")  # the loader's problem lines

_FORMAT = 7
_MAGIC = b"macrolens corpus store\n"
# the fixed prefix: the magic, the sha256 of the header, the header's length
_DIGEST, _LENGTH = slice(len(_MAGIC), len(_MAGIC) + 32), slice(len(_MAGIC) + 32, len(_MAGIC) + 40)
_TABLES = (Corpus, Definitions)  # in file order
_SIZE = array(COLUMN_TYPE).itemsize  # a value too large for it fails the build, not the command
_UNWRITTEN = [2**63 - 1, "0" * 64]  # a section's [byte length, sha256], no shorter in JSON


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
        stored = _read(file, path, key, definitions)
    except (OSError, ValueError, LookupError, TypeError):  # unreadable or garbled: rebuilt
        stored = None
    return _decode(*(stored or _write(file, path, key)), path, definitions)


def _stat(file: Path | int) -> tuple[int, ...]:
    """What a build records of a file's stat, and an open compares."""
    st = os.stat(file)
    return st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev


class _Reader(io.FileIO):
    """A file a build or a check reads.  It appends its entry ``[name,
    sha256 of the bytes read (set on close), stat of its descriptor]`` to
    ``entries``; an open or read that fails makes it ``[name, error, None]``."""

    def __init__(self, directory: Path, name: str, entries: list):
        self.entry, self.sha256 = [name, None, None], hashlib.sha256()
        entries.append(self.entry)
        self._checked(super().__init__, str(directory / name))  # a str: errors read as the loader's
        self.entry[2] = self._checked(_stat, self.fileno())

    def _checked(self, call, *args):
        """``call(*args)``; an error it raises becomes this file's fingerprint."""
        try:
            return call(*args)
        except OSError as exc:
            self.entry[1:] = f"{type(exc).__name__}: {exc}", None
            raise

    def readinto(self, buffer) -> int:
        n = self._checked(super().readinto, buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n

    def readall(self) -> bytes:
        data = self._checked(super().readall)
        self.sha256.update(data)
        return data

    def close(self) -> None:
        if self.entry[2] is not None:
            self.entry[1] = self.sha256.hexdigest()
        super().close()


def _unchanged(directory: Path, name: str, fingerprint: str, stat: list | None, start: int) -> bool:
    """Whether ``directory / name`` still has the fingerprint that a build
    started at ``start`` recorded with ``stat``: trusted unread when its
    stat is the recorded one and was not racily clean, read again through
    ``_Reader`` otherwise."""
    if stat is not None and stat[1] < start and stat[2] < start:
        try:
            if _stat(directory / name) == tuple(stat):
                return True
        except OSError:
            return False
    entries: list[list] = []
    # one reused buffer: a new 1-MB chunk per read raised latex-heavy's peak RSS 1.2 MB
    buffer = bytearray(1 << 16)
    with contextlib.suppress(OSError), _Reader(directory, name, entries) as fh:
        while fh.readinto(buffer):
            pass
    return entries[0][1] == fingerprint


def _write(file: Path, path: Path, key: dict) -> tuple[dict, memoryview]:
    """Builds the store file of ``path`` beside ``file``, moves it in and
    prunes the directory; returns the header and the sections it wrote,
    as ``_read`` does."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=file.parent, prefix=file.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w+b") as fh:
            header, tables = _build(path, key, _stat(fd)[1])
            header["sections"] = [_UNWRITTEN] * len(tables)
            reserved = len(json.dumps(header))  # the header, padded with spaces to this length
            fh.seek(_LENGTH.stop + reserved)
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogatepass", newline="")
            ends = []
            while tables:  # each table's columns and strings go once written
                cols, strings = tables.pop(0)
                fh.writelines(cols)
                text.writelines(strings)
                text.flush()
                ends.append(fh.tell())
            text.detach()
            del cols, strings
            # read back once the build's columns and strings are gone, so
            # that they and the file's bytes are never held together
            fh.seek(_LENGTH.stop + reserved)
            data = memoryview(fh.read())
            bounds = pairwise([0, *(end - _LENGTH.stop - reserved for end in ends)])
            header["sections"] = [[b - a, hashlib.sha256(data[a:b]).hexdigest()] for a, b in bounds]
            raw = json.dumps(header).encode("ascii").ljust(reserved)
            fh.seek(0)
            fh.write(_MAGIC + hashlib.sha256(raw).digest() + reserved.to_bytes(8, "little") + raw)
        os.replace(tmp, file)
    except BaseException:
        os.unlink(tmp)
        raise
    _prune(file.parent)
    return header, data


def _build(path: Path, key: dict, start: int) -> tuple[dict, list[tuple]]:
    """Loads and extracts ``path``: the store's header, less its sections,
    and each table's int columns (its string offsets last) and strings, in
    table order.  The manifest and each ``source_path`` file are read once,
    through ``_Reader``; the header records the manifest's entry first,
    then each distinct entry of the others once."""
    entries: list[list] = []
    result = load_corpus(path, lambda directory, name: _Reader(directory, name, entries))
    defs, defs_skipped = _extract(result.corpus)
    tables = [
        ([*table.columns().values(),
          array(COLUMN_TYPE, accumulate(map(len, table.strings), initial=0))], table.strings)
        for table in (result.corpus, defs)  # as in ``_TABLES``
    ]
    manifest, *sources = map(tuple, entries)
    prefix = len(path.name) + 1  # the problem lines' "<manifest name>:"
    header = {
        "key": key, "path": os.fsdecode(path.resolve()), "start": start,
        "read": [manifest, *dict.fromkeys(sources)], "skipped": result.skipped,
        "definitions_skipped": defs_skipped,
        "problems": [line[prefix:] for line in result.problems],
        "columns": [list(map(len, cols)) for cols, _ in tables],
    }
    return header, tables


def _prune(directory: Path) -> None:
    """Deletes the store files in ``directory``, of any format, whose
    recorded manifest no longer exists.  A file being written (``.tmp``)
    and a file whose header does not parse stay."""
    for file in directory.iterdir():
        if file.suffix == ".tmp":
            continue
        try:
            with open(file, "rb", buffering=0) as fh:
                recorded = _header(fh.fileno())[0]["path"]
            if not os.path.exists(recorded):
                file.unlink()
        except (OSError, ValueError, LookupError, TypeError):
            continue


def _header(fd: int) -> tuple[dict, bool, int]:
    """A store file's header, whether the prefix's sha256 is the header's
    (from format 6 on; before, it covered the rest of the file), and where
    the sections start.  Only the prefix and the header are read."""
    prefix = os.pread(fd, _LENGTH.stop, 0)
    if prefix[:_DIGEST.start] != _MAGIC:
        raise ValueError("not a corpus store file")
    end = _LENGTH.stop + int.from_bytes(prefix[_LENGTH], "little")
    if end > os.fstat(fd).st_size:
        raise ValueError("the header runs past the end of the file")
    raw = os.pread(fd, end - _LENGTH.stop, _LENGTH.stop)
    return json.loads(raw), hashlib.sha256(raw).digest() == prefix[_DIGEST], end


def _read(file: Path, path: Path, key: dict, definitions: bool) -> tuple[dict, memoryview] | None:
    """The store file's header and the sections an open decodes, or None
    when it is missing or does not hold for ``path`` as it is now."""
    try:
        fh = open(file, "rb", buffering=0)
    except FileNotFoundError:
        return None
    with fh:
        header, holds, pos = _header(fh.fileno())
        if not holds or header["key"] != key:
            return None
        (_, *manifest), *sources = header["read"]  # the manifest: the file at ``path``
        for name, fingerprint, stat in [(path.name, *manifest), *sources]:
            if not _unchanged(path.parent, name, fingerprint, stat, header["start"]):
                return None
        sections = header["sections"][:None if definitions else 1]
        size = sum(length for length, _ in sections)
        # mapped, not read into a buffer: a warm open's page faults halve;
        # unmapped once ``_decode`` has copied the columns and text out, so
        # a later truncation of the file cannot reach them
        start = pos - pos % mmap.ALLOCATIONGRANULARITY
        data = memoryview(mmap.mmap(
            fh.fileno(), pos + size - start, access=mmap.ACCESS_READ, offset=start))[pos - start:]
    pos = 0
    for length, digest in sections:
        if hashlib.sha256(data[pos:pos + length]).hexdigest() != digest:
            return None
        pos += length
    return header, data


def _decode(header: dict, data: memoryview, path: Path, definitions: bool) -> Opened:
    """The corpus, definitions (if asked for) and skip counts that a store
    file's sections hold, from the first on; ``data`` is released once
    they are copied out."""
    tables, pos = [], 0
    with data:  # the tables keep copies of their columns and text
        for table, lengths, (size, _) in zip(
                _TABLES[:2 if definitions else 1], header["columns"], header["sections"]):
            end = pos + size
            cols = []
            for length in lengths:
                cols.append(array(COLUMN_TYPE))
                cols[-1].frombytes(data[pos:pos + _SIZE * length])
                pos += _SIZE * length
            *columns, offsets = cols
            text, pos = str(data[pos:end], "utf-8", "surrogatepass"), end
            tables.append((text, offsets, dict(zip(table.COLUMNS, columns, strict=True))))
    (text, offsets, named), *rest = tables
    corpus = Corpus(_Strings(text, offsets), **named)
    defs = None
    if rest:
        [(text, offsets, named)] = rest
        defs = Definitions(list(map(text.__getitem__, starmap(slice, pairwise(offsets)))), **named)
    return Opened(
        corpus, defs, header["skipped"], [f"{path.name}:{line}" for line in header["problems"]],
        header["definitions_skipped"] if definitions else 0,
    )
