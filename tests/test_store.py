"""Corpus store: an opened store gives what a fresh load and extraction give.

A store file that no longer holds for its manifest (an edited manifest or
source file, a moved manifest, a truncated or garbled file) is rebuilt,
and a cache that cannot be used falls back to a fresh load.  Every case is
checked against a fresh ``load_corpus`` plus ``extract_all`` of the
manifest as it is then, the definitions' columns decoded back into records.
"""

import functools
import gc
import hashlib
import json
import logging
import mmap
import os
import random
import shutil
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from battery_digest import digest_lines, run_battery
from macrolens import extraction, store, synth
from macrolens.cli import run
from macrolens.corpus import load_corpus
from macrolens.extraction import definition_columns
from macrolens.store import open_corpus
from record_corpus import definition_records, extract_all, group_ranks
from test_battery_digest import SYNTH

GOLDEN = Path(__file__).parent / "data" / "golden"


def assert_fresh(opened: store.Opened, manifest: Path) -> None:
    """``opened`` equals a fresh load and extraction, less the sources and
    the definitions' offsets."""
    result = load_corpus(manifest)
    defs, defs_skipped = extract_all(result.corpus)
    assert opened.corpus.columns() == result.corpus.columns()
    assert list(opened.corpus) == [p._replace(source="") for p in result.corpus]
    assert list(group_ranks(opened.corpus).items()) == list(group_ranks(result.corpus).items())
    assert list(definition_records(opened.corpus, opened.definitions).items()) == [
        (pid, [d._replace(offset=0) for d in records]) for pid, records in defs.items()]
    fresh = definition_columns([defs.get(p.paper_id, []) for p in result.corpus])
    assert opened.definitions.columns() == fresh.columns()
    assert list(opened.definitions.strings) == fresh.strings
    assert opened.skipped == result.skipped
    assert opened.problems == result.problems
    assert opened.definitions_skipped == defs_skipped


def open_hit(manifest: Path, monkeypatch, definitions: bool = True) -> store.Opened:
    """Opens ``manifest`` from its store file; a load or a build fails."""
    def no_load(*args):
        raise AssertionError("the corpus store was not hit")

    with monkeypatch.context() as m:
        m.setattr(store, "read_records", no_load)
        return open_corpus(manifest, definitions)


def store_files() -> list[Path]:
    directory = Path(os.environ["XDG_CACHE_HOME"], "macrolens")
    return sorted(directory.iterdir()) if directory.is_dir() else []


def settle(directory: Path) -> None:
    """Waits until a file written now gets an mtime later than the ctime
    of every file in ``directory``, so that a build started next finds
    none of them racily clean, and a warm open trusts them on their stat."""
    latest = max(file.stat().st_ctime_ns for file in directory.iterdir())
    probe = Path(os.environ["XDG_CACHE_HOME"], "probe")
    while True:
        probe.write_bytes(b"x")
        if probe.stat().st_mtime_ns > latest:
            break
        time.sleep(0.001)
    probe.unlink()


def store_header(file: Path) -> dict:
    with open(file, "rb") as fh:
        return store._header(fh.fileno())[0]


def store_content(data: bytes) -> tuple[dict, bytes]:
    """A store file's header, less the build's start, and its sections:
    what two builds from the same files write alike."""
    end = store._LENGTH.stop + int.from_bytes(data[store._LENGTH], "little")
    header = json.loads(data[store._LENGTH.stop:end])
    del header["start"]
    return header, data[end:]


@pytest.fixture
def golden(tmp_path) -> Path:
    """A copy of the golden corpus, whose 20 records all use ``source_path``."""
    shutil.copytree(GOLDEN, tmp_path / "golden")
    return tmp_path / "golden" / "manifest.jsonl"


def doubled(golden: Path) -> Path:
    """The golden manifest and its records again under fresh ids, beside
    it: 40 records that name the same 20 source files."""
    lines = golden.read_text(encoding="utf-8").splitlines()
    manifest = golden.with_name("doubled.jsonl")
    manifest.write_text("".join(
        line + "\n" for line in lines + [line.replace('"id": "g', '"id": "h') for line in lines]
    ), encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

# ids, titles and bylines draw from a small alphabet, so that ids repeat,
# and hold NUL, lone surrogates and non-ASCII letters (written as \u escapes)
_ALPHABET = st.sampled_from(["a", "b", " ", "\x00", "\ud800", "\udcff", "é", "Ⅻ"])
_TEXT = st.text(alphabet=_ALPHABET, max_size=4)
_NAME = st.text(alphabet=_ALPHABET, min_size=1, max_size=3)
# mostly month-granular dates in two months, so that tie groups form
_DATES = st.sampled_from(["2001-01", "2001-01", "2001-02", "2001-02", "2001-01-01",
                          "2001-01-15", "2001-02-03", "2001-13", "01-2001"])
_SOURCES = st.sampled_from([
    "", "\\def\\R{\\mathbb{R}}", "\\newcommand{\\N}{\\mathbb{N}} \\def\\x{",
    "% \\def\\c{c}\n\\def\\b{b}",
    "\\newcommand\\e[2][x]{#1#2}\\renewcommand{\\R}{R}", "\\def\\bad{\\def\\x{y}",
])
_FILES = {"ok.tex": b"\\def\\f{file}\r\n\\def\\g{g}", "bad.tex": b"\\def\\h{h}\xff",
          "crlf.tex": b"\\def\\c{\r\nc}"}


@st.composite
def _record_line(draw) -> bytes:
    kind = draw(st.sampled_from(["record", "record", "record", "path", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from([b"{not json", b'"a string"', b"\xff\xfe{}", b"[1, 2]",
                                     b'{"id": "x"', b"   ", b'{"id": "t"} trailing']))
    rec = {"id": draw(_NAME), "date": draw(_DATES),
           "authors": draw(st.lists(_NAME, max_size=3, unique=True)), "title": draw(_TEXT)}
    if kind == "path":
        rec["source_path"] = draw(st.sampled_from([*_FILES, "missing.tex"]))
    else:
        rec["source"] = draw(_SOURCES)
    return json.dumps(rec).encode("ascii")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_record_line(), max_size=16))
def test_store_round_trip_equals_a_fresh_load(lines, monkeypatch):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in _FILES.items():
            Path(tmp, name).write_bytes(data)
        manifest = Path(tmp, "m.jsonl")
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        assert_fresh(open_corpus(manifest), manifest)  # built, then opened
        full = open_hit(manifest, monkeypatch)
        assert_fresh(full, manifest)
        opened = open_hit(manifest, monkeypatch, definitions=False)
        assert (opened.definitions, opened.definitions_skipped) == (None, 0)
        assert list(opened.corpus) == list(full.corpus)
        assert (opened.skipped, opened.problems) == (full.skipped, full.problems)


def test_lone_surrogates_and_nul_survive_the_string_table(tmp_path, monkeypatch):
    manifest = tmp_path / "m.jsonl"
    rec = {"id": "a\ud83d", "date": "2001-01", "authors": ["\ude00x", "\x00"],
           "title": "𐀀", "source": "\\def\\x{\ud800}"}
    manifest.write_text(json.dumps(rec) + "\n", encoding="ascii")
    open_corpus(manifest)
    opened = open_hit(manifest, monkeypatch)
    assert opened.corpus.paper(0).paper_id == "a\ud83d"
    assert opened.corpus.paper(0).authors == ("\ude00x", "\x00")
    assert opened.corpus.paper(0).title == "𐀀"
    assert definition_records(opened.corpus, opened.definitions)["a\ud83d"][0].body == "\ud800"
    assert_fresh(opened, manifest)


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------

def test_second_open_is_a_hit(golden, monkeypatch):
    assert_fresh(open_corpus(golden), golden)
    assert len(store_files()) == 1
    assert_fresh(open_hit(golden, monkeypatch), golden)


def test_edited_manifest_byte_rebuilds(golden, monkeypatch):
    open_corpus(golden)
    data = golden.read_bytes()
    golden.write_bytes(data.replace(b'"Golden case 1"', b'"Golden case 9"', 1))
    assert_fresh(open_corpus(golden), golden)
    assert open_hit(golden, monkeypatch).corpus.paper(0).title == "Golden case 9"


@pytest.mark.parametrize("change", ["edited", "deleted", "not UTF-8"])
def test_changed_source_file_rebuilds(golden, change, monkeypatch):
    before = open_corpus(golden)
    source = golden.parent / "g01.tex"
    if change == "edited":
        source.write_text("\\def\\edited{E}", encoding="utf-8")
    elif change == "deleted":
        source.unlink()
    else:
        source.write_bytes(b"\\def\\x{\xff}")
    after = open_corpus(golden)
    assert_fresh(after, golden)
    assert (definition_records(after.corpus, after.definitions), after.problems) != (
        definition_records(before.corpus, before.definitions), before.problems)
    assert_fresh(open_hit(golden, monkeypatch), golden)


def _built_from_settled_files(golden: Path) -> Path:
    """Builds the golden copy's store from files that are not racily
    clean, so that an open trusts an unchanged stat; returns the source
    whose definitions change next."""
    settle(golden.parent)
    open_corpus(golden)
    [file] = store_files()
    header = store_header(file)
    assert all(max(stat[1], stat[2]) < header["start"] for _, _, stat in header["read"])
    return golden.parent / "g01.tex"


def _rebuilt_with_the_edit(golden: Path, monkeypatch) -> None:
    after = open_corpus(golden)
    assert_fresh(after, golden)
    [reals] = definition_records(after.corpus, after.definitions)["g01"]
    assert reals.body == "\\mathbb{Q}"
    assert_fresh(open_hit(golden, monkeypatch), golden)


def test_source_edited_in_place_with_its_mtime_restored_rebuilds(golden, monkeypatch):
    """Same size, same mtime, same inode: the ctime the edit stamped is what
    differs from the recorded stat."""
    source = _built_from_settled_files(golden)
    before = os.stat(source)
    data = source.read_bytes()
    assert data == b"\\def\\Reals{\\mathbb{R}}\n"
    source.write_bytes(data.replace(b"{R}", b"{Q}"))
    os.utime(source, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(source)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino)
    assert after.st_ctime_ns != before.st_ctime_ns
    _rebuilt_with_the_edit(golden, monkeypatch)


def test_source_swapped_in_by_rename_rebuilds(golden, monkeypatch):
    """Same size and mtime, moved over the source: its inode differs.  Its
    ctime is read as the recorded one, as where a rename keeps it, so the
    inode alone tells."""
    source = _built_from_settled_files(golden)
    before = os.stat(source)
    swapped = source.with_suffix(".new")
    swapped.write_bytes(source.read_bytes().replace(b"{R}", b"{Q}"))
    os.utime(swapped, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(swapped, source)
    after = os.stat(source)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert after.st_ino != before.st_ino
    stat = store._stat

    def ctime_kept(file):
        now = stat(file)
        return (*now[:2], before.st_ctime_ns, *now[3:]) if file == source else now

    with monkeypatch.context() as m:
        m.setattr(store, "_stat", ctime_kept)
        _rebuilt_with_the_edit(golden, m)


def _hashes(monkeypatch) -> Counter:
    """Counts, by file name, the files a store open reads, to build or to
    check them, through the store's one reader."""
    hashed = Counter()

    class Counted(store._Reader):
        def __init__(self, directory: Path, name: str, entries: list):
            hashed[name] += 1
            super().__init__(directory, name, entries)

    monkeypatch.setattr(store, "_Reader", Counted)
    return hashed


def test_touched_manifest_is_a_hit_hashed_once_per_open(golden, monkeypatch):
    _built_from_settled_files(golden)
    [file] = store_files()
    data = file.read_bytes()
    os.utime(golden)  # its mtime and ctime move; its bytes do not
    hashed = _hashes(monkeypatch)
    for opens in (1, 2):
        assert_fresh(open_hit(golden, monkeypatch), golden)
        assert hashed == Counter({golden.name: opens})
    assert file.read_bytes() == data  # not rewritten


def test_racily_clean_manifest_is_hashed_on_every_open(golden, monkeypatch):
    """A manifest whose recorded mtime is not earlier than the build's start
    could change within the same timestamp and keep its whole stat; so it
    is hashed again on each open, and such an edit is still caught."""
    future = time.time_ns() + 3600 * 10**9
    os.utime(golden, ns=(future, future))
    settle(golden.parent)  # the sources are not racily clean
    open_corpus(golden)
    [file] = store_files()
    header = store_header(file)
    [name, _, recorded] = header["read"][0]  # the manifest's entry comes first
    assert name == golden.name and recorded[1] >= header["start"]
    hashed = _hashes(monkeypatch)
    for opens in (1, 2):
        assert_fresh(open_hit(golden, monkeypatch), golden)
        assert hashed == Counter({golden.name: opens})
    golden.write_bytes(golden.read_bytes().replace(b'"Golden case 1"', b'"Golden case 9"', 1))
    stat = store._stat
    with monkeypatch.context() as m:  # the edit's stat, had it kept the recorded timestamps
        m.setattr(store, "_stat", lambda f: tuple(recorded) if f == golden else stat(f))
        assert open_corpus(golden).corpus.paper(0).title == "Golden case 9"
    assert_fresh(open_hit(golden, monkeypatch), golden)


def test_inlined_sources_give_the_same_battery(golden, tmp_path):
    """Metamorphic relation: the golden manifest, whose records all read
    ``source_path`` files, and a copy with each file's text inlined as
    ``source`` give the same battery lines.  The first command on each
    builds its store, and the later ones open it, trusting the source
    files' stats."""
    inlined = tmp_path / "inlined.jsonl"
    with open(inlined, "w", encoding="utf-8") as fh:
        for line in golden.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)  # a source file's text as the loader reads it
            record["source"] = (golden.parent / record.pop("source_path")).read_text("utf-8")
            fh.write(json.dumps(record) + "\n")
    settle(golden.parent)
    lines = []
    for manifest in (golden, inlined):
        root = tmp_path / manifest.stem
        lines.append(run_battery([manifest], root) + digest_lines(root))
    assert lines[0] == lines[1]


def test_moved_manifest_gets_its_own_store(golden, tmp_path, monkeypatch):
    open_corpus(golden)
    moved = tmp_path / "elsewhere"
    golden.parent.rename(moved)
    assert_fresh(open_corpus(moved / "manifest.jsonl"), moved / "manifest.jsonl")
    assert len(store_files()) == 1  # the build pruned the old path's file
    assert_fresh(open_hit(moved / "manifest.jsonl", monkeypatch), moved / "manifest.jsonl")


def test_manifest_opened_through_a_link_elsewhere(golden, tmp_path, monkeypatch):
    """A symlink with another name, in another directory: the store file is
    the target's (its key is the resolved path), the manifest's entry is
    checked at the path given, problem lines name that path, and the
    ``source_path`` files resolve from its directory, as a load of the
    link without a store gives."""
    with open(golden, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    other = tmp_path / "other"
    other.mkdir()
    for source in golden.parent.glob("*.tex"):  # the same bytes under other inodes
        shutil.copyfile(source, other / source.name)
    link = other / "link.jsonl"
    link.symlink_to(golden)
    settle(golden.parent)
    open_corpus(golden)
    opened = open_hit(link, monkeypatch)  # no ``other / "manifest.jsonl"`` is read
    assert len(store_files()) == 1
    assert_fresh(opened, link)
    assert [line.split(":")[0] for line in opened.problems] == ["link.jsonl"]
    # a source named like the manifest is a file of the link's directory,
    # though the target's build read it as the manifest
    with open(golden, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "self", "date": "2001-01", "authors": ["x"],
                             "source_path": "manifest.jsonl"}) + "\n")
    (other / "manifest.jsonl").write_text("\\def\\Self{S}\n", encoding="utf-8")
    open_corpus(golden)
    opened = open_corpus(link)  # rebuilt: the link's "manifest.jsonl" is another file
    assert_fresh(opened, link)
    assert [d.body for d in definition_records(opened.corpus, opened.definitions)["self"]] == ["S"]
    (other / "g01.tex").write_text("\\def\\Reals{\\mathbb{Q}}\n", encoding="utf-8")
    opened = open_corpus(link)  # rebuilt from the link's edited source
    assert_fresh(opened, link)
    records = definition_records(opened.corpus, opened.definitions)
    assert [d.body for d in records["g01"]] == ["\\mathbb{Q}"]
    assert len(store_files()) == 1
    assert_fresh(open_hit(link, monkeypatch), link)
    (other / "g02.tex").unlink()
    opened = open_corpus(link)
    assert_fresh(opened, link)
    assert any(repr(os.fspath(other / "g02.tex")) in line for line in opened.problems)
    (tmp_path / "cache").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))  # no store can be used
    fallback = open_corpus(link)
    assert (list(fallback.corpus), fallback.problems) == (list(opened.corpus), opened.problems)
    assert fallback.definitions.columns() == opened.definitions.columns()


def test_a_file_named_by_several_records_is_recorded_once(golden, monkeypatch):
    """The manifest's entry, then each file's; an in-place edit of a shared
    file that keeps its size and puts its mtime back still rebuilds."""
    manifest = doubled(golden)
    settle(golden.parent)
    open_corpus(manifest)
    [file] = store_files()
    read = store_header(file)["read"]
    assert [name for name, _, _ in read] == [manifest.name, *(f"g{i:02}.tex" for i in range(1, 21))]
    source = golden.parent / "g01.tex"
    before = os.stat(source)
    source.write_bytes(source.read_bytes().replace(b"{R}", b"{Q}"))
    os.utime(source, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(source).st_size == before.st_size
    opened = open_corpus(manifest)
    assert_fresh(opened, manifest)
    records = definition_records(opened.corpus, opened.definitions)
    assert [d.body for d in records["g01"] + records["h01"]] == ["\\mathbb{Q}"] * 2
    assert_fresh(open_hit(manifest, monkeypatch), manifest)


def test_a_file_two_reads_saw_differently_keeps_both_entries(golden, monkeypatch):
    """The file is rewritten between its two reads in one build: both
    entries stay, so the next open finds one of them changed and rebuilds."""
    manifest, source = doubled(golden), golden.parent / "g01.tex"
    edits = [b"\\def\\Reals{\\mathbb{C}}\n"]

    class EditedAfterItsFirstRead(store._Reader):
        def close(self) -> None:
            super().close()
            if self.entry[0] == source.name and edits:
                source.write_bytes(edits.pop())

    with monkeypatch.context() as m:
        m.setattr(store, "_Reader", EditedAfterItsFirstRead)
        built = open_corpus(manifest)
    records = definition_records(built.corpus, built.definitions)
    assert [d.body for d in records["g01"] + records["h01"]] == ["\\mathbb{R}", "\\mathbb{C}"]
    [file] = store_files()
    read = store_header(file)["read"]
    assert [name for name, _, _ in read].count(source.name) == 2 and len(read) == 22
    with pytest.raises(AssertionError, match="not hit"):
        open_hit(manifest, monkeypatch)
    assert_fresh(open_corpus(manifest), manifest)
    assert len(store_header(file)["read"]) == 21


def test_a_build_decodes_the_bytes_it_wrote(golden, monkeypatch):
    """A cold open reads the manifest and each ``source_path`` file once
    through the store's reader, and does not read the store file back by
    path; a warm open reads no file whose stat is unchanged."""
    sources = [json.loads(line)["source_path"] for line in golden.read_text("utf-8").splitlines()]
    assert len(set(sources)) == len(sources) == 20
    settle(golden.parent)
    readers, read = _hashes(monkeypatch), []
    read_bytes = Path.read_bytes

    def recorded(file: Path) -> bytes:
        data = read_bytes(file)  # a missing file raises and is not recorded
        read.append(file)
        return data

    for expected in (Counter([golden.name, *sources]), Counter()):  # cold, then warm
        readers.clear()
        read.clear()
        with monkeypatch.context() as m:
            m.setattr(Path, "read_bytes", recorded)
            opened = open_corpus(golden)
        assert readers == expected
        [file] = store_files()
        assert read.count(file) == 0
        assert_fresh(opened, golden)


def test_code_change_rebuilds(golden, tmp_path, monkeypatch):
    """The key holds the source of the loader, the extractor and the store."""
    code = tmp_path / "code"
    code.mkdir()
    for name in ("corpus.py", "extraction.py", "store.py"):
        shutil.copyfile(Path(store.__file__).with_name(name), code / name)
    monkeypatch.setattr(store, "__file__", str(code / "store.py"))
    open_corpus(golden)
    open_hit(golden, monkeypatch)
    for name in ("corpus.py", "extraction.py", "store.py"):
        with open(code / name, "a", encoding="utf-8") as fh:
            fh.write("# changed\n")
        with pytest.raises(AssertionError, match="not hit"):
            open_hit(golden, monkeypatch)
        assert_fresh(open_corpus(golden), golden)


def _section_bytes(file: Path) -> dict[str, range]:
    """Where a store file's header, corpus section and definitions section
    lie: one section per table."""
    with open(file, "rb") as fh:
        header, _, start = store._header(fh.fileno())
    assert len(header["sections"]) == len(store._TABLES)
    corpus_end = start + header["sections"][0][0]
    return {"header": range(store._LENGTH.stop, start), "corpus": range(start, corpus_end),
            "definitions": range(corpus_end, file.stat().st_size)}


@pytest.mark.parametrize("damage", ["truncated", "garbled", "emptied", "foreign",
                                    "header", "corpus", "definitions"])
def test_damaged_store_file_rebuilds(golden, tmp_path, damage, monkeypatch):
    """One byte flipped in a section rebuilds the store when an open reads
    that section: an open without definitions reads the header and the
    corpus's section only."""
    open_corpus(golden)
    [file] = store_files()
    data = file.read_bytes()
    if damage in ("header", "corpus", "definitions"):
        span = _section_bytes(file)[damage]
        at = span[len(span) // 2]
        file.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
        damaged = file.read_bytes()
        opened = open_corpus(golden, definitions=False)
        assert list(opened.corpus) == [p._replace(source="") for p in load_corpus(golden).corpus]
        assert (file.read_bytes() == damaged) == (damage == "definitions")
    elif damage == "truncated":
        file.write_bytes(data[: len(data) // 2])
    elif damage == "garbled":  # one bit in the string table
        file.write_bytes(data[:-3] + bytes([data[-3] ^ 1]) + data[-2:])
    elif damage == "emptied":
        file.write_bytes(b"")
    else:  # a valid store file of another manifest
        other = tmp_path / "other.jsonl"
        first = golden.read_text(encoding="utf-8").splitlines()[0]
        other.write_text(first + "\n", encoding="utf-8")
        shutil.copyfile(golden.parent / "g01.tex", tmp_path / "g01.tex")
        open_corpus(other)
        [foreign] = [f for f in store_files() if f != file]
        shutil.copyfile(foreign, file)
    assert_fresh(open_corpus(golden), golden)
    assert store_content(file.read_bytes()) == store_content(data)
    assert_fresh(open_hit(golden, monkeypatch), golden)


# ---------------------------------------------------------------------------
# Fallback and logging through the CLI
# ---------------------------------------------------------------------------

def _cli_run(golden: Path, out: Path, caplog, *command: str) -> list[tuple]:
    """Log records and output bytes of one command."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="macrolens"):
        assert run([*command, "--corpus", str(golden), "--out", str(out)]) == 0
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return records, files


@pytest.fixture
def damaged(golden) -> Path:
    """The golden copy with one missing source file and one malformed record."""
    (golden.parent / "g02.tex").unlink()
    with open(golden, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    return golden


@pytest.mark.parametrize("command", [["extract"], ["fights", "title"]])
def test_hit_replays_the_logged_lines(damaged, tmp_path, caplog, command):
    cold = _cli_run(damaged, tmp_path / "cold", caplog, *command)
    warm = _cli_run(damaged, tmp_path / "warm", caplog, *command)
    assert cold == warm
    records = cold[0]
    assert ("macrolens", "WARNING", "skipped 2 malformed corpus records") in records
    debug = [m for name, level, m in records if name == "macrolens.corpus" and level == "DEBUG"]
    assert len(debug) == 2 and all(m.startswith("manifest.jsonl:") for m in debug)
    extract_warning = any("malformed macro definitions" in m for _, _, m in records)
    # the golden sources hold malformed definitions; fights title extracts none
    assert extract_warning == (command == ["extract"])


@pytest.mark.parametrize("cache", ["cache path is a file", "store directory is a file",
                                   "HOME unset"])
def test_unusable_cache_falls_back_to_a_fresh_load(damaged, tmp_path, caplog, monkeypatch, cache):
    expected = _cli_run(damaged, tmp_path / "expected", caplog, "extract")
    if cache == "cache path is a file":
        (tmp_path / "cache").write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    elif cache == "store directory is a file":
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "macrolens").write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
    records, files = _cli_run(damaged, tmp_path / "fallback", caplog, "extract")
    assert files == expected[1]
    [note] = [r for r in records if r[0] == "macrolens.store"]
    assert note[1] == "DEBUG" and note[2].startswith("corpus store not used for manifest.jsonl")
    assert [r for r in records if r != note] == expected[0]


@pytest.mark.parametrize("definitions", [True, False])
def test_a_fallback_open_holds_no_source(golden, tmp_path, monkeypatch, definitions):
    open_corpus(golden)
    hit = open_hit(golden, monkeypatch, definitions)
    (tmp_path / "cache").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    fallback = open_corpus(golden, definitions)
    assert fallback.corpus.sources is None
    assert list(fallback.corpus) == list(hit.corpus)
    if definitions:
        assert fallback.definitions.columns() == hit.definitions.columns()


def test_relative_cache_path_is_ignored(golden, tmp_path, monkeypatch):
    """A relative ``XDG_CACHE_HOME`` is invalid; ``~/.cache`` is used instead."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert_fresh(open_corpus(golden), golden)
    assert not (tmp_path / "relative").exists()
    assert len(list((tmp_path / "home" / ".cache" / "macrolens").iterdir())) == 1


def test_store_directory_is_private(golden):
    open_corpus(golden)
    assert Path(os.environ["XDG_CACHE_HOME"], "macrolens").stat().st_mode & 0o777 == 0o700


def test_manifest_rewritten_during_a_build_keys_the_parsed_bytes(tmp_path, monkeypatch):
    """The manifest is rewritten after the store hashed it to look its file
    up and before the build loads it.  The file must name the bytes the
    build parsed, so the first bytes never open the second corpus."""
    manifest = tmp_path / "m.jsonl"
    first = json.dumps({"id": "a", "date": "2001-01", "authors": ["x"], "source": "\\def\\a{A}"})
    second = json.dumps({"id": "b", "date": "2002-02", "authors": ["y"], "source": "\\def\\b{B}"})
    manifest.write_text(first + "\n", encoding="utf-8")
    read = store._read

    def rewritten_then_read(*args):
        manifest.write_text(second + "\n", encoding="utf-8")
        return read(*args)

    with monkeypatch.context() as m:
        m.setattr(store, "_read", rewritten_then_read)
        opened = open_corpus(manifest)
    assert [p.paper_id for p in opened.corpus] == ["b"]  # the bytes that were parsed
    manifest.write_text(first + "\n", encoding="utf-8")
    assert_fresh(open_corpus(manifest), manifest)
    assert_fresh(open_hit(manifest, monkeypatch), manifest)


def test_a_build_prunes_store_files_whose_manifest_is_gone(tmp_path):
    manifests = {}
    for name in ("a", "b", "c"):
        manifests[name] = tmp_path / name / "m.jsonl"
        manifests[name].parent.mkdir()
        record = {"id": name, "date": "2001-01", "authors": ["x"], "source": ""}
        manifests[name].write_text(json.dumps(record) + "\n", encoding="utf-8")
    open_corpus(manifests["a"])
    [file_a] = store_files()
    open_corpus(manifests["c"])
    [file_c] = [f for f in store_files() if f != file_a]
    data = file_a.read_bytes()
    header_at = len(store._MAGIC) + 40
    kept = {
        "garbled": data[:header_at] + b"x" + data[header_at + 1:],  # its header does not parse
        file_a.name + ".1234.tmp": data,  # being written
    }
    for name, content in kept.items():
        (file_a.parent / name).write_bytes(content)
    # an older format's file whose manifest is gone goes too
    old = data.replace(f'"format": {store._FORMAT}'.encode(), b'"format": 1', 1)
    assert old != data
    (file_a.parent / "old").write_bytes(old)
    manifests["a"].unlink()
    opened = open_corpus(manifests["b"])
    assert [p.paper_id for p in opened.corpus] == ["b"]
    [file_b] = [f for f in store_files() if f.name not in kept and f != file_c]
    assert store_files() == sorted([file_b, file_c, *(file_a.parent / name for name in kept)])


def test_a_build_prunes_a_stranded_file_of_an_older_format(tmp_path):
    """Format-2 files, written by hand as that format laid them out: the
    one whose manifest is gone is deleted, the one whose manifest exists
    stays."""
    directory = Path(os.environ["XDG_CACHE_HOME"], "macrolens")
    directory.mkdir(parents=True)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"id": "a", "date": "2001-01", "authors": ["x"],
                                    "source": ""}) + "\n", encoding="utf-8")

    def format_2(name: str, recorded: Path) -> Path:
        header = json.dumps({
            "key": {"format": 2, "python": "3.11", "code": "0" * 64, "manifest": "0" * 64},
            "path": str(recorded), "read": [], "skipped": 0, "definitions_skipped": 0,
            "problems": [], "columns": [0] * 13,
        }).encode("ascii")
        rest = len(header).to_bytes(8, "little") + header
        file = directory / name
        file.write_bytes(store._MAGIC + hashlib.sha256(rest).digest() + rest)
        return file

    stranded = format_2("stranded", tmp_path / "gone" / "m.jsonl")
    live = format_2("live", manifest)
    open_corpus(manifest)
    assert not stranded.exists()
    assert live.exists() and len(store_files()) == 2


# ---------------------------------------------------------------------------
# Count guards: each stored fact is read once
# ---------------------------------------------------------------------------

_counting: list[Counter] = []  # the counter of the ``opened_files`` block that runs


def _count_open(event: str, args: tuple) -> None:
    if event == "open" and _counting and isinstance(args[0], (str, os.PathLike)):
        _counting[0][os.fspath(args[0])] += 1


@functools.cache
def _add_hook() -> None:
    sys.addaudithook(_count_open)  # a hook cannot be removed; it counts only inside a block


@contextmanager
def opened_files():
    """Counts each path opened inside the block, an open that fails
    included, as the ``open`` audit event names it; the hook sees what a
    patched ``open`` would miss, such as ``io.FileIO``."""
    _add_hook()
    _counting.append(Counter())
    try:
        yield _counting[0]
    finally:
        _counting.clear()


def test_each_open_reads_the_manifest_once(golden):
    """A cold open reads it, and each source, only to build; a warm one
    trusts their unchanged stats and reads none of them."""
    settle(golden.parent)
    files = [golden, *golden.parent.glob("*.tex")]
    for expected in (1, 0):  # cold, then warm
        with opened_files() as opened:
            opened_corpus = open_corpus(golden)
        assert [opened[os.fspath(file)] for file in files] == [expected] * len(files)
        assert_fresh(opened_corpus, golden)


def _store_reads(file: Path, monkeypatch) -> list[tuple[int, int]]:
    """The byte spans of ``file`` that ``os.pread`` reads or ``mmap.mmap``
    maps while the returned list is patched in."""
    spans, pread, mapped, inode = [], os.pread, mmap.mmap, file.stat().st_ino

    def read(fd: int, size: int, pos: int) -> bytes:
        data = pread(fd, size, pos)
        if os.fstat(fd).st_ino == inode:
            spans.append((pos, pos + len(data)))
        return data

    def mapping(fd: int, length: int, **kwargs) -> mmap.mmap:
        if os.fstat(fd).st_ino == inode:
            spans.append((kwargs.get("offset", 0), kwargs.get("offset", 0) + length))
        return mapped(fd, length, **kwargs)

    monkeypatch.setattr(os, "pread", read)
    monkeypatch.setattr(mmap, "mmap", mapping)
    return spans


def _covered(spans: list[tuple[int, int]]) -> range:
    """The bytes the spans cover, which must be one run from the start."""
    end = 0
    for a, b in sorted(spans):
        assert a <= end
        end = max(end, b)
    return range(0, end)


@pytest.mark.parametrize("definitions", [False, True])
def test_a_warm_open_reads_only_the_sections_it_decodes(golden, monkeypatch, definitions):
    """The prefix, the header and the corpus's section, and the
    definitions' section only when definitions are asked for."""
    open_corpus(golden)
    [file] = store_files()
    sections = _section_bytes(file)
    end = (sections["definitions"] if definitions else sections["corpus"]).stop
    assert sections["corpus"].stop < sections["definitions"].stop == file.stat().st_size
    with monkeypatch.context() as m:
        spans = _store_reads(file, m)
        opened = open_hit(golden, m, definitions)
    assert list(opened.corpus) == [p._replace(source="") for p in load_corpus(golden).corpus]
    assert _covered(spans) == range(0, end)


def test_a_warm_open_reads_no_manifest_byte_at_any_size(golden, monkeypatch):
    """Counting work instead of timing it: a warm open of the golden
    manifest and of that manifest doubled with fresh ids opens the same
    files besides its store file (neither the manifest nor a source) and
    reads from the store only its prefix, header and corpus section."""
    lines = golden.read_text(encoding="utf-8").splitlines()
    twice = doubled(golden)
    settle(golden.parent)
    reads = []
    for manifest in (golden, twice):
        open_corpus(manifest)
        [file] = [f for f in store_files() if store_header(f)["path"] == str(manifest.resolve())]
        with monkeypatch.context() as m, opened_files() as opened:
            spans = _store_reads(file, m)
            assert len(open_hit(manifest, m, definitions=False).corpus) == len(lines) * (
                1 + (manifest == twice))
        assert _covered(spans) == range(0, _section_bytes(file)["corpus"].stop)
        del opened[os.fspath(file)]
        reads.append(opened)
    assert reads[0] == reads[1]
    assert not any(Path(name).parent == golden.parent for name in reads[0])


def test_a_warm_open_parses_the_header_once(golden, monkeypatch):
    open_corpus(golden)
    header, parsed = store._header, []

    def counted(data):
        parsed.append(None)
        return header(data)

    monkeypatch.setattr(store, "_header", counted)
    assert_fresh(open_hit(golden, monkeypatch), golden)
    assert len(parsed) == 1


def test_a_build_opens_a_missing_source_once(golden, tmp_path, monkeypatch):
    """And its problem line is the one a load without the store gives."""
    missing = golden.parent / "g02.tex"
    missing.unlink()
    with opened_files() as opened:
        built = open_corpus(golden)
    assert opened[os.fspath(missing)] == 1
    assert_fresh(built, golden)
    (tmp_path / "cache").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))  # no store can be written
    fallback = open_corpus(golden)
    assert len(built.problems) == 1 and "No such file or directory" in built.problems[0]
    assert fallback.problems == built.problems


# ---------------------------------------------------------------------------
# The cold build's one pass over the manifest
# ---------------------------------------------------------------------------

def _write_records(manifest: Path, records: list[dict]) -> Path:
    manifest.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    return manifest


def _cold_peak(manifest: Path) -> int:
    """The tracemalloc peak, in bytes, of a cold ``open_corpus`` of
    ``manifest`` into an empty cache of its own.  A full collection comes
    first, so that each build starts with the interpreter's free lists
    (whose blocks tracemalloc counts) empty and no full collection falls
    inside it, which would move the peak."""
    with pytest.MonkeyPatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(manifest.with_suffix(".cache")))
        gc.collect()
        tracemalloc.start()
        try:
            open_corpus(manifest)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_a_cold_build_holds_one_source_at_a_time(tmp_path):
    """Counting memory instead of timing: a cold build over 2n papers with
    100-kB inline sources peaks less than one source above the build over n."""
    source = "\\def\\R{\\mathbb{R}}\n" + "%" * 100_000
    _cold_peak(_write_records(tmp_path / "warm-up.jsonl", [  # the code's own first-use caches
        {"id": "w", "date": "2001-01", "authors": ["W"], "source": source}]))
    peaks = [_cold_peak(_write_records(tmp_path / f"m{n}.jsonl", [
        {"id": f"p{i}", "date": "2001-01", "authors": [f"A{i}"], "source": source}
        for i in range(n)])) for n in (4, 8)]
    assert peaks[1] - peaks[0] < len(source)


def test_a_cold_build_holds_less_per_record_than_its_manifest_line(tmp_path):
    """A cold build over 2n short records peaks above the build over n by
    less than the n added lines' bytes: it keeps a record's id, title, date
    and author and definition ids, not a ``Paper`` with its author keys and
    source.  The manifest is in reverse corpus order, so the rows are
    sorted and their string ids renumbered too.  Both builds read more than
    the 2,000 tuples that the interpreter's free list of each tuple size
    keeps (blocks tracemalloc counts), so that both fill it."""
    def records(n):
        return [{"id": f"p{i:06d}", "date": f"{2000 + (n - i) // 12 % 20}-{(n - i) % 12 + 1:02d}",
                 "authors": [f"Author Name {(i + j) % 40}" for j in range(8)],
                 "title": f"A title {i}", "source": "\\def\\R{\\mathbb{R}}" + "%" * 280}
                for i in range(n)]

    _cold_peak(_write_records(tmp_path / "warm-up.jsonl", records(10)))
    manifests = [_write_records(tmp_path / f"m{n}.jsonl", records(n)) for n in (2500, 5000)]
    peaks = list(map(_cold_peak, manifests))
    assert peaks[1] - peaks[0] < manifests[1].stat().st_size - manifests[0].stat().st_size


def _tables(opened: store.Opened) -> list[tuple[dict, list[str]]]:
    return [(table.columns(), list(table.strings)) for table in opened[:2]]


def _relation_manifests(tmp_path) -> list[Path]:
    """The golden manifest (a copy, whose records use ``source_path``)
    and the battery's synth corpus (inline sources)."""
    shutil.copytree(GOLDEN, tmp_path / "golden")
    synthetic, _ = synth.write_output(synth.generate(SYNTH), tmp_path / "synth")
    return [tmp_path / "golden" / "manifest.jsonl", synthetic]


def test_permuted_manifest_lines_build_the_same_columns(tmp_path):
    """Ids are unique, so the corpus order does not depend on the lines'
    order, and neither do the columns and strings: string ids are numbered
    in corpus order of first sight, not manifest order."""
    for manifest in _relation_manifests(tmp_path):
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = lines[:]
        random.Random(0).shuffle(shuffled)
        expected = open_corpus(manifest)
        for name, permuted in (("shuffled", shuffled), ("reversed", lines[::-1])):
            copy = manifest.with_name(f"{name}.jsonl")
            copy.write_text("".join(permuted), encoding="utf-8")
            opened = open_corpus(copy)  # a cold build: its own store file
            assert _tables(opened) == _tables(expected), (manifest, name)
            assert opened.skipped == expected.skipped
            assert opened.definitions_skipped == expected.definitions_skipped


def test_a_duplicated_manifest_line_adds_one_skip_and_no_row(tmp_path):
    """A copy of a line put first keeps its record and skips the line it
    copies, so the kept record moves in the manifest but not in the
    corpus; a copy put last is skipped."""
    for manifest in _relation_manifests(tmp_path):
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        expected = open_corpus(manifest)
        assert expected.problems == []
        for at, copied, skipped in ((len(lines) - 1, [lines[-1], *lines], len(lines) + 1),
                                    (len(lines) // 2, [lines[len(lines) // 2], *lines],
                                     len(lines) // 2 + 2),
                                    (0, [*lines, lines[0]], len(lines) + 1)):
            copy = manifest.with_name(f"duplicated-{at}.jsonl")
            copy.write_text("".join(copied), encoding="utf-8")
            opened = open_corpus(copy)
            assert _tables(opened) == _tables(expected), (manifest, at)
            assert opened.skipped == expected.skipped + 1
            pid = json.loads(lines[at])["id"]
            assert opened.problems == [
                f"{copy.name}:{skipped}: skipped record (duplicate paper id {pid!r})"]


def test_a_duplicate_id_keeps_the_first_line_when_it_sorts_later(tmp_path, monkeypatch):
    """The first record with an id is kept even when the second one's
    earlier date would sort it first, and the skipped record's source is
    never extracted."""
    manifest = _write_records(tmp_path / "m.jsonl", [
        {"id": "a", "date": "2001-03", "authors": ["A"], "title": "first",
         "source": "\\def\\first{1}"},
        {"id": "b", "date": "2001-02", "authors": ["B"], "source": "\\def\\b{b}"},
        {"id": "a", "date": "2001-01", "authors": ["C"], "title": "second",
         "source": "\\def\\second{2}"},
    ])
    extract, calls = extraction.extract_definitions, []

    def counted(source, paper_id):
        calls.append((paper_id, source))
        return extract(source, paper_id)

    monkeypatch.setattr(extraction, "extract_definitions", counted)
    built = open_corpus(manifest)
    (tmp_path / "cache").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))  # no store can be used
    fallback = open_corpus(manifest)
    assert calls == [("a", "\\def\\first{1}"), ("b", "\\def\\b{b}")] * 2
    for opened in (built, fallback):
        assert [p[:4] for p in opened.corpus] == [("b", 20010200, ("b",), ""),
                                                  ("a", 20010300, ("a",), "first")]
        assert opened.skipped == 1
        assert opened.problems == ["m.jsonl:3: skipped record (duplicate paper id 'a')"]
        records = definition_records(opened.corpus, opened.definitions)
        assert [d.name for d in records["a"]] == ["\\first"]
    assert _tables(fallback) == _tables(built)
    assert load_corpus(manifest).problems == built.problems
