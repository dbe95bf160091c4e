"""Corpus store: an opened store gives what a fresh load and extraction give.

A store file that no longer holds for its manifest (an edited manifest or
source file, a moved manifest, a truncated or garbled file) is rebuilt,
and a cache that cannot be used falls back to a fresh load.  Every case is
checked against a fresh ``load_corpus`` plus ``extract_all`` of the
manifest as it is then, the definitions' columns decoded back into records.
"""

import functools
import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from macrolens import store
from macrolens.cli import run
from macrolens.corpus import load_corpus
from macrolens.extraction import definition_columns
from macrolens.store import open_corpus
from record_corpus import definition_records, extract_all, group_ranks

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
        m.setattr(store, "load_corpus", no_load)
        return open_corpus(manifest, definitions)


def store_files() -> list[Path]:
    directory = Path(os.environ["XDG_CACHE_HOME"], "macrolens")
    return sorted(directory.iterdir()) if directory.is_dir() else []


@pytest.fixture
def golden(tmp_path) -> Path:
    """A copy of the golden corpus, whose 20 records all use ``source_path``."""
    shutil.copytree(GOLDEN, tmp_path / "golden")
    return tmp_path / "golden" / "manifest.jsonl"


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


def test_moved_manifest_gets_its_own_store(golden, tmp_path, monkeypatch):
    open_corpus(golden)
    moved = tmp_path / "elsewhere"
    golden.parent.rename(moved)
    assert_fresh(open_corpus(moved / "manifest.jsonl"), moved / "manifest.jsonl")
    assert len(store_files()) == 1  # the build pruned the old path's file
    assert_fresh(open_hit(moved / "manifest.jsonl", monkeypatch), moved / "manifest.jsonl")


def test_a_build_decodes_the_bytes_it_wrote(golden, monkeypatch):
    """A cold open fingerprints each ``source_path`` file once and does not
    read the store file back by path; a warm open verifies each file once."""
    sources = [json.loads(line)["source_path"] for line in golden.read_text("utf-8").splitlines()]
    assert len(set(sources)) == len(sources) == 20
    fingerprinted, read = Counter(), []
    fingerprint, read_bytes = store._fingerprint, Path.read_bytes

    def counted(file: Path):
        fingerprinted[file.name] += 1
        return fingerprint(file)

    def recorded(file: Path) -> bytes:
        data = read_bytes(file)  # a missing file raises and is not recorded
        read.append(file)
        return data

    for expected_store_reads in (0, 1):  # cold, then warm
        fingerprinted.clear()
        read.clear()
        with monkeypatch.context() as m:
            m.setattr(store, "_fingerprint", counted)
            m.setattr(Path, "read_bytes", recorded)
            opened = open_corpus(golden)
        assert fingerprinted == Counter(sources)
        [file] = store_files()
        assert read.count(file) == expected_store_reads
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


@pytest.mark.parametrize("damage", ["truncated", "garbled", "emptied", "foreign"])
def test_damaged_store_file_rebuilds(golden, tmp_path, damage, monkeypatch):
    open_corpus(golden)
    [file] = store_files()
    data = file.read_bytes()
    if damage == "truncated":
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
    assert file.read_bytes() == data
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
    """A cold open reads it only to build; a warm one only to check it."""
    for _ in ("cold", "warm"):
        with opened_files() as opened:
            opened_corpus = open_corpus(golden)
        assert opened[os.fspath(golden)] == 1
        assert_fresh(opened_corpus, golden)


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
