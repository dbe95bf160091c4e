"""Definitions read as columns.

The column timeline builders are checked against the record-based
builders they replaced (``oracles.oracle_timelines`` and
``oracle_name_timelines``), on columns decoded from a store file and on
plain mappings of records, which the builders fill into columns first.
A command that opens a store file builds no ``MacroDefinition`` record.
"""

import functools
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, paper
from macrolens import synth
from macrolens.changeover import (
    ChangeoverParams,
    detect_changeover,
    find_control_candidates,
    match_pairs,
)
from macrolens.cli import run
from macrolens.corpus import load_corpus
from macrolens.extraction import MacroDefinition, definition_columns
from macrolens.fights import DEFAULT_BODY_FIGHT_NAMES, detect_body_fights, detect_name_fights
from macrolens.store import open_corpus
from macrolens.timelines import ExperienceLedger, build_name_timelines, build_timelines
from oracles import oracle_name_timelines, oracle_timelines
from record_corpus import extract_all

GOLDEN = Path(__file__).parent / "data" / "golden" / "manifest.jsonl"


def assert_timelines_match(corpus, definitions, records: dict) -> None:
    """``definitions`` (columns or a mapping) give the timelines that the
    record-based builders give for ``records``, the name timelines with
    every name, none and some whitelisted."""
    expected = oracle_timelines(corpus, records)
    got = build_timelines(corpus, definitions)
    assert list(got) == list(expected)
    for key, tl in got.items():
        assert tl.key == key
        assert list(map(tuple, tl.occurrences)) == expected[key]
    names = sorted({d.name for defs in records.values() for d in defs})
    for whitelist in (names, [], names[::2] + ["\\definedNowhere"]):
        expected = oracle_name_timelines(corpus, records, whitelist)
        got = build_name_timelines(corpus, definitions, whitelist=whitelist)
        assert list(got) == list(expected)
        for key, tl in got.items():
            assert tl.key == key and key[0] == ""
            assert list(map(tuple, tl.occurrences)) == expected[key]


def test_golden_and_synth_full_timelines_equal_the_record_builders(tmp_path):
    synth_manifest, _ = synth.write_output(
        synth.generate(synth.SynthConfig(seed=9, preset="full")), tmp_path / "synth")
    for manifest in (GOLDEN, synth_manifest):
        fresh = load_corpus(manifest).corpus
        records, _ = extract_all(fresh)
        assert_timelines_match(fresh, records, records)
        opened = open_corpus(manifest)  # built, then decoded from the file's bytes
        assert_timelines_match(opened.corpus, opened.definitions, records)


def test_builders_return_key_order_which_fights_and_matching_do_not_read(tmp_path):
    """Both builders return their timelines in key order.  Fight detection
    and control matching give the same result on the reversed mappings;
    synth ``full`` seed 9 plants 200 name fights, 120 body fights and 12
    changeover pairs."""
    synth_manifest, _ = synth.write_output(
        synth.generate(synth.SynthConfig(seed=9, preset="full")), tmp_path / "synth")
    params = ChangeoverParams()
    found = []
    for manifest in (GOLDEN, synth_manifest):
        opened = open_corpus(manifest)
        corpus, ledger = opened.corpus, ExperienceLedger(opened.corpus)
        by_body = build_timelines(corpus, opened.definitions)
        by_name = build_name_timelines(corpus, opened.definitions, DEFAULT_BODY_FIGHT_NAMES)
        assert list(by_body) == sorted(by_body) and list(by_name) == sorted(by_name)
        results = []
        for bodies, names in ((by_body, by_name),
                              (dict(reversed(by_body.items())), dict(reversed(by_name.items())))):
            records = [r for r in (detect_changeover(tl, params) for tl in bodies.values()) if r]
            results.append((detect_name_fights(corpus, bodies, ledger),
                            detect_body_fights(names, ledger),
                            match_pairs(records, find_control_candidates(bodies, params))))
        assert results[0] == results[1]
        name_fights, body_fights, (pairs, _) = results[0]
        found.append((len(name_fights), len(body_fights), len(pairs)))
    assert found[1] == (200, 120, 12)


def _definition(pid: str, name: str, body: str, offset: int, signature: str = ""):
    return MacroDefinition(pid, name, body, "def", signature, offset)


def test_redefinitions_and_shared_bodies():
    """The last definition of a name wins; of the names that survive for
    one body, the earliest wins."""
    corpus = corpus_of(
        paper("a", "2001-01-01", ["x"]), paper("b", "2001-01-02", ["x", "y"]),
        paper("c", "2001-02", ["y"]), paper("d", "2001-02", ["z"]), paper("e", "2001-03", ["z"]),
    )
    records = {
        "b": [_definition("b", "\\x", "old", 0), _definition("b", "\\R", "\\mathbb{R}", 5),
              _definition("b", "\\x", "new", 9), _definition("b", "\\Reals", "\\mathbb{R}", 12)],
        # out of source order: \R is the earlier name of the shared body
        "a": [_definition("a", "\\Reals", "\\mathbb{R}", 3), _definition("a", "\\R", "\\mathbb{R}", 1)],
        # \R is redefined away from the shared body, so \Reals holds it
        "c": [_definition("c", "\\R", "\\mathbb{R}", 0), _definition("c", "\\Reals", "\\mathbb{R}", 2),
              _definition("c", "\\R", "R", 4), _definition("c", "\\f", "#1", 6, "[1]"),
              _definition("c", "\\g", "#1", 7)],
        "d": [],
        "missing": [_definition("missing", "\\x", "y", 0)],  # not in the corpus
    }
    timelines = build_timelines(corpus, records)
    assert [(o.paper_id, o.name) for o in timelines["", "\\mathbb{R}"].occurrences] == [
        ("a", "\\R"), ("b", "\\R"), ("c", "\\Reals")]
    assert [o.paper_id for o in timelines["", "new"].occurrences] == ["b"]
    assert ("", "old") not in timelines and ("", "y") not in timelines
    assert {key for key in timelines if key[1] == "#1"} == {("[1]", "#1"), ("", "#1")}
    by_name = build_name_timelines(corpus, records, ["\\x", "\\f"])
    assert [(o.paper_id, o.name) for o in by_name["", "\\x"].occurrences] == [("b", "new")]
    assert [(o.paper_id, o.name) for o in by_name["", "\\f"].occurrences] == [("c", "[1] #1")]
    assert_timelines_match(corpus, records, records)
    columns = definition_columns([records.get(p.paper_id, []) for p in corpus])
    assert_timelines_match(corpus, columns, records)


_PAPER_DEFINITIONS = st.lists(st.tuples(
    st.sampled_from(["\\a", "\\b", "\\c"]), st.sampled_from(["x", "y", "#1"]),
    st.sampled_from(["", "[1]"]), st.integers(0, 4),  # offsets tie now and then
), max_size=6)


@settings(max_examples=200, deadline=None)
@given(papers=st.lists(_PAPER_DEFINITIONS, min_size=1, max_size=5))
def test_random_papers_equal_the_record_builders(papers):
    corpus = corpus_of(*(paper(f"p{i}", "2001-01", [f"u{i % 2}"]) for i in range(len(papers))))
    records = {f"p{i}": [_definition(f"p{i}", n, b, o, s) for n, b, s, o in defs]
               for i, defs in enumerate(papers)}
    assert_timelines_match(corpus, records, records)


def test_warm_commands_build_no_definition_records(tmp_path, monkeypatch):
    """Counted through every constructor of the record that the package
    binds: the class itself and any ``partial(tuple.__new__,
    MacroDefinition)``."""
    built = Counter()

    def counted(make):
        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            built["records"] += 1
            return make(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(MacroDefinition, "__new__", staticmethod(counted(MacroDefinition.__new__)))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "macrolens":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, functools.partial) and value.args[:1] == (MacroDefinition,):
                monkeypatch.setattr(module, attr, counted(value))

    def command(*argv: str) -> None:
        assert run([*argv, "--corpus", str(GOLDEN), "--out", str(tmp_path / "out")]) == 0

    command("extract")  # cold: the build extracts, and the general parser builds records
    assert built["records"] > 0
    built.clear()
    for argv in (["extract"], ["changeovers"], ["report"], ["fights", "name"], ["fights", "body"]):
        command(*argv)
    assert built == Counter()
