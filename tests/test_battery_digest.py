"""Byte-identity of the whole CLI battery against a committed digest.

``tests/data/battery_digest.txt`` holds the ``battery_digest`` lines for
the golden manifest and a small synthetic ``full`` corpus.  A change that
alters any output byte fails here; after a deliberate output change,
regenerate the file with::

    PYTHONPATH=src python3 tests/test_battery_digest.py > tests/data/battery_digest.txt
"""

import argparse
import itertools
import logging
import shutil
import sys
import tempfile
from pathlib import Path

from battery_digest import CORPUS_COMMANDS, FEATURE_TABLES, digest_lines, run_battery
from macrolens import cli, store, synth

DATA = Path(__file__).parent / "data"
SYNTH = synth.SynthConfig(seed=9, preset="full", n_changeover_pairs=3,
                          n_name_fights=20, n_body_fights=16, n_title_pairs=8)


def battery_lines(workdir: Path) -> list[str]:
    manifest, _ = synth.write_output(synth.generate(SYNTH), workdir / "synth")
    root = workdir / "battery"
    status = run_battery([DATA / "golden" / "manifest.jsonl", manifest], root)
    # predict's outputs come from numpy's BLAS, which may round the last
    # ulp differently on another machine; their exit lines stay above
    return status + [line for line in digest_lines(root) if "/predict-" not in line]


def test_battery_output_matches_committed_digest(tmp_path):
    expected = (DATA / "battery_digest.txt").read_text(encoding="utf-8").splitlines()
    assert battery_lines(tmp_path) == expected


def test_battery_digest_with_cold_and_warm_corpus_stores(tmp_path, monkeypatch):
    """Cold: every command starts from an empty cache and builds its own
    store file.  Warm: every command opens a store file that an earlier
    pass built, and none loads a manifest."""
    expected = (DATA / "battery_digest.txt").read_text(encoding="utf-8").splitlines()
    run, caches = cli.run, itertools.count()

    def cold(argv):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "caches" / str(next(caches))))
        return run(argv)

    monkeypatch.setattr(cli, "run", cold)
    assert battery_lines(tmp_path / "cold") == expected
    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "warm-cache"))
    battery_lines(tmp_path / "warm")
    shutil.rmtree(tmp_path / "warm" / "battery")
    monkeypatch.setattr(store, "load_corpus", None)  # a load would fail the command
    assert battery_lines(tmp_path / "warm") == expected


def test_battery_digest_without_a_usable_corpus_store(tmp_path, monkeypatch):
    """The cache path is a file, so every corpus command loads and extracts
    its manifest as it stands."""
    expected = (DATA / "battery_digest.txt").read_text(encoding="utf-8").splitlines()
    (tmp_path / "cache").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    load, loads = store.load_corpus, []

    def counted(*args):
        loads.append(args)
        return load(*args)

    monkeypatch.setattr(store, "load_corpus", counted)
    assert battery_lines(tmp_path / "fallback") == expected
    assert len(loads) == 2 * 2 * len(CORPUS_COMMANDS)  # manifests, formats, commands


def test_battery_runs_every_subcommand_and_fights_mode():
    """A subcommand or mode the battery skips would escape the check
    above; ``synth`` writes the inputs, not tables."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    covered = {command[0] for command in CORPUS_COMMANDS}
    if FEATURE_TABLES:
        covered.add("predict")
    assert set(commands.choices) - {"synth"} <= covered
    modes = next(a for a in commands.choices["fights"]._actions if a.dest == "mode").choices
    assert set(modes) <= {command[1] for command in CORPUS_COMMANDS if command[0] == "fights"}


if __name__ == "__main__":
    logging.disable(logging.CRITICAL)  # warnings are not outputs
    with tempfile.TemporaryDirectory(prefix="battery-digest-") as tmp:
        sys.stdout.write("".join(line + "\n" for line in battery_lines(Path(tmp))))
