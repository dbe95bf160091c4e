"""Byte-identity of the whole CLI battery against a committed digest.

``tests/data/battery_digest.txt`` holds the ``battery_digest`` lines for
the golden manifest and a small synthetic ``full`` corpus.  A change that
alters any output byte fails here; after a deliberate output change,
regenerate the file with::

    PYTHONPATH=src python3 tests/test_battery_digest.py > tests/data/battery_digest.txt
"""

import argparse
import itertools
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from battery_digest import CORPUS_COMMANDS, FEATURE_TABLES, digest_lines, run_battery
from macrolens import cli, store, synth
from macrolens.corpus import Corpus

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


def test_a_late_paper_of_fresh_authors_moves_no_fight_table(tmp_path, monkeypatch):
    """One record appended after the last date, with 2,000 authors found
    nowhere else and no definitions: ``fights name``, ``fights body`` and
    ``fights title`` write the trees they write without it, and none of
    them decodes its byline."""
    manifest, _ = synth.write_output(synth.generate(SYNTH), tmp_path / "synth")
    text = manifest.read_text(encoding="utf-8")
    year = max(int(json.loads(line)["date"][:4]) for line in text.splitlines())
    record = {"id": "collaboration", "date": f"{year + 1}-01-01", "title": "A large collaboration",
              "authors": [f"Collaboration Member {k}" for k in range(2000)], "source": ""}
    appended = manifest.with_name("appended.jsonl")
    appended.write_text(text + json.dumps(record) + "\n", encoding="utf-8")
    authors_of, decoded = Corpus.authors, []

    def counted(self, i):
        decoded.append(self.paper_id(i))
        return authors_of(self, i)

    monkeypatch.setattr(Corpus, "authors", counted)
    for mode in ("name", "body", "title"):
        trees = []
        for source in (manifest, appended):
            out = tmp_path / f"{mode}-{source.stem}"
            assert cli.run(["fights", mode, "--corpus", str(source), "--out", str(out)]) == 0
            trees.append({path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()})
        assert trees[0] == trees[1] and trees[0]
    assert decoded and "collaboration" not in decoded


def test_battery_lines_do_not_depend_on_the_hash_seed(tmp_path):
    """``battery_digest.py`` prints the same lines, ``predict``'s included,
    under two ``PYTHONHASHSEED`` values, so no output follows the order of
    a set or dict of strings."""
    manifest, _ = synth.write_output(synth.generate(SYNTH), tmp_path / "synth")
    script = Path(__file__).with_name("battery_digest.py")
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    printed = []
    for seed in ("0", "987654"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path,
                   XDG_CACHE_HOME=str(tmp_path / f"cache-{seed}"))
        done = subprocess.run(
            [sys.executable, str(script), str(DATA / "golden" / "manifest.jsonl"), str(manifest)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert printed[0] == printed[1] and "fights-name/name_fights.csv" in printed[0]


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
