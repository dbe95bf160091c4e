import argparse
import csv
import hashlib
import inspect
import json
import logging
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import macrolens
from macrolens import analytics, changeover, cli, fights, report, store, synth, timelines
from macrolens.cli import run

GOLDEN = Path(__file__).parent / "data" / "golden"


def invoke(*argv):
    return run(list(argv))


class TestArgHandling:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("--help")
        assert exc.value.code == 0

    def test_invalid_q_rejected(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke(
                "changeovers", "--corpus", str(GOLDEN / "manifest.jsonl"),
                "--out", str(out), "--q", "0.9",
            )
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_corpus_exit_one(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke("extract", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(out))
        assert exc.value.code == 1
        assert not out.exists()

    BAD_FEATURES = {
        "empty features": "",
        "blank feature row": "a,label\n1,0\n\n2,1\n",
        "infinite label": "a,label\n1,0\n2,inf\n",
        "fractional label": "a,label\n1,0\n2,0.5\n",
        "non-numeric feature": "a,b,label\n1,2,0\nx,3,1\n",
        "non-numeric label": "a,b,label\n1,2,0\n4,3,yes\n",
        "nan feature": "a,x,label\n" + "1,2,0\n" * 4 + "1,nan,1\n",
        "inf feature": "a,x,label\n1,inf,0\n",
        "-inf feature": "a,x,label\n1,2,0\n-inf,3,1\n",
        "repeated feature column": "a,b,a,label\n1,2,3,0\n4,5,6,1\n",
        "intercept feature column": "a,intercept,label\n1,2,0\n4,5,1\n",
        "oversized cell": "a,label\n1,0\n" + "1" * (128 * 1024 + 1) + ",1\n",
        "NUL byte": "a,label\n1,0\n2\0,1\n",
    }
    NAMED_CELLS = {
        "non-numeric feature": "feature CSV line 3, column 'a': 'x' is not a number",
        "non-numeric label": "feature CSV line 3, column 'label': 'yes' is not a number",
        "nan feature": "feature CSV line 6, column 'x': 'nan' is not a finite number",
        "inf feature": "feature CSV line 2, column 'x': 'inf' is not a finite number",
        "-inf feature": "feature CSV line 3, column 'a': '-inf' is not a finite number",
        "repeated feature column": "feature CSV repeats the column 'a'",
        "intercept feature column": "feature CSV column 'intercept' names the model's constant",
        "oversized cell": "feature CSV line 3: field larger than field limit (131072)",
    }

    WORD_LISTS = '"determiners": ["the"], "verbs": [], "adjectives": [], "nouns": []'
    BAD_LEXICONS = {
        "lexicon lacks list": '{"determiners": ["the"]}',
        "lexicon suffix not a string": '{%s, "noun_suffixes": [5]}' % WORD_LISTS,
        "lexicon word not a string": '{%s}' % WORD_LISTS.replace('["the"]', '[["a"]]'),
        "lexicon suffixes a string": '{%s, "noun_suffixes": "ion"}' % WORD_LISTS,
        "lexicon nested too deeply": "[" * 100_000,
    }
    NAMED_KEYS = {
        "lexicon suffix not a string": "title lexicon 'noun_suffixes' must be a list of strings",
        "lexicon word not a string": "title lexicon 'determiners' must be a list of strings",
        "lexicon suffixes a string": "title lexicon 'noun_suffixes' must be a list of strings",
        "lexicon nested too deeply": "title lexicon nests deeper than the JSON decoder reads",
    }

    @pytest.mark.parametrize("case", [*BAD_FEATURES, "features directory", *BAD_LEXICONS])
    def test_bad_input_files_exit_cleanly(self, case, tmp_path, capsys):
        if case in self.BAD_FEATURES:
            (tmp_path / "features.csv").write_text(self.BAD_FEATURES[case], encoding="utf-8")
            argv, code = ["predict", "--features", str(tmp_path / "features.csv")], 2
        elif case == "features directory":
            argv, code = ["predict", "--features", str(tmp_path)], 1
        else:
            (tmp_path / "lexicon.json").write_text(self.BAD_LEXICONS[case], encoding="utf-8")
            argv = ["fights", "title", "--corpus", str(GOLDEN / "manifest.jsonl"),
                    "--lexicon", str(tmp_path / "lexicon.json")]
            code = 2
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke(*argv, "--out", str(out))
        assert exc.value.code == code
        err = capsys.readouterr().err
        assert err.startswith("macrolens: error: ")
        named = {**self.NAMED_CELLS, **self.NAMED_KEYS}
        if case in named:
            assert err == f"macrolens: error: {named[case]}\n"
        assert not out.exists()

    def test_whitelist_flag_needs_names(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("fights", "body", "--corpus", str(GOLDEN / "manifest.jsonl"),
                   "--out", str(tmp_path / "out"), "--whitelist")
        assert exc.value.code == 2
        assert "--whitelist: expected at least one argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_lexicon_path_is_not_the_packaged_lexicon(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("fights", "title", "--corpus", str(GOLDEN / "manifest.jsonl"),
                   "--out", str(tmp_path / "out"), "--lexicon", "")
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("macrolens: error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("train_frac", ["-0.5", "1.0", "1.5", "nan"])
    def test_train_frac_outside_unit_interval(self, train_frac, tmp_path, capsys):
        rows = "".join(f"{i},{i % 2}\n" for i in range(20))
        (tmp_path / "features.csv").write_text("a,label\n" + rows, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            invoke("predict", "--features", str(tmp_path / "features.csv"),
                   "--train-frac", train_frac, "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("macrolens: error: train_frac must be in (0, 1)")

    def test_split_with_an_empty_side(self, tmp_path, capsys):
        # two rows per label: the default 0.8 puts both in train
        (tmp_path / "features.csv").write_text("a,label\n1,0\n2,1\n3,0\n4,1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            invoke("predict", "--features", str(tmp_path / "features.csv"),
                   "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            "macrolens: error: train_frac 0.8 with 2 rows per label leaves a side empty"
        )

    @pytest.mark.parametrize(
        "count", ["n_changeover_pairs", "n_name_fights", "n_body_fights", "n_title_pairs"]
    )
    def test_negative_synth_count(self, count, tmp_path, capsys):
        synth.SynthConfig(**{count: 0})  # zero plants nothing and is valid
        flag = "--" + count[2:].replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            invoke("synth", "--preset", "name-fights", flag, "-5", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"macrolens: error: {count} must be at least 0\n"
        assert not any(tmp_path.iterdir())

    def test_too_many_changeover_pairs(self, tmp_path, capsys):
        # 100 pairs would plant 139,202,118 records
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke("synth", "--changeover-pairs", "100", "--out", str(out))
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "macrolens: error: n_changeover_pairs 100 plants more than "
            f"{synth.MAX_CHANGEOVER_RECORDS} changeover records "
            f"(at most {synth.MAX_CHANGEOVER_PAIRS} pairs)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["name", "title"])
    @pytest.mark.parametrize("edges", [["-4", "2"], ["0"]])
    def test_gap_bucket_edges_below_one(self, mode, edges, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("fights", mode, "--corpus", str(GOLDEN / "manifest.jsonl"),
                   "--out", str(tmp_path), "--bucket-edges", *edges)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            "macrolens: error: gap bucket edges must be at least 1"
        )

    @pytest.mark.parametrize("mode", ["name", "body", "title"])
    def test_gap_bucket_edges_rejected_while_parsing(self, mode, tmp_path, capsys):
        # a corpus that is never read: loading it would exit 1, not 2
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke("fights", mode, "--corpus", str(tmp_path / "absent.jsonl"),
                   "--out", str(out), "--bucket-edges", "2", "0")
        assert exc.value.code == 2
        assert capsys.readouterr().err == "macrolens: error: gap bucket edges must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["changeovers", "curves"])
    @pytest.mark.parametrize("persistence", ["inf", "nan"])
    def test_persistence_must_be_finite(self, command, persistence, synth_corpus, tmp_path, capsys):
        # the corpus holds changeovers, so a crossing point would be sought
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke(command, "--corpus", str(synth_corpus), "--out", str(out),
                   "--persistence", persistence)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "macrolens: error: persistence must be positive and finite"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["changeovers", "curves"])
    def test_persistence_past_the_grid_is_the_whole_grid(self, command, synth_corpus, tmp_path):
        # 1e308 / delta overflows to inf; 1 already spans the whole grid
        trees = []
        for persistence in ("1e308", "1"):
            out = tmp_path / persistence
            assert invoke(command, "--corpus", str(synth_corpus), "--out", str(out),
                          "--persistence", persistence) == 0
            files = sorted(p for p in out.rglob("*") if p.is_file())
            trees.append({p.relative_to(out): p.read_bytes() for p in files})
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("command", ["changeovers", "curves"])
    def test_delta_whose_grid_is_too_large(self, command, synth_corpus, tmp_path, capsys,
                                           monkeypatch):
        # the check reads delta alone: no grid is built, and nothing is written
        def no_grid(delta):
            raise AssertionError("a window grid was built")

        monkeypatch.setattr(changeover, "window_grid", no_grid)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke(command, "--corpus", str(synth_corpus), "--out", str(out), "--delta", "1e-12")
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "macrolens: error: --delta 1e-12 gives 1000000000000 windows, more than 10000"
        )
        assert not out.exists()

    def test_delta_at_the_grid_bound(self, tmp_path, capsys):
        assert invoke("changeovers", "--corpus", str(GOLDEN / "manifest.jsonl"),
                      "--out", str(tmp_path / "ok"), "--delta", "0.0001") == 0
        assert (tmp_path / "ok" / "changeovers.csv").is_file()
        with pytest.raises(SystemExit) as exc:
            invoke("changeovers", "--corpus", str(GOLDEN / "manifest.jsonl"),
                   "--out", str(tmp_path / "over"), "--delta", "0.0000999")
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("macrolens: error: --delta 9.99e-05 gives 10010 ")
        assert not (tmp_path / "over").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.01"])
    def test_match_tolerance_must_be_finite_and_non_negative(self, tolerance, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke("fights", "title", "--corpus", str(GOLDEN / "manifest.jsonl"), "--out", str(out),
                   "--match-tolerance", tolerance)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "macrolens: error: match tolerance must be finite and at least 0"
        )
        assert not out.exists()

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MACROLENS_OUTDIR", str(tmp_path / "envout"))
        assert invoke("extract", "--corpus", str(GOLDEN / "manifest.jsonl")) == 0
        assert (tmp_path / "envout" / "definitions.csv").is_file()

    def test_empty_outdir_env_is_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MACROLENS_OUTDIR", "")
        monkeypatch.chdir(tmp_path)
        assert invoke("extract", "--corpus", str(GOLDEN / "manifest.jsonl")) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert (tmp_path / "out" / "definitions.csv").is_file()

    @pytest.mark.parametrize("argv, written", [
        (["predict", "--features", "features.csv"],
         ["coefficients.csv", "prediction_metrics.csv"]),
        (["synth", "--preset", "name-fights", "--name-fights", "2"],
         ["ground_truth.json", "manifest.jsonl"]),
    ], ids=["predict", "synth"])
    def test_outdir_env_default_for_every_writer(self, argv, written, tmp_path, monkeypatch):
        monkeypatch.setenv("MACROLENS_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        rows = "".join(f"{i % 7},{i % 2}\n" for i in range(40))
        (tmp_path / "features.csv").write_text("a,label\n" + rows, encoding="utf-8")
        assert invoke(*argv) == 0
        assert sorted(p.name for p in (tmp_path / "envout").iterdir()) == written
        assert not (tmp_path / "out").exists()


# The sha256 of every parser's argparse actions, as ``_surface`` lists them.
# It changes only when a flag, choice, default, type, nargs or action class
# does; recompute it with ``_surface_digest()`` after such a change on purpose.
SURFACE_SHA256 = "f97750bded2c8c378e96d1d83ba68e7a7011299d0b9018220639173233c521a6"


def _parsers(name: str, parser: argparse.ArgumentParser):
    """``parser`` and every parser under it, each with its command words:
    ``macrolens``, ``extract``, ..., ``fights``, ``fights name``, ..."""
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _parsers(word if name == "macrolens" else f"{name} {word}", sub)


def _surface() -> list:
    """Each parser's name and its actions' facts, help strings left out."""
    return [
        [name, [
            {"flags": a.option_strings, "dest": a.dest, "default": repr(a.default),
             "type": getattr(a.type, "__name__", repr(a.type)),
             "choices": None if a.choices is None else list(a.choices),
             "nargs": a.nargs, "required": a.required, "action": type(a).__name__}
            for a in p._actions
        ]]
        for name, p in _parsers("macrolens", cli.build_parser())
    ]


def _surface_digest() -> str:
    canonical = json.dumps(_surface(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# every command's words, from the parsers: ``extract``, ..., ``fights name``, ...
COMMANDS = [name.split() for name, p in _parsers("macrolens", cli.build_parser())
            if name != "macrolens" and p._subparsers is None]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_empty_out_is_refused_while_parsing(command, tmp_path, monkeypatch, capsys):
    """``--out ""`` would name the current directory; it exits 2 before any
    input is read (each input is absent, and reading it would exit 1)."""
    monkeypatch.chdir(tmp_path)
    inputs = {"predict": ["--features", "absent.csv"], "synth": []}
    with pytest.raises(SystemExit) as exc:
        invoke(*command, *inputs.get(command[0], ["--corpus", "absent.jsonl"]), "--out", "")
    assert exc.value.code == 2
    assert "argument --out: an empty path names no directory" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _foreign_options() -> list[tuple[str, list[str]]]:
    """Each ``fights`` mode with each option that another mode declares and
    it does not, plus a value that the declaring mode would accept: none
    for a flag, the last choice, else ``1``."""
    parsers = dict(_parsers("macrolens", cli.build_parser()))
    declared = {
        mode: {a.option_strings[-1]: a for a in parsers[f"fights {mode}"]._actions}
        for mode in ("name", "body", "title")
    }
    cases = {}
    for mode, own in declared.items():
        for other in declared.values():
            for flag, action in other.items():
                if flag not in own:
                    value = [] if action.nargs == 0 else [list(action.choices or ["1"])[-1]]
                    cases[mode, flag] = [flag, *value]
    return [(mode, options) for (mode, _), options in sorted(cases.items())]


FOREIGN_OPTIONS = _foreign_options()


@pytest.mark.parametrize("mode, options", [
    *FOREIGN_OPTIONS,
    ("body", ["--min-body-len", "500"]),
    ("body", ["--older-exp-threshold", "999", "--style", "math"]),
    ("title", ["--three-author", "--whitelist", "x"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_option_of_another_mode_exits_2(mode, options, tmp_path, capsys):
    """A ``fights`` mode refuses the options only other modes read; the
    corpus is absent, and reading it would exit 1, not 2."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        invoke("fights", mode, "--corpus", str(tmp_path / "absent.jsonl"),
               "--out", str(out), *options)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(options)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("options", [["--delta", "0.1"], ["--persistence", "0.1"]],
                         ids=" ".join)
def test_matched_pairs_refuses_the_window_options(options, tmp_path, capsys):
    """``matched-pairs`` writes no curve, so it declares neither window
    option: each exits 2 while parsing, before the absent corpus is read."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        invoke("matched-pairs", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(out),
               *options)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(options)}" in capsys.readouterr().err
    assert not out.exists()


class TestSurface:
    def test_every_subcommand_is_pinned(self):
        names = [name for name, _ in _surface()]
        assert names == ["macrolens", "extract", "timelines", "changeovers", "matched-pairs",
                         "curves", "fights", "fights name", "fights body", "fights title",
                         "predict", "synth", "report"]
        fights_actions = dict(_surface())["fights"]
        assert [a["dest"] for a in fights_actions] == ["help", "mode"]
        assert {"flags": [], "dest": "mode", "default": "None", "type": "None",
                "choices": ["name", "body", "title"], "nargs": "A...", "required": True,
                "action": "_SubParsersAction"} == fights_actions[1]
        flags = {name: [f for a in actions for f in a["flags"]] for name, actions in _surface()}
        every = ["-h", "--help", "--corpus", "--out", "--format"]
        knobs = ["--s", "--q", "--theta"]
        assert flags["matched-pairs"] == [*every, *knobs]  # it writes no curve
        for command in ("changeovers", "curves"):
            assert flags[command] == [*every, *knobs, "--delta", "--persistence"]
        fight = ["--seed", "--min-authors", "--three-author"]
        assert flags["fights name"] == [*every, *fight, "--min-body-len", "--bucket-edges"]
        assert flags["fights body"] == [*every, *fight, "--whitelist", "--bucket-edges"]
        assert flags["fights title"] == [
            *every, "--style", "--older-exp-threshold", "--min-younger-papers",
            "--match-tolerance", "--lexicon", "--bucket-edges",
        ]
        # of the 11 fight options, name and body each read 5 and title 6
        assert len(FOREIGN_OPTIONS) == 3 * 11 - 16 == 17

    def test_surface_unchanged(self):
        assert _surface_digest() == SURFACE_SHA256

    def test_defaults_are_the_library_defaults(self):
        def parse(*argv):
            return cli.build_parser().parse_args(list(argv))

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        for command in ("changeovers", "matched-pairs", "curves"):
            params = cli._changeover_params(parse(command, "--corpus", "m"))
            assert params == changeover.ChangeoverParams()
        args = parse("fights", "name", "--corpus", "m")
        assert fights.FightFilters(
            min_distinct_authors=args.min_authors, min_shared_len=args.min_body_len,
            three_author=args.three_author,
        ) == fights.FightFilters()
        assert args.seed == default(fights.win_rate_by_gap, "seed")
        assert args.bucket_edges == list(default(fights.win_rate_by_gap, "bucket_edges"))
        args = parse("fights", "body", "--corpus", "m")
        assert fights.FightFilters(
            min_distinct_authors=args.min_authors, three_author=args.three_author,
        ) == fights.FightFilters()
        assert args.whitelist == fights.DEFAULT_BODY_FIGHT_NAMES
        assert args.seed == default(fights.win_rate_by_gap, "seed")
        assert args.bucket_edges == list(default(fights.win_rate_by_gap, "bucket_edges"))
        args = parse("fights", "title", "--corpus", "m")
        assert fights.TitleFightFilters(
            older_exp_threshold=args.older_exp_threshold,
            min_younger_papers=args.min_younger_papers,
        ) == fights.TitleFightFilters()
        assert args.match_tolerance == default(fights.match_title_fights, "tolerance")
        assert args.style == fights.STYLE_NAMES[0] == "colon"
        assert args.bucket_edges == list(default(fights.dominance_by_gap, "bucket_edges"))
        args = parse("predict", "--features", "f")
        assert args.train_frac == default(analytics.split, "train_frac")
        assert args.seed == default(analytics.split, "seed")
        args = parse("synth")
        assert synth.SynthConfig(
            seed=args.seed, preset=args.preset, n_changeover_pairs=args.changeover_pairs,
            n_name_fights=args.name_fights, n_body_fights=args.body_fights,
            n_title_pairs=args.title_pairs,
        ) == synth.SynthConfig()


class TestExtract:
    def test_definitions_csv_written(self, tmp_path):
        assert invoke("extract", "--corpus", str(GOLDEN / "manifest.jsonl"), "--out", str(tmp_path)) == 0
        with open(tmp_path / "definitions.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["paper_id", "name", "body", "defining_command"]
        assert ["g01", "\\Reals", "\\mathbb{R}", "def"] in rows

    def test_json_format_mirrors_csv(self, tmp_path):
        assert invoke(
            "extract", "--corpus", str(GOLDEN / "manifest.jsonl"),
            "--out", str(tmp_path), "--format", "json",
        ) == 0
        data = json.loads((tmp_path / "definitions.json").read_text(encoding="utf-8"))
        assert {"paper_id": "g01", "name": "\\Reals", "body": "\\mathbb{R}",
                "defining_command": "def"} in data


@pytest.mark.parametrize("mode", ["name", "body"])
def test_no_fights_still_writes_every_table(mode, tmp_path, capsys):
    """The golden corpus has no fights: the feature and gap tables are
    still written, and predict rejects the empty feature table."""
    assert invoke("fights", mode, "--corpus", str(GOLDEN / "manifest.jsonl"),
                  "--out", str(tmp_path)) == 0
    tables = {}
    for table in ("fights", "fight_features", "fight_gap_table"):
        with open(tmp_path / f"{mode}_{table}.csv", encoding="utf-8", newline="") as fh:
            tables[table] = list(csv.reader(fh))
    assert len(tables["fights"]) == len(tables["fight_features"]) == 1  # header only
    assert tables["fight_features"][0][-1] == "label"
    gap_rows = tables["fight_gap_table"][1:]
    assert gap_rows and all(row[-1] == "0" for row in gap_rows)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        invoke("predict", "--features", str(tmp_path / f"{mode}_fight_features.csv"),
               "--out", str(tmp_path / "predict"))
    assert exc.value.code == 2
    assert "both labels must be present" in capsys.readouterr().err


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthcorpus")
    rc = run([
        "synth", "--preset", "full", "--seed", "5", "--out", str(out),
        "--changeover-pairs", "3", "--name-fights", "20",
        "--body-fights", "16", "--title-pairs", "8",
    ])
    assert rc == 0
    return out / "manifest.jsonl"


# a stage each command reaches after some of its tables are complete, and
# which call of it fails (changeovers: the second record's hash, after the
# first record's curve table)
LAST_STAGES = {
    "fights name": (("fights", "name"), fights, "win_rate_by_gap", 1),
    "fights body": (("fights", "body"), fights, "win_rate_by_gap", 1),
    "curves": (("curves",), changeover, "experience_curves", 1),
    "changeovers": (("changeovers",), report, "body_hash", 2),
}


@pytest.mark.parametrize("case", LAST_STAGES)
def test_failure_in_last_stage_writes_nothing(case, synth_corpus, tmp_path, monkeypatch, capsys):
    command, module, name, failing_call = LAST_STAGES[case]
    stage, calls = getattr(module, name), []

    def fail_on_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise ValueError("stage failed")
        return stage(*args, **kwargs)

    monkeypatch.setattr(module, name, fail_on_call)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        invoke(*command, "--corpus", str(synth_corpus), "--out", str(out))
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "macrolens: error: stage failed"
    assert not out.exists()


def _surrogate_manifest(path: Path) -> Path:
    """Two papers with a definition each; the second id is a lone
    surrogate, which the loader keeps and UTF-8 cannot encode."""
    path.write_text(
        '{"authors": ["A"], "date": "2001-01", "id": "a", "source": "\\\\def\\\\x{y}", "title": "t"}\n'
        '{"authors": ["A"], "date": "2001-02", "id": "b\\ud800", "source": "\\\\def\\\\z{w}", "title": "t"}\n',
        encoding="utf-8",
    )
    return path


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else b"dir"
            for p in sorted(root.rglob("*"))}


class TestAllOrNothing:
    """A command that fails while its tables are written leaves no file and
    no output directory, and an output directory that was there before
    exactly as it was; cold (the first open builds the store) and warm."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_encoding_error_writes_nothing(self, fmt, tmp_path, capsys):
        manifest = _surrogate_manifest(tmp_path / "manifest.jsonl")
        for run_ in ("cold", "warm"):
            out = tmp_path / run_ / "nested" / "out"
            with pytest.raises(SystemExit) as exc:
                invoke("extract", "--corpus", str(manifest), "--out", str(out), "--format", fmt)
            assert exc.value.code == 2
            assert "surrogates not allowed" in capsys.readouterr().err
            assert not (tmp_path / run_).exists()
            assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]

    def test_existing_output_directory_left_as_it_was(self, tmp_path, capsys):
        manifest = _surrogate_manifest(tmp_path / "manifest.jsonl")
        out = tmp_path / "out"
        (out / "curves").mkdir(parents=True)
        (out / "definitions.csv").write_bytes(b"earlier\n")
        (out / "curves" / "x.csv").write_bytes(b"other\n")
        before = _tree(out)
        for _ in ("cold", "warm"):
            with pytest.raises(SystemExit) as exc:
                invoke("extract", "--corpus", str(manifest), "--out", str(out))
            assert exc.value.code == 2
            assert _tree(out) == before

    def test_synth_that_fails_while_writing_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(synth.json, "dump", no_space)  # the ground truth, written last
        argv = ("synth", "--preset", "name-fights", "--name-fights", "2", "--out")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            invoke(*argv, str(out))
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith("No space left on device\n")
        assert not any(tmp_path.iterdir())
        out.mkdir()
        (out / "manifest.jsonl").write_bytes(b"earlier\n")
        before = _tree(out)
        with pytest.raises(SystemExit) as exc:
            invoke(*argv, str(out))
        assert exc.value.code == 1
        assert _tree(out) == before

    def test_synth_onto_a_directory_replaces_no_file(self, tmp_path, capsys):
        """The ground truth's path is a directory: the manifest, which moves
        first, is not replaced either."""
        out = tmp_path / "out"
        (out / "ground_truth.json").mkdir(parents=True)
        (out / "manifest.jsonl").write_bytes(b"earlier\n")
        before = _tree(out)
        with pytest.raises(SystemExit) as exc:
            invoke("synth", "--preset", "name-fights", "--name-fights", "2", "--out", str(out))
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            f"macrolens: error: [Errno 21] Is a directory: '{out / 'ground_truth.json'}'\n")
        assert _tree(out) == before

    @pytest.mark.parametrize("blocked", ["changeovers.csv is a directory", "curves is a file"])
    def test_tables_onto_a_blocked_path_move_nothing(self, blocked, synth_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        name, kind = blocked.split(" is a ")
        if kind == "directory":
            (out / name).mkdir()
        else:
            (out / name).write_bytes(b"earlier\n")
        before = _tree(out)
        with pytest.raises(SystemExit) as exc:
            invoke("changeovers", "--corpus", str(synth_corpus), "--out", str(out))
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(f": '{out / name}'\n")
        assert _tree(out) == before

    def test_tables_move_into_an_existing_output_directory(self, synth_corpus, tmp_path):
        fresh = tmp_path / "fresh"
        assert invoke("changeovers", "--corpus", str(synth_corpus), "--out", str(fresh)) == 0
        out = tmp_path / "out"
        (out / "curves").mkdir(parents=True)
        (out / "changeovers.csv").write_bytes(b"earlier\n")
        (out / "curves" / "kept.csv").write_bytes(b"kept\n")
        assert invoke("changeovers", "--corpus", str(synth_corpus), "--out", str(out)) == 0
        assert _tree(out) == {**_tree(fresh), "curves/kept.csv": b"kept\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]


def test_definitions_rows_are_sized_and_read_once_per_write(synth_corpus, tmp_path, monkeypatch):
    """The definitions table's ``len`` is the number of rows written (the
    benchmark's tracer reads it), in both commands and formats, and its
    rows come from the columns each time they are iterated."""
    sizes = {}
    write = report.write_table

    def sized_write(base, header, rows, fmt="csv"):
        sizes[base.name] = len(rows)
        return write(base, header, rows, fmt)

    monkeypatch.setattr(report, "write_table", sized_write)
    for command in ("extract", "report"):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{command}-{fmt}"
            assert invoke(command, "--corpus", str(synth_corpus), "--out", str(out),
                          "--format", fmt) == 0
            if fmt == "csv":
                with open(out / "definitions.csv", encoding="utf-8", newline="") as fh:
                    written = len(list(csv.reader(fh))) - 1
            else:
                written = len(json.loads((out / "definitions.json").read_text(encoding="utf-8")))
            assert sizes.pop("definitions") == written > 100
    opened = store.open_corpus(str(synth_corpus), True)
    table = cli._definitions(opened.corpus, opened.definitions)
    assert list(table.rows) == list(table.rows) and len(list(table.rows)) == len(table.rows)


def _warm_extract_overhead(manifest: Path, out: Path, monkeypatch, fmt: str) -> int:
    """tracemalloc peak of a warm ``extract`` in ``fmt`` minus the live size
    right after its ``open_corpus``."""
    argv = ("extract", "--corpus", str(manifest), "--out", str(out), "--format", fmt)
    assert invoke(*argv) == 0
    live, open_corpus = [], store.open_corpus

    def open_and_mark(*args):
        opened = open_corpus(*args)
        live.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return opened

    with monkeypatch.context() as patched:
        patched.setattr(store, "open_corpus", open_and_mark)
        tracemalloc.start()
        try:
            assert invoke(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak - live[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_warm_extract_holds_no_row_per_definition(fmt, tmp_path, monkeypatch):
    """Doubling the papers (ten definitions each) grows a warm ``extract``'s
    memory beyond its open by less than a fixed buffer, not by a row tuple
    (about 79 B each, 1.2 MB here) or a row object per definition."""
    names = ["\\" + letter * k for k in (1, 2) for letter in "abcdefghijklmnopqrst"]
    overheads = []
    for n in (1500, 3000):
        manifest = tmp_path / f"manifest{n}.jsonl"
        with open(manifest, "w", encoding="utf-8") as fh:
            for i in range(n):
                source = "".join(f"\\newcommand{{{names[(i + j) % len(names)]}}}{{x_{j}}}\n"
                                 for j in range(10))
                fh.write(json.dumps({"id": f"p{i:05d}", "date": f"{2000 + i % 20}-01",
                                     "authors": [f"a{i % 50}"], "title": "t",
                                     "source": source}) + "\n")
        overheads.append(_warm_extract_overhead(manifest, tmp_path / f"out{n}", monkeypatch, fmt))
    assert overheads[1] - overheads[0] < 64 * 1024, overheads


def test_numpy_loads_only_for_feature_matrices(synth_corpus, tmp_path):
    """Importing the CLI and running the commands that build no feature
    matrix leaves numpy unimported; ``fights name`` then imports it.  The
    second pass opens the corpus store that the first one built."""
    script = textwrap.dedent("""
        import sys
        from macrolens import cli
        loaded = ["numpy" in sys.modules]
        for command in (["extract"], ["changeovers"], ["report"], ["fights", "title"],
                        ["fights", "name"]):
            assert cli.run([*command, "--corpus", sys.argv[1], "--out", sys.argv[2]]) == 0
            loaded.append("numpy" in sys.modules)
        print(loaded)
    """)
    src = str(Path(macrolens.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    built = None
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-c", script, str(synth_corpus), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[False, False, False, False, False, True]\n"
        store = Path(os.environ["XDG_CACHE_HOME"], "macrolens")
        files = {path.name: path.stat().st_mtime_ns for path in store.iterdir()}
        assert len(files) == 1 and files == (built or files)  # the warm pass rebuilt nothing
        built = files


def test_title_fights_build_no_coauthor_index(synth_corpus, tmp_path, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("CoauthorIndex built")

    monkeypatch.setattr(timelines.CoauthorIndex, "__init__", refused)
    assert invoke("fights", "title", "--corpus", str(synth_corpus), "--out", str(tmp_path)) == 0
    with open(tmp_path / "title_fights.csv", encoding="utf-8", newline="") as fh:
        assert len(list(csv.reader(fh))) > 1


@pytest.mark.parametrize("command", ["matched-pairs", "curves"])
def test_unmatched_changeovers_are_counted(command, synth_corpus, tmp_path, caplog):
    """Both commands read only the matched pairs, so both say how many
    changeovers found no control; at ``--s 50`` one of this corpus's does not."""
    with caplog.at_level(logging.WARNING, logger="macrolens"):
        assert invoke(command, "--corpus", str(synth_corpus), "--s", "50",
                      "--out", str(tmp_path)) == 0
    assert caplog.messages.count("1 changeovers had no matching control") == 1


class TestPipelineCommands:
    def test_full_battery(self, synth_corpus, tmp_path):
        out = str(tmp_path)
        corpus = str(synth_corpus)
        for argv in (
            ["extract", "--corpus", corpus, "--out", out],
            ["timelines", "--corpus", corpus, "--out", out],
            ["changeovers", "--corpus", corpus, "--out", out],
            ["matched-pairs", "--corpus", corpus, "--out", out],
            ["curves", "--corpus", corpus, "--out", out],
            ["fights", "name", "--corpus", corpus, "--out", out, "--seed", "1"],
            ["fights", "body", "--corpus", corpus, "--out", out, "--seed", "1"],
            ["fights", "title", "--corpus", corpus, "--out", out],
            ["report", "--corpus", corpus, "--out", out],
        ):
            assert run(argv) == 0, argv
        produced = {p.name for p in tmp_path.iterdir()}
        assert {
            "definitions.csv", "timelines.csv", "changeovers.csv", "curves",
            "matched_pairs.csv", "changeover_features.csv", "aggregate_curves.csv",
            "crossing_histogram.csv", "experience_curves.csv",
            "name_fights.csv", "name_fight_features.csv", "name_fight_gap_table.csv",
            "body_fights.csv", "body_fight_features.csv", "body_fight_gap_table.csv",
            "title_fights.csv", "title_fight_pairs.csv", "dominance_gap_table.csv",
            "summary.csv",
        } <= produced
        rc = run([
            "predict", "--features", str(tmp_path / "name_fight_features.csv"),
            "--out", out, "--seed", "2",
        ])
        assert rc == 0
        assert (tmp_path / "prediction_metrics.csv").is_file()
        assert (tmp_path / "coefficients.csv").is_file()

    def test_interface_table_headers(self, synth_corpus, tmp_path):
        out = str(tmp_path)
        corpus = str(synth_corpus)
        for argv in (
            ["timelines", "--corpus", corpus, "--out", out],
            ["changeovers", "--corpus", corpus, "--out", out],
            ["curves", "--corpus", corpus, "--out", out],
        ):
            assert run(argv) == 0
        def header(name):
            with open(tmp_path / name, encoding="utf-8", newline="") as fh:
                return next(csv.reader(fh))
        assert header("timelines.csv") == ["body_hash", "m", "distinct_names", "distinct_authors"]
        assert header("aggregate_curves.csv") == ["t", "value", "series"]
        assert header("crossing_histogram.csv") == ["t", "count"]
        assert header("experience_curves.csv") == ["t", "value", "series"]
        with open(tmp_path / "changeovers.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:6] == ["body_hash", "body", "signature", "early_name", "late_name", "m"]
        # each record's sampled curves live beside the table
        for rec in rows[1:]:
            assert (tmp_path / "curves" / f"{rec[0]}.csv").is_file()

    def test_summary_matches_definitions(self, synth_corpus, tmp_path):
        out = str(tmp_path)
        assert run(["report", "--corpus", str(synth_corpus), "--out", out]) == 0
        with open(tmp_path / "definitions.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(tmp_path / "summary.csv", encoding="utf-8", newline="") as fh:
            summary = dict(list(csv.reader(fh))[1:])
        # report cells re-derivable from the emitted definitions table
        assert int(summary["definitions"]) == len(rows)
        assert int(summary["papers_with_macro"]) == len({r[0] for r in rows})
        bodies = {r[2] for r in rows}
        named = {(r[2], r[1]) for r in rows}
        # signatures are empty throughout this corpus, so body text is the key
        assert int(summary["unique_bodies"]) == len(bodies)
        assert float(summary["avg_names_per_body"]) == pytest.approx(len(named) / len(bodies))

    def test_empty_corpus_report(self, tmp_path):
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        assert run(["report", "--corpus", str(manifest), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "summary.csv", encoding="utf-8", newline="") as fh:
            summary = dict(list(csv.reader(fh))[1:])
        assert summary["papers_with_macro"] == "0"
        assert summary["avg_names_per_body"] == "0.0"

    def test_fight_order_invariant_under_manifest_permutation(self, synth_corpus, tmp_path):
        lines = synth_corpus.read_text(encoding="utf-8").strip().split("\n")
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for corpus, out in ((synth_corpus, out_a), (shuffled, out_b)):
            assert run(["fights", "name", "--corpus", str(corpus),
                        "--out", str(out), "--seed", "3"]) == 0
        assert (out_a / "name_fights.csv").read_bytes() == (out_b / "name_fights.csv").read_bytes()
