"""Command-line pipeline: extract, analyze, predict, generate, report.

Every analysis subcommand reads a corpus manifest (or a feature matrix)
and returns its plot-ready tables; :func:`run` writes them as CSV (or
mirrored JSON) into a staging directory once the command has returned,
and moves them into the output directory only when every table is
written, so a command that fails writes nothing; ``synth`` stages its
manifest and ground truth the same way.  Every command is fully
deterministic for a fixed ``--seed``.

A manifest is opened through :mod:`macrolens.store`: the first command
on it loads and extracts it and writes one store file under
``$XDG_CACHE_HOME/macrolens/`` (or ``~/.cache/macrolens/``), keyed by the
manifest's bytes, its ``source_path`` files and the loader's and
extractor's source; later commands read that file.  Deleting the store is
always safe, and it never changes an output byte or writes under
``--out``.
"""

from __future__ import annotations

import argparse
import csv
import errno
import logging
import math
import os
import shutil
import sys
import tempfile
from itertools import chain, compress, repeat, takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import changeover, fights, report, store, synth
from .corpus import Corpus
from .extraction import Definitions
from .timelines import (
    CoauthorIndex,
    ExperienceLedger,
    build_name_timelines,
    build_timelines,
)

if TYPE_CHECKING:  # numpy loads only in the commands that use it
    from . import analytics

log = logging.getLogger("macrolens")

DEFAULT_OUT_ENV = "MACROLENS_OUTDIR"


class Table(NamedTuple):
    """One output table; ``name`` is its path under the output directory
    without the suffix, e.g. ``curves/<hash>``.  ``rows`` is sized and
    iterable, and the writer of each format reads it once."""

    name: str
    header: Sequence[str]
    rows: Iterable[Sequence]


class _GapEdges(argparse.Action):
    """Stores ``--bucket-edges``; an edge below 1 exits 2 while the
    arguments are parsed, before any corpus is read or output written
    (``fights`` makes the same check for library callers)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if any(edge < 1 for edge in values):
            parser.exit(2, "macrolens: error: gap bucket edges must be at least 1\n")
        setattr(namespace, self.dest, values)


def _out_path(text: str) -> str:
    """An ``--out`` value; an empty one is refused, not read as ``.``."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no directory")
    return text


def _add_output_args(p: argparse.ArgumentParser, formats: bool = True) -> None:
    p.add_argument("--out", type=_out_path,
                   help=f"output directory (default ${DEFAULT_OUT_ENV} or ./out)")
    if formats:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="path to a JSONL corpus manifest")
    _add_output_args(p)


def _add_changeover_args(p: argparse.ArgumentParser, windows: bool = True) -> None:
    params = changeover.ChangeoverParams
    p.add_argument("--s", type=int, default=params.s, help="minimum body volume")
    p.add_argument("--q", type=float, default=params.q, help="edge window fraction (<= 0.5)")
    p.add_argument("--theta", type=float, default=params.theta, help="author-share threshold")
    if windows:  # the window grid's: only the commands that write curves read them
        p.add_argument("--delta", type=float, default=params.delta, help="sliding window increment")
        p.add_argument("--persistence", type=float, default=params.persistence,
                       help="crossing persistence span")


def _changeover_params(args) -> changeover.ChangeoverParams:
    knobs = ("s", "q", "theta", "delta", "persistence")  # one a command lacks keeps its default
    return changeover.ChangeoverParams(**{k: getattr(args, k) for k in knobs if hasattr(args, k)})


def _load(args, definitions: bool = True) -> tuple[Corpus, Definitions | None]:
    opened = store.open_corpus(args.corpus, definitions)
    if opened.skipped:
        log.warning("skipped %d malformed corpus records", opened.skipped)
    if opened.definitions_skipped:
        log.warning("skipped %d malformed macro definitions", opened.definitions_skipped)
    return opened.corpus, opened.definitions


def _outdir(args) -> Path:
    """``--out``, else ``$MACROLENS_OUTDIR`` unless it is empty, else ``./out``."""
    return Path(args.out or os.environ.get(DEFAULT_OUT_ENV) or "out")


class _DefinitionRows:
    """The definitions table's rows, one per definition, zipped from the
    decoded columns each time they are iterated, so that no command holds
    them all."""

    def __init__(self, corpus: Corpus, defs: Definitions):
        self.corpus, self.defs = corpus, defs

    def __len__(self) -> int:
        return len(self.defs.name)

    def __iter__(self) -> Iterator[tuple[str, str, str, str]]:
        defs = self.defs
        papers = map(self.corpus.paper_id, compress(range(len(self.corpus)), defs.counts))
        string = defs.strings.__getitem__
        return zip(
            chain.from_iterable(map(repeat, papers, filter(None, defs.counts))),
            map(string, defs.name), map(string, defs.body), map(string, defs.command),
        )


def _definitions(corpus: Corpus, defs: Definitions) -> Table:
    return Table("definitions", ("paper_id", "name", "body", "defining_command"),
                 _DefinitionRows(corpus, defs))


def cmd_extract(args) -> list[Table]:
    return [_definitions(*_load(args))]


def cmd_timelines(args) -> list[Table]:
    corpus, defs = _load(args)
    rows = [
        (report.body_hash(*tl.key), tl.m, len({o.name for o in tl.occurrences}),
         len(tl.distinct_authors()))
        for tl in build_timelines(corpus, defs).values()
    ]
    return [Table("timelines", ("body_hash", "m", "distinct_names", "distinct_authors"), rows)]


def _detect_changeovers(timelines, params) -> list[changeover.ChangeoverRecord]:
    records = (changeover.detect_changeover(tl, params) for tl in timelines.values())
    return [rec for rec in records if rec is not None]


def cmd_changeovers(args) -> list[Table]:
    params = _changeover_params(args)
    corpus, defs = _load(args)
    grid = changeover.window_grid(params.delta)
    tables, rows = [], []
    for rec in _detect_changeovers(build_timelines(corpus, defs), params):
        tl = rec.timeline
        signature, body = tl.key
        h = report.body_hash(signature, body)
        rows.append((h, body, signature, rec.early_name, rec.late_name, tl.m, rec.crossing))
        tables.append(Table(f"curves/{h}", ("t", "early_fraction", "late_fraction"),
                            list(zip(grid, rec.f_curve, rec.g_curve))))
    header = ("body_hash", "body", "signature", "early_name", "late_name", "m", "crossing")
    return tables + [Table("changeovers", header, rows)]


def _matched_pairs(corpus, defs, params):
    timelines = build_timelines(corpus, defs)
    records = _detect_changeovers(timelines, params)
    candidates = changeover.find_control_candidates(timelines, params)
    pairs, unmatched = changeover.match_pairs(records, candidates)
    if unmatched:
        log.warning("%d changeovers had no matching control", unmatched)
    return records, pairs


def cmd_matched_pairs(args) -> list[Table]:
    params = _changeover_params(args)
    corpus, defs = _load(args)
    _, pairs = _matched_pairs(corpus, defs, params)
    ledger = ExperienceLedger(corpus)
    pair_rows, feat_rows = [], []
    for pair in pairs:
        rec, beta, gamma = pair.record, pair.record.timeline, pair.control
        pair_rows.append((
            report.body_hash(*beta.key), report.body_hash(*gamma.key),
            rec.early_name, rec.late_name, pair.control_early_name, pair.control_late_name,
            beta.m, gamma.m, rec.f_beta, rec.g_beta, pair.f_gamma, pair.g_gamma,
        ))
        row_beta, row_gamma = changeover.changeover_features(pair, params.q, ledger)
        feat_rows.extend([(*row_beta, 1), (*row_gamma, 0)])
    return [
        Table("matched_pairs", (
            "beta_hash", "gamma_hash", "early_name", "late_name",
            "control_early_name", "control_late_name", "m_beta", "m_gamma",
            "f_beta", "g_beta", "f_gamma", "g_gamma",
        ), pair_rows),
        Table("changeover_features",
              (*changeover.changeover_feature_columns(params.q), "label"), feat_rows),
    ]


def cmd_curves(args) -> list[Table]:
    params = _changeover_params(args)
    corpus, defs = _load(args)
    records, pairs = _matched_pairs(corpus, defs, params)
    grid = changeover.window_grid(params.delta)
    agg_rows, hist = [], []
    if records:
        f_med, g_med, hist = changeover.aggregate_median_curves(records)
        agg_rows = [(t, v, "early_median") for t, v in zip(grid, f_med)]
        agg_rows += [(t, v, "late_median") for t, v in zip(grid, g_med)]
    exp_rows = []
    if pairs:
        curves = changeover.experience_curves(pairs, ExperienceLedger(corpus), params.delta)
        for series in changeover.EXPERIENCE_SERIES:
            exp_rows.extend((t, v, series) for t, v in zip(grid, curves[series]))
    return [
        Table("aggregate_curves", ("t", "value", "series"), agg_rows),
        Table("crossing_histogram", ("t", "count"), hist),
        Table("experience_curves", ("t", "value", "series"), exp_rows),
    ]


def _gap_table(name: str, rate_label: str, rows: list[fights.GapBucketRow]) -> Table:
    return Table(name, ("gap_lo", "gap_hi", rate_label, "n"), rows)


def cmd_fights(args) -> list[Table]:
    """Name and body fights give the fights table, the feature rows and
    the gap table; with no fights the last two hold only their header and
    rows with ``n`` 0."""
    corpus, defs = _load(args)
    ledger = ExperienceLedger(corpus)
    if args.mode == "name":
        timelines = build_timelines(corpus, defs)
        filters = fights.FightFilters(args.min_authors, args.min_body_len, args.three_author)
        fight_list = fights.detect_name_fights(corpus, timelines, ledger, filters)
        shared_label, shared = "body_hash", lambda f: report.body_hash(*f.shared_key)
    else:
        timelines = build_name_timelines(corpus, defs, args.whitelist)
        filters = fights.FightFilters(args.min_authors, three_author=args.three_author)
        fight_list = fights.detect_body_fights(timelines, ledger, filters)
        shared_label, shared = "name", lambda f: f.shared_key[1]
    if not fight_list:
        log.warning("no %s fights detected", args.mode)
    gap_rows = fights.win_rate_by_gap(fight_list, bucket_edges=args.bucket_edges, seed=args.seed)
    return [
        Table(
            f"{args.mode}_fights",
            ("paper_id", "author_1", "author_2", shared_label, "choice_1", "choice_2",
             "winner", "exp_1", "exp_2"),
            [
                (f.paper_id, f.author_a, f.author_b, shared(f),
                 f.variant_a, f.variant_b, f.winner + 1, f.exp_a, f.exp_b)
                for f in fight_list
            ],
        ),
        Table(f"{args.mode}_fight_features", (*fights.FIGHT_FEATURE_COLUMNS, "label"),
              fights.fight_feature_matrix(fight_list, timelines, corpus, ledger,
                                          CoauthorIndex(corpus))),
        _gap_table(f"{args.mode}_fight_gap_table", "older_win_rate", gap_rows),
    ]


def cmd_title_fights(args) -> list[Table]:
    corpus, _ = _load(args, definitions=False)
    ledger = ExperienceLedger(corpus)
    lexicon = None if args.lexicon is None else fights.TitleLexicon.load(args.lexicon)
    filters = fights.TitleFightFilters(older_exp_threshold=args.older_exp_threshold,
                                       min_younger_papers=args.min_younger_papers)
    fight_list = fights.detect_title_fights(corpus, args.style, ledger, filters, lexicon)
    pairs, unmatched = fights.match_title_fights(fight_list, tolerance=args.match_tolerance)
    if unmatched:
        log.warning("%d title fights left unmatched", unmatched)
    return [
        Table(
            "title_fights",
            ("paper_id", "style", "younger", "older", "exp_younger", "exp_older",
             "profile_younger", "profile_older", "indicator"),
            [
                (f.paper_id, f.style, f.younger, f.older, f.exp_younger, f.exp_older,
                 f.profile_younger, f.profile_older, f.indicator)
                for f in fight_list
            ],
        ),
        Table(
            "title_fight_pairs",
            ("paper_id_1", "paper_id_2", "verdict", "mean_gap"),
            [(p.first.paper_id, p.second.paper_id, p.verdict(), p.mean_gap) for p in pairs],
        ),
        _gap_table(
            "dominance_gap_table", "high_dominance_rate",
            fights.dominance_by_gap(pairs, bucket_edges=args.bucket_edges),
        ),
    ]


def _number(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        kind = "a number" if value is None else "a finite number"
        raise ValueError(f"feature CSV line {line}, column {column!r}: {text!r} is not {kind}")
    return value


def _read_feature_csv(path: Path) -> analytics.FeatureMatrix:
    """The matrix in ``path``, checked where it enters: each row has the
    header's field count, finite numbers and a 0 or 1 label."""
    from . import analytics
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"empty feature CSV: {path}")
            if header[-1:] != ["label"]:
                raise ValueError("feature CSV must end with a 'label' column")
            columns = header[:-1]
            repeated = [c for c in dict.fromkeys(columns) if columns.count(c) > 1]
            if repeated:
                raise ValueError(f"feature CSV repeats the column {repeated[0]!r}")
            if "intercept" in columns:
                raise ValueError("feature CSV column 'intercept' names the model's constant")
            rows = []
            labels = []
            for rec in reader:
                line = reader.line_num
                if len(rec) != len(header):
                    raise ValueError(
                        f"feature CSV line {line} has {len(rec)} fields, not {len(header)}"
                    )
                rows.append([_number(v, line, c) for v, c in zip(rec, columns)])
                label = _number(rec[-1], line, "label")
                if label not in (0.0, 1.0):
                    raise ValueError(f"feature CSV line {line}: label must be 0 or 1")
                labels.append(int(label))
        except csv.Error as exc:  # an oversized cell; a NUL byte before Python 3.11
            raise ValueError(f"feature CSV line {reader.line_num}: {exc}") from None
    return analytics.FeatureMatrix.from_rows(columns, rows, labels)


def cmd_predict(args) -> list[Table]:
    from . import analytics
    matrix = _read_feature_csv(Path(args.features))
    train_raw, test_raw = analytics.split(matrix, train_frac=args.train_frac, seed=args.seed)
    train, mean, stdev = analytics.zscore(train_raw)
    test = analytics.apply_zscore(test_raw, mean, stdev)
    model = analytics.logistic_fit(train)
    correct, n_test = analytics.count_correct(model, test), len(test.y)
    ci_lo, ci_hi = analytics.binomial_ci(correct, n_test)
    coef_rows = [("intercept", model.intercept)]
    coef_rows += sorted(zip(matrix.columns, model.weights.tolist()))
    return [
        Table("coefficients", ("feature", "coefficient"), coef_rows),
        Table(
            "prediction_metrics",
            ("accuracy", "ci_low", "ci_high", "n_train", "n_test",
             "iterations", "converged", "final_loss", "seed"),
            [(correct / n_test, ci_lo, ci_hi, len(train.y), n_test,
              model.iterations, model.converged, model.final_loss, args.seed)],
        ),
    ]


def cmd_synth(args) -> list[Table]:
    config = synth.SynthConfig(
        seed=args.seed,
        preset=args.preset,
        n_changeover_pairs=args.changeover_pairs,
        n_name_fights=args.name_fights,
        n_body_fights=args.body_fights,
        n_title_pairs=args.title_pairs,
    )
    result = synth.generate(config)
    manifest, truth = _write_staged(
        _outdir(args), lambda staging: synth.write_output(result, staging))
    log.info("wrote %s (%d papers) and %s", manifest, len(result.records), truth)
    return []


def cmd_report(args) -> list[Table]:
    corpus, defs = _load(args)
    summary = report.corpus_summary(corpus, defs)
    return [
        _definitions(corpus, defs),
        Table("summary", ("metric", "value"), list(summary.items())),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrolens",
        description="Mine competing macro conventions from a paper corpus.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract macro definitions to CSV")
    _add_corpus_args(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("timelines", help="per-body usage summaries")
    _add_corpus_args(p)
    p.set_defaults(func=cmd_timelines)

    p = sub.add_parser("changeovers", help="detect name changeovers")
    _add_corpus_args(p)
    _add_changeover_args(p)
    p.set_defaults(func=cmd_changeovers)

    p = sub.add_parser("matched-pairs", help="match changeovers with controls")
    _add_corpus_args(p)
    _add_changeover_args(p, windows=False)
    p.set_defaults(func=cmd_matched_pairs)

    p = sub.add_parser("curves", help="aggregate usage and experience curves")
    _add_corpus_args(p)
    _add_changeover_args(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("fights", help="detect convention fights")
    fight_modes = p.add_subparsers(dest="mode", required=True)
    filters, title = fights.FightFilters, fights.TitleFightFilters
    for mode in ("name", "body", "title"):
        p = fight_modes.add_parser(mode, help=f"detect {mode} fights")
        _add_corpus_args(p)
        if mode != "title":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--min-authors", type=int, default=filters.min_distinct_authors)
            p.add_argument("--three-author", action="store_true",
                           help="robustness variant: second vs third author on 3-author papers")
        if mode == "name":
            p.add_argument("--min-body-len", type=int, default=filters.min_shared_len)
        elif mode == "body":
            p.add_argument("--whitelist", nargs="+", default=fights.DEFAULT_BODY_FIGHT_NAMES,
                           help="macro names eligible for body fights")
        else:
            p.add_argument("--style", choices=fights.STYLE_NAMES, default="colon")
            p.add_argument("--older-exp-threshold", type=int, default=title.older_exp_threshold)
            p.add_argument("--min-younger-papers", type=int, default=title.min_younger_papers)
            p.add_argument("--match-tolerance", type=float, default=0.05)
            p.add_argument("--lexicon", help="path to a title lexicon JSON")
        p.add_argument("--bucket-edges", type=int, nargs="*", action=_GapEdges,
                       default=list(fights.DEFAULT_GAP_EDGES))
        p.set_defaults(func=cmd_title_fights if mode == "title" else cmd_fights)

    p = sub.add_parser("predict", help="fit and score a logistic model on a feature CSV")
    p.add_argument("--features", required=True, help="feature matrix CSV with a label column")
    _add_output_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.set_defaults(func=cmd_predict)

    config = synth.SynthConfig
    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--preset", choices=synth.PRESETS, default=config.preset)
    p.add_argument("--seed", type=int, default=config.seed)
    _add_output_args(p, formats=False)
    p.add_argument("--changeover-pairs", type=int, default=config.n_changeover_pairs)
    p.add_argument("--name-fights", type=int, default=config.n_name_fights)
    p.add_argument("--body-fights", type=int, default=config.n_body_fights)
    p.add_argument("--title-pairs", type=int, default=config.n_title_pairs)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="corpus summary statistics")
    _add_corpus_args(p)
    p.set_defaults(func=cmd_report)

    return parser


def _write_staged(out: Path, write: Callable[[Path], Sequence[Path]]) -> list[Path]:
    """Write files under ``out``, all or none of them, and return their paths.

    ``write`` writes its files into a staging directory and returns their
    paths; they move into ``out`` only once it has returned, and only when
    no target is a directory and no existing parent of one under ``out`` is
    a file.  On any failure the staging directory goes and ``out`` is left
    as it was, or not made.
    The staging directory is made in ``out`` itself if it exists, else in
    its nearest existing ancestor, so that each move is a rename on one
    filesystem even when ``out`` is a mount point.
    """
    base = next(p for p in (out, *out.parents) if p.exists())
    staging = Path(tempfile.mkdtemp(prefix=".macrolens-staging-", dir=base))
    try:
        written = write(staging)
        targets = [out / path.relative_to(staging) for path in written]
        for target in targets:  # checked before the first move, so that a failure moves nothing
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            for parent in takewhile(out.__ne__, target.parents):
                if parent.exists() and not parent.is_dir():
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(parent))
        for path, target in zip(written, targets):
            target.parent.mkdir(parents=True, exist_ok=True)
            path.replace(target)
        return targets
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        tables = args.func(args)
        _write_staged(_outdir(args), lambda staging: [
            report.write_table(staging / t.name, t.header, t.rows, args.format) for t in tables])
    except (ValueError, OSError) as exc:
        parser.exit(2 if isinstance(exc, ValueError) else 1, f"macrolens: error: {exc}\n")
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
