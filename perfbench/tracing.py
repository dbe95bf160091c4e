"""Span and counter recorder for the traced battery, plus growth probes.

The recorder wraps the package's public functions wherever a module has
bound them (``cli`` binds ``load_corpus`` and ``extract_definitions`` by
``from ... import``, ``fights`` binds ``coauthor_graph`` and
``betweenness`` the same way), so patching only the defining module
would miss those calls.  Object construction is caught on the classes
(``ExperienceLedger.__init__``, ``CoauthorIndex.__init__``), which covers
both the CLI's ledger and index and ``detect_title_fights``' own index.

Three kinds of wrapper:

* span: records name, start, end, parent and command; self time is the
  duration minus the time covered by child spans and aggregated calls;
* aggregated (per-paper ``extract_definitions``): summed time and counts,
  charged to the enclosing span as covered time, no span per call;
* counter (``CoauthorIndex.coauthored_before``, ``classify_title``):
  a call count only, their time stays in the enclosing span.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import workloads


@dataclass
class Span:
    name: str
    command: str
    start: float
    parent: int | None
    end: float = 0.0
    covered: float = 0.0  # time of child spans and aggregated calls inside

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


class Recorder:
    def __init__(self, damaged_ids):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.per_paper: dict[str, tuple[int, int]] = {}
        self.command = ""
        self._open: list[int] = []
        self._damaged = frozenset(damaged_ids)
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, self.command, perf_counter(), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].covered += span.end - span.start

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _extraction(self, fn):
        counts, per_paper, damaged = self.counts, self.per_paper, self._damaged

        @functools.wraps(fn)
        def wrapper(source, paper_id):
            t0 = perf_counter()
            result = fn(source, paper_id)
            dt = perf_counter() - t0
            counts["extraction.extract_s"] += dt
            counts["extraction.papers_extracted"] += 1
            if paper_id in damaged:
                counts["extraction.damaged_s"] += dt
            else:
                counts["extraction.clean_s"] += dt
                counts["extraction.clean_chars"] += len(source)
            per_paper[paper_id] = (len(result.definitions), result.skipped)
            if self._open:
                self.spans[self._open[-1]].covered += dt
            return result

        return wrapper

    def install(self) -> None:
        from macrolens import analytics, changeover, corpus, extraction, fights, report, timelines

        def add(c, key, value):
            c[key] += value

        def loaded(c, args, res):
            c["corpus.load_calls"] += 1
            c["corpus.records"] = len(res.corpus)
            c["corpus.skipped"] = res.skipped
            c["corpus.source_chars"] = sum(len(p.source) for p in res.corpus)
            c["corpus.titled"] = sum(1 for p in res.corpus if p.title)

        def graph(c, args, g):
            add(c, "timelines.coauthor_graph_calls", 1)
            add(c, "timelines.graph_nodes", len(g.nodes))
            add(c, "timelines.graph_edges", len(g.edges))

        def detected(c, args, rec):
            add(c, "changeover.detect_calls", 1)
            add(c, "changeover.records", rec is not None)

        def written(c, args, path):
            add(c, "report.rows", len(args[2]))
            add(c, "report.bytes", path.stat().st_size)

        def bodies(c, args, res):
            c["timelines.bodies"] = len(res)

        functions = (
            (corpus.load_corpus, self._spanned("corpus.load", corpus.load_corpus, loaded)),
            (extraction.extract_definitions, self._extraction(extraction.extract_definitions)),
            (timelines.build_timelines,
             self._spanned("timelines.build", timelines.build_timelines, bodies)),
            (timelines.build_name_timelines,
             self._spanned("timelines.build", timelines.build_name_timelines)),
            (timelines.coauthor_graph,
             self._spanned("timelines.coauthor_graph", timelines.coauthor_graph, graph)),
            (analytics.betweenness, self._spanned(
                "analytics.betweenness", analytics.betweenness,
                lambda c, a, r: (add(c, "analytics.betweenness_calls", 1),
                                 add(c, "analytics.betweenness_nodes", len(a[0]))))),
            (analytics.logistic_fit, self._spanned(
                "analytics.fit", analytics.logistic_fit,
                lambda c, a, r: add(c, "analytics.fit_iterations", r.iterations))),
            (analytics.binomial_ci, self._spanned("analytics.binomial_ci", analytics.binomial_ci)),
            (changeover.detect_changeover,
             self._spanned("changeover.detect", changeover.detect_changeover, detected)),
            (changeover.find_control_candidates,
             self._spanned("changeover.controls", changeover.find_control_candidates)),
            (changeover.match_pairs, self._spanned(
                "changeover.match", changeover.match_pairs,
                lambda c, a, r: add(c, "changeover.pairs", len(r[0])))),
            (changeover.aggregate_median_curves,
             self._spanned("changeover.curves", changeover.aggregate_median_curves)),
            (changeover.experience_curves,
             self._spanned("changeover.curves", changeover.experience_curves)),
            (changeover.changeover_features,
             self._spanned("changeover.features", changeover.changeover_features)),
            (fights.detect_name_fights, self._spanned(
                "fights.detect", fights.detect_name_fights,
                lambda c, a, r: add(c, "fights.name_fights", len(r)))),
            (fights.detect_body_fights, self._spanned(
                "fights.detect", fights.detect_body_fights,
                lambda c, a, r: add(c, "fights.body_fights", len(r)))),
            (fights.fight_feature_matrix,
             self._spanned("fights.features", fights.fight_feature_matrix)),
            (fights.detect_title_fights, self._spanned(
                "fights.title_detect", fights.detect_title_fights,
                lambda c, a, r: add(c, "fights.title_fights", len(r)))),
            (fights.classify_title, self._counted("fights.classify_calls", fights.classify_title)),
            (fights.match_title_fights, self._spanned(
                "fights.title_match", fights.match_title_fights,
                lambda c, a, r: add(c, "fights.title_pairs", len(r[0])))),
            (report.write_table, self._spanned("report.write", report.write_table, written)),
        )
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "macrolens"]
        for fn, wrapper in functions:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        self._patch(timelines.ExperienceLedger, "__init__", self._spanned(
            "timelines.ledger", timelines.ExperienceLedger.__init__))
        self._patch(timelines.CoauthorIndex, "__init__", self._spanned(
            "timelines.coindex", timelines.CoauthorIndex.__init__))
        self._patch(timelines.CoauthorIndex, "coauthored_before", self._counted(
            "timelines.pair_tests", timelines.CoauthorIndex.coauthored_before))

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced battery (``cli`` spans are the
    command roots, so their self time is the glue outside every layer)."""
    t, c = rec.self_times(), rec.counts
    per_paper = rec.per_paper.values()
    return {
        "corpus.load_s": t["corpus.load"],
        "corpus.load_calls": c["corpus.load_calls"],
        "corpus.records": c["corpus.records"],
        "corpus.skipped": c["corpus.skipped"],
        "corpus.source_mb": c["corpus.source_chars"] / 1e6,
        "extraction.extract_s": c["extraction.extract_s"],
        "extraction.clean_mb_per_s": (
            c["extraction.clean_chars"] / 1e6 / c["extraction.clean_s"]
            if c["extraction.clean_s"] else 0.0
        ),
        "extraction.damaged_s": c["extraction.damaged_s"],
        "extraction.definitions": sum(d for d, _ in per_paper),
        "extraction.skipped": sum(s for _, s in per_paper),
        "extraction.papers_extracted": c["extraction.papers_extracted"],
        "timelines.build_s": t["timelines.build"],
        "timelines.bodies": c["timelines.bodies"],
        "timelines.ledger_s": t["timelines.ledger"],
        "timelines.coindex_s": t["timelines.coindex"],
        "timelines.coauthor_graph_s": t["timelines.coauthor_graph"],
        "timelines.coauthor_graph_calls": c["timelines.coauthor_graph_calls"],
        "timelines.pair_tests": c["timelines.pair_tests"],
        "timelines.graph_nodes": c["timelines.graph_nodes"],
        "timelines.graph_edges": c["timelines.graph_edges"],
        "timelines.edge_yield": (
            c["timelines.graph_edges"] / c["timelines.pair_tests"]
            if c["timelines.pair_tests"] else 0.0
        ),
        "analytics.betweenness_s": t["analytics.betweenness"],
        "analytics.betweenness_calls": c["analytics.betweenness_calls"],
        "analytics.betweenness_nodes": c["analytics.betweenness_nodes"],
        "analytics.fit_s": t["analytics.fit"],
        "analytics.fit_iterations": c["analytics.fit_iterations"],
        "analytics.binomial_ci_s": t["analytics.binomial_ci"],
        "changeover.detect_s": t["changeover.detect"],
        "changeover.detect_calls": c["changeover.detect_calls"],
        "changeover.records": c["changeover.records"],
        "changeover.controls_s": t["changeover.controls"],
        "changeover.match_s": t["changeover.match"],
        "changeover.pairs": c["changeover.pairs"],
        "changeover.curves_s": t["changeover.curves"],
        "changeover.features_s": t["changeover.features"],
        "fights.detect_s": t["fights.detect"],
        "fights.name_fights": c["fights.name_fights"],
        "fights.body_fights": c["fights.body_fights"],
        "fights.features_s": t["fights.features"],
        "fights.title_detect_s": t["fights.title_detect"],
        "fights.classify_calls": c["fights.classify_calls"],
        "fights.classify_per_title": (
            c["fights.classify_calls"] / c["corpus.titled"] if c["corpus.titled"] else 0.0
        ),
        "fights.title_fights": c["fights.title_fights"],
        "fights.title_match_s": t["fights.title_match"],
        "fights.title_pairs": c["fights.title_pairs"],
        "report.write_s": t["report.write"],
        "report.rows": c["report.rows"],
        "report.mb": c["report.bytes"] / 1e6,
        "cli.glue_s": sum(s for name, s in t.items() if name.startswith("cli.")),
    }


# ---------------------------------------------------------------------------
# Growth probes: time at 2x input over time at 1x (2 linear, 4 quadratic)
# ---------------------------------------------------------------------------


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def damaged_growth(seed: int, lines: int = workloads.DAMAGED_LINES) -> float:
    """One padded source with 2x against 1x unbalanced ``\\def`` lines."""
    from macrolens.extraction import extract_definitions

    base = "\\documentclass{article}\n\\begin{document}\nText.\n\\end{document}"

    def source(n: int) -> str:
        rng = random.Random(f"probe/{seed}")  # same padding for both sizes
        plain, params = workloads.vocabulary(rng)
        return workloads.padded_source(rng, base, plain, params, n)[0]

    small, large = source(lines), source(2 * lines)
    return (_median_time(lambda: extract_definitions(large, "probe"), 5)
            / _median_time(lambda: extract_definitions(small, "probe"), 5))


def title_match_growth(seed: int, fights: int = 800) -> float:
    """``match_title_fights`` on 2x against 1x swap-matchable fights."""
    from macrolens.fights import TitleFight, match_title_fights

    rng = random.Random(f"probe/{seed}")
    ordered = []
    for p in range(fights):  # fights pairs = 2x fights
        a, b = rng.sample(range(2, 19), 2)
        indicator = rng.randint(0, 1)
        for side, (p_y, p_o) in enumerate(((a, b), (b, a))):
            ordered.append(TitleFight(
                style="colon", paper_id=f"t{p:06d}.{side}", group_rank=2 * p + side,
                younger=f"y{p}.{side}", older=f"o{p}.{side}", exp_younger=20, exp_older=40,
                profile_younger=p_y * 0.05, profile_older=p_o * 0.05,
                indicator=indicator if side == 0 else 1 - indicator,
            ))
    return (_median_time(lambda: match_title_fights(ordered), 3)
            / _median_time(lambda: match_title_fights(ordered[:fights]), 3))


def features_growth(seed: int, workdir: Path, fights: int = 200) -> float:
    """``fight_feature_matrix`` over all against the first half of the name
    fights in a name-fights corpus; the first half is exactly the fight set
    of a corpus planted with half as many fights."""
    from macrolens import synth
    from macrolens.corpus import load_corpus
    from macrolens.extraction import extract_definitions
    from macrolens.fights import detect_name_fights, fight_feature_matrix
    from macrolens.timelines import CoauthorIndex, ExperienceLedger, build_timelines

    config = synth.SynthConfig(seed=seed, preset="name-fights", n_name_fights=fights)
    manifest, _ = synth.write_output(synth.generate(config), workdir / "features-probe")
    corpus = load_corpus(manifest).corpus
    defs = {p.paper_id: extract_definitions(p.source, p.paper_id).definitions for p in corpus}
    timelines = build_timelines(corpus, defs)
    ledger = ExperienceLedger(corpus)
    index = CoauthorIndex(corpus)
    found = detect_name_fights(corpus, timelines, ledger)
    if len(found) != fights:
        raise RuntimeError(f"features probe found {len(found)} name fights, planted {fights}")
    half = _median_time(
        lambda: fight_feature_matrix(found[: fights // 2], timelines, corpus, ledger, index), 3)
    full = _median_time(lambda: fight_feature_matrix(found, timelines, corpus, ledger, index), 1)
    return full / half
