import ast
import hashlib
import math
import random
from pathlib import Path

import pytest

from macrolens import changeover, synth
from macrolens.changeover import ChangeoverParams, detect_changeover
from macrolens.corpus import load_corpus, normalize_author
from macrolens.extraction import extract_definitions
from macrolens.synth import SynthConfig, generate, write_output
from macrolens.timelines import build_timelines

from conftest import crossover_timeline, random_timeline
from oracles import oracle_changeover


def load_generated(tmp_path, config):
    result = generate(config)
    manifest, _ = write_output(result, tmp_path)
    loaded = load_corpus(manifest)
    return result, loaded


class TestGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(seed=11, preset="full", n_changeover_pairs=2,
                          n_name_fights=5, n_body_fights=5, n_title_pairs=3)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        write_output(generate(cfg), tmp_path / "a")
        write_output(generate(cfg), tmp_path / "b")
        for name in ("manifest.jsonl", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_sized_preset_empty_corpus(self, tmp_path):
        cfg = SynthConfig(seed=0, preset="name-fights", n_name_fights=0)
        result, loaded = load_generated(tmp_path, cfg)
        assert result.records == []
        assert len(loaded.corpus) == 0

    def test_generated_corpus_is_well_formed(self, tmp_path):
        cfg = SynthConfig(seed=2, preset="full", n_changeover_pairs=2,
                          n_name_fights=8, n_body_fights=6, n_title_pairs=4)
        result, loaded = load_generated(tmp_path, cfg)
        assert loaded.skipped == 0
        assert len(loaded.corpus) == len(result.records)
        extract_skips = 0
        for p in loaded.corpus:
            res = extract_definitions(p.source, p.paper_id)
            extract_skips += res.skipped
            for a in p.authors:
                assert normalize_author(a) == a  # already canonical
        assert extract_skips == 0

    def test_planted_changeovers_found_exactly(self, tmp_path):
        cfg = SynthConfig(seed=5, preset="changeover", n_changeover_pairs=4)
        result, loaded = load_generated(tmp_path, cfg)
        defs = {}
        for p in loaded.corpus:
            res = extract_definitions(p.source, p.paper_id)
            if res.definitions:
                defs[p.paper_id] = res.definitions
        timelines = build_timelines(loaded.corpus, defs)
        params = ChangeoverParams()
        detected = {}
        for key in sorted(timelines):
            rec = detect_changeover(timelines[key], params)
            if rec is not None:
                detected[rec.timeline.key[1]] = rec
        planted = {b["body"]: b for b in result.ground_truth["changeover_bodies"]}
        expected = {body for body, b in planted.items() if b["changeover"]}
        assert set(detected) == expected
        for body, rec in detected.items():
            assert rec.early_name == planted[body]["early_name"]
            assert rec.late_name == planted[body]["late_name"]
            # crossing recovered near the planted switch point
            assert rec.crossing == pytest.approx(planted[body]["switch_fraction"], abs=0.05)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(preset="bogus")

    def test_schedule_consistent_with_detection(self):
        params = ChangeoverParams()
        assert synth.BASE_VOLUME >= params.s == synth.CHANGEOVER_S
        assert synth.CHANGEOVER_Q == params.q
        assert synth.VOLUME_GROWTH > changeover.MATCH_RATIO_HI
        for p in (synth.NAME_FIGHT_YOUNGER_WIN, synth.BODY_FIGHT_YOUNGER_WIN,
                  synth.TITLE_HIGH_DOMINANCE):
            assert 0.0 <= p <= 1.0
        # planted switch points sit between the edge windows, and the
        # early-window seeds stay a minority of the smallest early window
        assert all(params.q <= t <= 1.0 - params.q for t in synth.SWITCH_FRACTIONS)
        assert 2 * synth.EARLY_SEED_USES < math.floor(params.q * synth.BASE_VOLUME)

    def test_changeover_pairs_bounded_by_planted_records(self):
        # each pair plants a changeover body and its control of the same
        # volume; the bound is checked without generating anything
        def planted(n_pairs):
            return sum(2 * int(round(synth.BASE_VOLUME * synth.VOLUME_GROWTH**k))
                       for k in range(n_pairs))

        assert planted(SynthConfig().n_changeover_pairs) == 4_824
        top = synth.MAX_CHANGEOVER_PAIRS
        assert planted(top) <= synth.MAX_CHANGEOVER_RECORDS < planted(top + 1)
        assert SynthConfig(n_changeover_pairs=top).n_changeover_pairs == top
        for n_pairs in (top + 1, 100, 10**12):
            with pytest.raises(ValueError, match=f"^n_changeover_pairs {n_pairs} plants more than"):
                SynthConfig(n_changeover_pairs=n_pairs)

    def test_counts_whose_papers_cannot_all_be_dated_are_refused(self):
        """Checked on the config alone, before anything is generated: one
        name fight plants at most 41 papers, and 71,347 of them fill every
        day from 1991-01-01 to 9999-12-31."""
        assert synth.MAX_PAPERS == 2_925_227 == 71_347 * 41
        assert SynthConfig(preset="name-fights", n_name_fights=71_347).n_name_fights == 71_347
        for preset, counts in (("name-fights", dict(n_name_fights=71_348)),
                               ("body-fights", dict(n_body_fights=71_348)),
                               ("title-fights", dict(n_title_pairs=18_057)),
                               ("full", dict(n_name_fights=71_347))):
            with pytest.raises(ValueError, match=f"^preset {preset!r} with these counts may plant"):
                SynthConfig(preset=preset, **counts)
        SynthConfig(preset="title-fights", n_title_pairs=18_056)  # 162 papers a pair at most
        huge = dict(n_name_fights=10**12, n_body_fights=10**12, n_title_pairs=10**12)
        assert SynthConfig(preset="changeover", **huge).n_title_pairs == 10**12  # none planted

    def test_worst_cases_bound_what_the_planters_plant(self):
        config = SynthConfig(seed=3, preset="full", n_changeover_pairs=0,
                             n_name_fights=200, n_body_fights=200, n_title_pairs=40)
        truth = generate(config).ground_truth
        fights = [*truth["name_fights"], *truth["body_fights"]]
        fight_papers = [f["exp_younger"] + f["exp_older"] + 1 for f in fights]
        pair_papers = [sum(m["exp_younger"] + m["exp_older"] + 1 for m in pair["members"])
                       for pair in truth["title_pairs"]]
        assert sum(fight_papers) + sum(pair_papers) == truth["n_papers"]
        assert max(fight_papers) <= synth._FIGHT_PAPERS
        assert max(pair_papers) <= synth._TITLE_PAIR_PAPERS

    def test_imports_no_detection_module(self):
        """The checks above hold only if synth does not share the code it plants for."""
        tree = ast.parse(Path(synth.__file__).read_text(encoding="utf-8"))
        imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        assert not {"changeover", "timelines"} & {m.split(".")[-1] for m in imported if m}


# A copy of perfbench/workloads.py's SYNTH_CONFIGS, the benchmark's three corpora.
WORKLOAD_CONFIGS = {
    "fight-graph": dict(
        preset="full", n_changeover_pairs=0, n_title_pairs=0, n_name_fights=150, n_body_fights=90
    ),
    "title-ledger": dict(
        preset="full", n_changeover_pairs=12, n_title_pairs=150, n_name_fights=0, n_body_fights=0
    ),
    "latex-heavy": dict(preset="changeover", n_changeover_pairs=4),
}

# sha256 of (manifest.jsonl, ground_truth.json): every preset at seed 9 with
# default counts, and each workload config at seed 1
PINNED_DIGESTS = {
    "changeover": (
        "b8fdd97b4c10b6d8a7bd20757bcf72f497a6687ed2a9875c4c634abd3d15835b",
        "3208d2d8d37bc334f6615311dd649e311f6f950f3ac04983a03d68a579928bda",
    ),
    "name-fights": (
        "78ab2f3cfd3ea10fda4a30275d828a09d457075a093d6b5eb18f5aa4cbee4ec8",
        "16b6de97eaef871f0a0370a7760c46948fd5e9573fd4cda19754deb2dc084c11",
    ),
    "body-fights": (
        "80d798b21e0a93ad272f9005d21a4ffe55e60902f943b9c7fc0af6ae2894d565",
        "f671a5b564833f883a0340d43d7ff1f4d5e2f712d5b801dfb1cd962ef8bed159",
    ),
    "title-fights": (
        "534c3da00d56245bf217aa301b643d53ff280a887773e9f3b56f250a5f338a75",
        "d6c7b6758be213a8cd9b107111ee5ac9e5787334d73133c314e51278015d1065",
    ),
    "full": (
        "ca5589173470b563959c32a22e0e3d2a81f4e50f556b59d8e7c113e2198845e9",
        "a6eb521a60d860db5148b8cf000863bc475b95dd6d2d3f2ad5a62b034c103341",
    ),
    "fight-graph": (
        "91ee9cc2275cdb4d7066287149d37da51d7e566cf7ed19fef0a28edf0e89b60e",
        "81b3c3f78e26c5ce43b89e2add9cb60af65e9c7ca5779c4b7e7d9d46a0982f6b",
    ),
    "title-ledger": (
        "67137d41fe7689b41834d9472ab6b44e1538fef4191ba7764987ebd449885c0d",
        "42f309a3bafb7a8c92cc4a3706b4bf1a9a20323f4e2487fbe7ccf88954deddc5",
    ),
    "latex-heavy": (
        "0f09850bd444a9ef82b21cb095c588af67f1436e30e383ea91eac8ccb2f284cf",
        "ff3a5f69d22fcf571dd1faebcce30472936296b65fbad8bb23a72b3f2426dcd8",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_output_bytes_pinned(tmp_path, name):
    """Every check on a synth corpus trusts these bytes; a change to them
    is made on purpose and the digests regenerated with it."""
    if name in WORKLOAD_CONFIGS:
        cfg = SynthConfig(seed=1, **WORKLOAD_CONFIGS[name])
    else:
        cfg = SynthConfig(seed=9, preset=name)
    paths = write_output(generate(cfg), tmp_path)
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == PINNED_DIGESTS[name]


class TestDirectTimelines:
    def test_random_timeline_shape(self):
        rng = random.Random(0)
        for _ in range(20):
            tl = random_timeline(rng, m_range=(20, 60))
            assert 20 <= tl.m <= 60
            ranks = [o.group_rank for o in tl.occurrences]
            assert ranks == sorted(ranks)

    def test_oracle_agreement_on_random_timelines(self):
        rng = random.Random(1)
        params = ChangeoverParams(s=20)
        for _ in range(150):
            tl = random_timeline(rng, m_range=(20, 200))
            mine = detect_changeover(tl, params)
            ref = oracle_changeover(tl, params.s, params.q, params.theta)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert (mine.early_name, mine.late_name) == (ref.early_name, ref.late_name)

    def test_crossover_timeline_recovery(self):
        rng = random.Random(2)
        tl, early, late = crossover_timeline(rng, m=200, t_star=0.4, flip_prob=0.0)
        rec = detect_changeover(tl, ChangeoverParams())
        assert rec is not None
        assert rec.crossing == pytest.approx(0.4, abs=0.05)
