import ast
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

    def test_imports_no_detection_module(self):
        """The checks above hold only if synth does not share the code it plants for."""
        tree = ast.parse(Path(synth.__file__).read_text(encoding="utf-8"))
        imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        assert not {"changeover", "timelines"} & {m.split(".")[-1] for m in imported if m}


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
