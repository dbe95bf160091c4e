"""Synthetic corpora with planted ground truth.

Each preset emits a manifest of well-formed paper records whose sources
really contain the scheduled macro definitions, plus a ground-truth
JSON describing exactly what was planted (which bodies change names and
where, who wins which fight with what probability, which title styles
appear where).  Everything is driven by one seeded RNG, so a seed fully
determines the output bytes.

Effects are planted at the event level (every fight outcome is an
independent draw), so binomial tolerances apply directly when the
pipeline re-estimates the planted rates.
"""

from __future__ import annotations

import datetime
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

PRESETS = ("changeover", "name-fights", "body-fights", "title-fights", "full")


@dataclass
class SynthConfig:
    seed: int = 0
    preset: str = "full"
    # changeover schedule: matched changeover/control body pairs
    n_changeover_pairs: int = 12
    base_volume: int = 100
    volume_growth: float = 1.12  # keeps volumes >10% apart across pairs
    early_seed_uses: int = 3  # late-name occurrences planted in the early window
    # invisible name fights
    n_name_fights: int = 200
    name_fight_younger_win: float = 0.7
    # low-visibility body fights
    n_body_fights: int = 120
    body_fight_younger_win: float = 0.6
    # visible title fights (swap-matched pairs)
    n_title_pairs: int = 100
    title_high_dominance: float = 0.57
    # detection parameters the schedules must stay consistent with
    s: int = 100
    q: float = 0.3

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        for p in (
            self.name_fight_younger_win,
            self.body_fight_younger_win,
            self.title_high_dominance,
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError("planted probabilities must lie in [0, 1]")
        if self.base_volume < self.s:
            raise ValueError("base volume below the changeover volume floor")
        if self.volume_growth <= 1.1:
            raise ValueError("volume growth must exceed the matching ratio band")


@dataclass
class SynthResult:
    records: list[dict]
    ground_truth: dict


class _Emitter:
    """Allocates ids and strictly increasing exact dates."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._day = 0
        self._epoch = datetime.date(1991, 1, 1)

    def emit(self, authors: list[str], title: str, source: str) -> str:
        paper_id = f"p{len(self.records):07d}"
        date = self._epoch + datetime.timedelta(days=self._day)
        self._day += 1
        self.records.append(
            {
                "id": paper_id,
                "date": date.isoformat(),
                "authors": authors,
                "title": title,
                "source": source,
            }
        )
        return paper_id


def _letters(k: int) -> str:
    out = []
    while True:
        out.append(chr(ord("a") + k % 26))
        k //= 26
        if k == 0:
            break
    return "".join(reversed(out))


def _macro_source(defs: list[tuple[str, str]]) -> str:
    lines = ["\\documentclass{article}"]
    for name, body in defs:
        lines.append(f"\\def{name}{{{body}}}")
    lines.append("\\begin{document}")
    lines.append("Text.")
    lines.append("\\end{document}")
    return "\n".join(lines)


_PLAIN_SOURCE = "\\documentclass{article}\n\\begin{document}\nText.\n\\end{document}"


def _plant_changeovers(cfg: SynthConfig, rng: random.Random, em: _Emitter, truth: dict) -> None:
    bodies = []
    for k in range(cfg.n_changeover_pairs):
        m = int(round(cfg.base_volume * cfg.volume_growth**k))
        t_star = rng.choice((0.35, 0.5, 0.65))
        if not cfg.q <= t_star <= 1.0 - cfg.q:
            raise ValueError("planted switch point incompatible with q")
        early_size = math.floor(cfg.q * m)
        if cfg.early_seed_uses * 2 >= early_size:
            raise ValueError("early seeds would outnumber the early name")
        seed_positions = sorted(rng.sample(range(1, early_size), cfg.early_seed_uses))
        switch_at = math.floor(t_star * m)
        tag = _letters(k)
        old_name, new_name = f"\\old{tag}", f"\\new{tag}"
        body = f"\\symbol{{{k}}}x{{\\value{{{k}}}}}"
        for variant, is_changeover in ((0, True), (1, False)):
            body_v = body if is_changeover else body + "c"
            names = []
            for i in range(m):
                if i in seed_positions:
                    names.append(new_name)
                elif is_changeover and i >= switch_at:
                    names.append(new_name)
                else:
                    names.append(old_name)
            for i, name in enumerate(names):
                em.emit(
                    [f"conv author {k} {variant} {i}"],
                    f"Convention study {k}.{variant}.{i}",
                    _macro_source([(name, body_v)]),
                )
            bodies.append(
                {
                    "body": body_v,
                    "m": m,
                    "early_name": old_name,
                    "late_name": new_name,
                    "changeover": is_changeover,
                    "switch_fraction": t_star if is_changeover else None,
                    "early_seed_positions": seed_positions,
                }
            )
    truth["changeover_bodies"] = bodies
    truth["changeover_params"] = {"s": cfg.s, "q": cfg.q}


def _plant_variant_fights(
    cfg: SynthConfig,
    rng: random.Random,
    em: _Emitter,
    truth: dict,
    *,
    kind: str,
) -> None:
    if kind == "name":
        n_fights = cfg.n_name_fights
        younger_win = cfg.name_fight_younger_win
        shared_body = "\\mathbb{R}^{n}_{+}"  # 18 chars, clears the length filter
        variant_old, variant_new = "\\realsfield", "\\realsspace"

        def make_defs(variant: str) -> list[tuple[str, str]]:
            return [(variant, shared_body)]

    else:
        n_fights = cfg.n_body_fights
        younger_win = cfg.body_fight_younger_win
        shared_name = "\\eps"
        body_old, body_new = "\\epsilon", "\\varepsilon"

        def make_defs(variant: str) -> list[tuple[str, str]]:
            return [(shared_name, variant)]

        variant_old, variant_new = body_old, body_new

    fights = []
    for j in range(n_fights):
        exp_young = rng.randint(1, 5)
        gap = rng.randint(1, 30)
        exp_old = exp_young + gap
        young = f"{kind} fighter young {j}"
        old = f"{kind} fighter old {j}"
        young_variant, old_variant = (
            (variant_old, variant_new) if rng.random() < 0.5 else (variant_new, variant_old)
        )
        for i in range(exp_old):
            defs = make_defs(old_variant) if i == 0 else []
            em.emit(
                [old],
                f"Prior work {kind} o{j}.{i}",
                _macro_source(defs) if defs else _PLAIN_SOURCE,
            )
        for i in range(exp_young):
            defs = make_defs(young_variant) if i == 0 else []
            em.emit(
                [young],
                f"Prior work {kind} y{j}.{i}",
                _macro_source(defs) if defs else _PLAIN_SOURCE,
            )
        younger_won = rng.random() < younger_win
        used = young_variant if younger_won else old_variant
        byline = [young, old] if rng.random() < 0.5 else [old, young]
        paper_id = em.emit(
            byline, f"Joint work {kind} {j}", _macro_source(make_defs(used))
        )
        fights.append(
            {
                "paper_id": paper_id,
                "younger": young,
                "older": old,
                "exp_younger": exp_young,
                "exp_older": exp_old,
                "gap": gap,
                "younger_won": younger_won,
            }
        )
    truth[f"{kind}_fights"] = fights
    truth[f"{kind}_fight_younger_win"] = younger_win


_TITLE_OLDER_COUNTS = (40, 60)  # keep planted profile fractions exact


def _plant_title_fights(cfg: SynthConfig, rng: random.Random, em: _Emitter, truth: dict) -> None:
    def draw_profiles() -> tuple[float, float]:
        while True:
            a = rng.randint(2, 18) * 0.05
            b = rng.randint(2, 18) * 0.05
            if abs(a - b) >= 0.1 - 1e-9:
                return a, b

    def solo_titles(author_tag: str, count: int, fraction: float) -> list[str]:
        positives = round(fraction * count)
        if abs(positives - fraction * count) > 1e-6:
            raise ValueError("profile fraction not representable exactly")
        titles = []
        for i in range(count):
            if i < positives:
                titles.append(f"Findings: series {author_tag} {i}")
            else:
                titles.append(f"Findings in series {author_tag} {i}")
        rng.shuffle(titles)
        return titles

    pairs = []
    for p in range(cfg.n_title_pairs):
        a, b = draw_profiles()
        verdict_high = rng.random() < cfg.title_high_dominance
        # the member whose younger profile is higher carries indicator 0
        # exactly when high experience dominates
        high_py_indicator = 0 if verdict_high else 1
        member_profiles = ((a, b), (b, a))
        indicators = (
            (high_py_indicator, 1 - high_py_indicator)
            if a > b
            else (1 - high_py_indicator, high_py_indicator)
        )
        members = []
        for side in (0, 1):
            p_y, p_o = member_profiles[side]
            indicator = indicators[side]
            young = f"title young {p} {side}"
            old = f"title old {p} {side}"
            n_old = rng.choice(_TITLE_OLDER_COUNTS)
            for title in solo_titles(f"y{p}.{side}", 20, p_y):
                em.emit([young], title, _PLAIN_SOURCE)
            for title in solo_titles(f"o{p}.{side}", n_old, p_o):
                em.emit([old], title, _PLAIN_SOURCE)
            fight_title = (
                f"Findings: collaboration {p}.{side}"
                if indicator
                else f"Findings from collaboration {p}.{side}"
            )
            byline = [young, old] if rng.random() < 0.5 else [old, young]
            paper_id = em.emit(byline, fight_title, _PLAIN_SOURCE)
            members.append(
                {
                    "paper_id": paper_id,
                    "younger": young,
                    "older": old,
                    "exp_younger": 20,
                    "exp_older": n_old,
                    "profile_younger": p_y,
                    "profile_older": p_o,
                    "indicator": indicator,
                }
            )
        pairs.append({"members": members, "high_dominant": verdict_high})
    truth["title_pairs"] = pairs
    truth["title_high_dominance"] = cfg.title_high_dominance
    truth["title_style"] = "colon"


def generate(config: SynthConfig) -> SynthResult:
    """Deterministically expand a config into manifest records + truth."""
    rng = random.Random(config.seed)
    em = _Emitter()
    truth: dict = {
        "preset": config.preset,
        "seed": config.seed,
    }
    if config.preset in ("changeover", "full"):
        _plant_changeovers(config, rng, em, truth)
    if config.preset in ("name-fights", "full"):
        _plant_variant_fights(config, rng, em, truth, kind="name")
    if config.preset in ("body-fights", "full"):
        _plant_variant_fights(config, rng, em, truth, kind="body")
    if config.preset in ("title-fights", "full"):
        _plant_title_fights(config, rng, em, truth)
    truth["n_papers"] = len(em.records)
    return SynthResult(records=em.records, ground_truth=truth)


def write_output(result: SynthResult, outdir: Path | str) -> tuple[Path, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = outdir / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
    truth_path = outdir / "ground_truth.json"
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(result.ground_truth, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
    return manifest, truth_path

