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


# Planted schedule; tests/test_synth.py checks it against the detection
# code's parameters, which synth does not import.
BASE_VOLUME = 100  # at least the changeover volume floor s
VOLUME_GROWTH = 1.12  # keeps volumes apart by more than the matching ratio band
EARLY_SEED_USES = 3  # late-name occurrences planted in the early window
SWITCH_FRACTIONS = (0.35, 0.5, 0.65)  # each inside [q, 1 - q]
NAME_FIGHT_YOUNGER_WIN = 0.7
BODY_FIGHT_YOUNGER_WIN = 0.6
TITLE_HIGH_DOMINANCE = 0.57
CHANGEOVER_S = 100  # the detection parameters the changeovers are planted for
CHANGEOVER_Q = 0.3
MAX_CHANGEOVER_RECORDS = 1_000_000  # about the paper's 583k papers with macros
# the most pairs whose records, 2 * BASE_VOLUME * (VOLUME_GROWTH**n - 1) /
# (VOLUME_GROWTH - 1) for n pairs before rounding, stay within that bound
MAX_CHANGEOVER_PAIRS = int(
    math.log1p(MAX_CHANGEOVER_RECORDS * (VOLUME_GROWTH - 1) / (2 * BASE_VOLUME))
    / math.log(VOLUME_GROWTH)
)


@dataclass
class SynthConfig:
    seed: int = 0
    preset: str = "full"
    n_changeover_pairs: int = 12  # matched changeover/control body pairs
    n_name_fights: int = 200  # invisible name fights
    n_body_fights: int = 120  # low-visibility body fights
    n_title_pairs: int = 100  # visible title fights (swap-matched pairs)

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        for count in ("n_changeover_pairs", "n_name_fights", "n_body_fights", "n_title_pairs"):
            if getattr(self, count) < 0:
                raise ValueError(f"{count} must be at least 0")
        if self.n_changeover_pairs > MAX_CHANGEOVER_PAIRS:
            raise ValueError(
                f"n_changeover_pairs {self.n_changeover_pairs} plants more than "
                f"{MAX_CHANGEOVER_RECORDS} changeover records (at most {MAX_CHANGEOVER_PAIRS} pairs)"
            )


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
        m = int(round(BASE_VOLUME * VOLUME_GROWTH**k))
        t_star = rng.choice(SWITCH_FRACTIONS)
        early_size = math.floor(CHANGEOVER_Q * m)
        seed_positions = sorted(rng.sample(range(1, early_size), EARLY_SEED_USES))
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
    truth["changeover_params"] = {"s": CHANGEOVER_S, "q": CHANGEOVER_Q}


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
        younger_win = NAME_FIGHT_YOUNGER_WIN
        shared_body = "\\mathbb{R}^{n}_{+}"  # 18 chars, clears the length filter
        variant_old, variant_new = "\\realsfield", "\\realsspace"

        def make_defs(variant: str) -> list[tuple[str, str]]:
            return [(variant, shared_body)]

    else:
        n_fights = cfg.n_body_fights
        younger_win = BODY_FIGHT_YOUNGER_WIN
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
        verdict_high = rng.random() < TITLE_HIGH_DOMINANCE
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
    truth["title_high_dominance"] = TITLE_HIGH_DOMINANCE
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

