"""Synthetic corpora with planted ground truth.

Each preset emits a manifest of well-formed paper records whose sources
really contain the scheduled macro definitions, plus a ground-truth
JSON describing exactly what was planted (which bodies change names and
where, who wins which fight with what probability, which title styles
appear where).  Everything is driven by one seeded RNG, so a seed fully
determines the output bytes.

Every paper goes through one emitter, which gives it the next id and
date and writes its source by one rule: the preamble, a
``\\def{name}{body}`` line for each definition the paper plants, in
order, and the document text.

Effects are planted at the event level (every fight outcome is an
independent draw), so binomial tolerances apply directly when the
pipeline re-estimates the planted rates.
"""

from __future__ import annotations

import datetime
import functools
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
_FIGHT_YOUNGER_PAPERS = (1, 5)  # a variant fight's younger fighter's papers, drawn uniformly
_FIGHT_GAP = (1, 30)  # how many more papers its older fighter has
_TITLE_YOUNGER_PAPERS = 20
_TITLE_OLDER_COUNTS = (40, 60)  # keep planted profile fractions exact
# the most papers one variant fight or one title pair plants: each fighter's
# papers and their joint paper (on each side of a title pair)
_FIGHT_PAPERS = 2 * _FIGHT_YOUNGER_PAPERS[1] + _FIGHT_GAP[1] + 1
_TITLE_PAIR_PAPERS = 2 * (_TITLE_YOUNGER_PAPERS + max(_TITLE_OLDER_COUNTS) + 1)
_FIRST_DAY = datetime.date(1991, 1, 1).toordinal()
MAX_PAPERS = datetime.date.max.toordinal() - _FIRST_DAY + 1  # one a day, to 9999-12-31


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
        most = {  # the most papers each part of a preset can plant
            "changeover": 2 * sum(map(_changeover_volume, range(self.n_changeover_pairs))),
            "name-fights": _FIGHT_PAPERS * self.n_name_fights,
            "body-fights": _FIGHT_PAPERS * self.n_body_fights,
            "title-fights": _TITLE_PAIR_PAPERS * self.n_title_pairs,
        }
        papers = sum(n for part, n in most.items() if _plants(self.preset, part))
        if papers > MAX_PAPERS:
            raise ValueError(
                f"preset {self.preset!r} with these counts may plant {papers} papers, "
                f"more than the {MAX_PAPERS} that can be dated"
            )


@dataclass
class SynthResult:
    records: list[dict]
    ground_truth: dict


class _Emitter:
    """Allocates ids and strictly increasing exact dates: paper ``n`` is
    ``p{n:07d}``, dated ``n`` days after 1991-01-01."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, authors: list[str], title: str, *defs: tuple[str, str]) -> str:
        n = len(self.records)
        paper_id = f"p{n:07d}"
        self.records.append(
            {
                "id": paper_id,
                "date": datetime.date.fromordinal(_FIRST_DAY + n).isoformat(),
                "authors": authors,
                "title": title,
                "source": _source(defs),
            }
        )
        return paper_id


@functools.cache  # 4 sources per changeover pair and 5 more, for any seed; papers share them
def _source(defs: tuple[tuple[str, str], ...]) -> str:
    lines = "".join(f"\\def{name}{{{body}}}\n" for name, body in defs)
    return f"\\documentclass{{article}}\n{lines}\\begin{{document}}\nText.\n\\end{{document}}"


def _letters(k: int) -> str:
    """``k`` in base 26 with the digits a-z: 0 is ``a``, 26 is ``ba``."""
    return (_letters(k // 26) if k >= 26 else "") + chr(ord("a") + k % 26)


def _plants(preset: str, part: str) -> bool:
    """Whether ``preset`` plants ``part``: the preset named for it and ``full`` do."""
    return preset in (part, "full")


def _changeover_volume(k: int) -> int:
    """The papers of changeover pair ``k``'s changeover body, and of its control."""
    return int(round(BASE_VOLUME * VOLUME_GROWTH**k))


def _plant_changeovers(cfg: SynthConfig, rng: random.Random, em: _Emitter, truth: dict) -> None:
    bodies = []
    for k in range(cfg.n_changeover_pairs):
        m = _changeover_volume(k)
        t_star = rng.choice(SWITCH_FRACTIONS)
        early_size = math.floor(CHANGEOVER_Q * m)
        seed_positions = sorted(rng.sample(range(1, early_size), EARLY_SEED_USES))
        switch_at = math.floor(t_star * m)
        tag = _letters(k)
        old_name, new_name = f"\\old{tag}", f"\\new{tag}"
        body = f"\\symbol{{{k}}}x{{\\value{{{k}}}}}"
        for variant, is_changeover in ((0, True), (1, False)):
            body_v = body if is_changeover else body + "c"
            for i in range(m):
                late = i in seed_positions or (is_changeover and i >= switch_at)
                em.emit(
                    [f"conv author {k} {variant} {i}"],
                    f"Convention study {k}.{variant}.{i}",
                    (new_name if late else old_name, body_v),
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


# kind: (count field, younger-win rate, variant pair, a variant's definition)
_VARIANT_FIGHTS = {
    "name": ("n_name_fights", NAME_FIGHT_YOUNGER_WIN, ("\\realsfield", "\\realsspace"),
             lambda variant: (variant, "\\mathbb{R}^{n}_{+}")),  # 18 chars, past the length filter
    "body": ("n_body_fights", BODY_FIGHT_YOUNGER_WIN, ("\\epsilon", "\\varepsilon"),
             lambda variant: ("\\eps", variant)),
}


def _plant_variant_fights(
    cfg: SynthConfig,
    rng: random.Random,
    em: _Emitter,
    truth: dict,
    *,
    kind: str,
) -> None:
    count, younger_win, (variant_old, variant_new), define = _VARIANT_FIGHTS[kind]
    fights = []
    for j in range(getattr(cfg, count)):
        exp_young = rng.randint(*_FIGHT_YOUNGER_PAPERS)
        gap = rng.randint(*_FIGHT_GAP)
        exp_old = exp_young + gap
        young = f"{kind} fighter young {j}"
        old = f"{kind} fighter old {j}"
        young_variant, old_variant = (
            (variant_old, variant_new) if rng.random() < 0.5 else (variant_new, variant_old)
        )
        # each fighter's first paper defines their variant, the rest nothing
        for author, tag, exp, variant in ((old, "o", exp_old, old_variant),
                                          (young, "y", exp_young, young_variant)):
            em.emit([author], f"Prior work {kind} {tag}{j}.0", define(variant))
            for i in range(1, exp):
                em.emit([author], f"Prior work {kind} {tag}{j}.{i}")
        younger_won = rng.random() < younger_win
        used = young_variant if younger_won else old_variant
        byline = [young, old] if rng.random() < 0.5 else [old, young]
        paper_id = em.emit(byline, f"Joint work {kind} {j}", define(used))
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


def _plant_title_fights(cfg: SynthConfig, rng: random.Random, em: _Emitter, truth: dict) -> None:
    def draw_profiles() -> tuple[float, float]:
        while True:
            a = rng.randint(2, 18) * 0.05
            b = rng.randint(2, 18) * 0.05
            if abs(a - b) >= 0.1 - 1e-9:
                return a, b

    def emit_titles(author: str, tag: str, count: int, fraction: float) -> None:
        """``count`` solo papers, ``fraction`` of them with colon titles, shuffled."""
        positives = round(fraction * count)
        if abs(positives - fraction * count) > 1e-6:
            raise ValueError("profile fraction not representable exactly")
        titles = [
            f"Findings: series {tag} {i}" if i < positives else f"Findings in series {tag} {i}"
            for i in range(count)
        ]
        rng.shuffle(titles)
        for title in titles:
            em.emit([author], title)

    pairs = []
    for p in range(cfg.n_title_pairs):
        a, b = draw_profiles()
        verdict_high = rng.random() < TITLE_HIGH_DOMINANCE
        members = []
        for side, (p_y, p_o) in enumerate(((a, b), (b, a))):
            # the member whose younger profile is higher (the profiles are
            # never equal) carries indicator 0 exactly when high experience dominates
            indicator = int(verdict_high != (p_y > p_o))
            young = f"title young {p} {side}"
            old = f"title old {p} {side}"
            n_old = rng.choice(_TITLE_OLDER_COUNTS)
            emit_titles(young, f"y{p}.{side}", _TITLE_YOUNGER_PAPERS, p_y)
            emit_titles(old, f"o{p}.{side}", n_old, p_o)
            fight_title = (
                f"Findings: collaboration {p}.{side}"
                if indicator
                else f"Findings from collaboration {p}.{side}"
            )
            byline = [young, old] if rng.random() < 0.5 else [old, young]
            paper_id = em.emit(byline, fight_title)
            members.append(
                {
                    "paper_id": paper_id,
                    "younger": young,
                    "older": old,
                    "exp_younger": _TITLE_YOUNGER_PAPERS,
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
    if _plants(config.preset, "changeover"):
        _plant_changeovers(config, rng, em, truth)
    for kind in _VARIANT_FIGHTS:
        if _plants(config.preset, f"{kind}-fights"):
            _plant_variant_fights(config, rng, em, truth, kind=kind)
    if _plants(config.preset, "title-fights"):
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

