"""Seeded workload generators for the macrolens benchmark.

Each workload is a corpus manifest built from one seed plus the facts
planted in it (fight paper ids, changeover bodies, definition and skip
counts), so the battery's outputs can be checked against exact numbers.

* ``fight-graph``: synth ``full`` with name and body fights only.
* ``title-ledger``: synth ``full`` with changeover and title pairs only.
* ``latex-heavy``: synth ``changeover`` with every source padded to a
  realistic preamble and body, about 1% of papers damaged with
  unbalanced ``\\def`` lines, and a few malformed manifest records.

Only ``macrolens.synth`` is used here; everything the padding plants is
counted by this module itself, not by the extraction code under test.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path
from time import perf_counter

SYNTH_CONFIGS = {
    "fight-graph": dict(
        preset="full", n_changeover_pairs=0, n_title_pairs=0, n_name_fights=150, n_body_fights=90
    ),
    "title-ledger": dict(
        preset="full", n_changeover_pairs=12, n_title_pairs=150, n_name_fights=0, n_body_fights=0
    ),
    "latex-heavy": dict(preset="changeover", n_changeover_pairs=4),
}

# One closed-loop client runs these commands back to back.  "{out}" is
# the battery's output root; each command writes to its own subdirectory
# and corpus commands also get --corpus.
BATTERIES = {
    "fight-graph": (
        ("fights", "name"),
        ("fights", "body"),
        ("predict", "--features", "{out}/fights-name/name_fight_features.csv"),
    ),
    "title-ledger": (("fights", "title"), ("matched-pairs",), ("curves",)),
    "latex-heavy": (("extract",), ("changeovers",), ("report",)),
}


def label(command: tuple[str, ...]) -> str:
    """A battery command's name in metrics and output paths: ``fights-name``."""
    return "-".join(command[:2]) if command[0] == "fights" else command[0]


DAMAGED_SHARE = 0.01
DAMAGED_LINES = 150
MALFORMED_RECORDS = (4, 8)
NEWCOMMANDS_PER_PAPER = (20, 60)
PARAM_DEFS_PER_PAPER = (5, 15)
TEXT_CHARS = (600, 2000)
DAMAGED_TEXT_CHARS = 1300  # fixed, so the damaged path costs the same for every seed

_GREEK = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi pi rho "
    "sigma tau phi chi psi omega"
).split()
# (name prefix, body template) for the parameterless vocabulary
_STYLES = (
    ("bb", "\\mathbb{{{0}}}"),
    ("cal", "\\mathcal{{{0}}}"),
    ("bf", "\\mathbf{{{0}}}"),
    ("rm", "\\mathrm{{{0}}}"),
    ("frak", "\\mathfrak{{{0}}}"),
    ("ol", "\\overline{{\\mathcal{{{0}}}}}"),
    ("wt", "\\widetilde{{\\mathbf{{{0}}}}}"),
    ("it", "\\mathit{{{0}}}"),
    ("sf", "\\mathsf{{{0}}}"),
)
_GREEK_STYLES = (
    ("bs", "\\boldsymbol{{\\{0}}}"),
    ("hat", "\\hat{{\\{0}}}"),
    ("vb", "\\bar{{\\{0}}}_{{\\mathrm{{eff}}}}"),
)
# parameterised bodies: (name stem, signature kind, body)
_PARAM_BODIES = (
    ("abs", 1, "\\left| #1 \\right|"),
    ("norm", 1, "\\left\\| #1 \\right\\|"),
    ("set", 1, "\\left\\{ #1 \\right\\}"),
    ("inner", 2, "\\langle #1, #2 \\rangle"),
    ("pd", 2, "\\frac{\\partial #1}{\\partial #2}"),
    ("dd", 2, "\\frac{d #1}{d #2}"),
    ("expect", 1, "\\mathbb{E}\\left[ #1 \\right]"),
    ("prob", 1, "\\Pr\\left( #1 \\right)"),
    ("floor", 1, "\\left\\lfloor #1 \\right\\rfloor"),
    ("ceil", 1, "\\left\\lceil #1 \\right\\rceil"),
    ("comm", 2, "\\left[ #1, #2 \\right]"),
    ("bra", 1, "\\left\\langle #1 \\right|"),
    ("ket", 1, "\\left| #1 \\right\\rangle"),
    ("braket", 2, "\\left\\langle #1 \\middle| #2 \\right\\rangle"),
    ("tr", 1, "\\operatorname{tr}\\left( #1 \\right)"),
    ("vecof", 1, "\\mathrm{vec}\\{ #1 \\}"),
    ("order", 1, "\\mathcal{O}\\left( #1 \\right)"),
    ("diag", 1, "\\operatorname{diag}\\left( #1 \\right)"),
    ("cond", 2, "#1 \\,\\middle|\\, #2"),
    ("restr", 2, "\\left. #1 \\right|_{#2}"),
)
_WORDS = (
    "we show that the bound holds for every admissible choice of parameters and the "
    "estimate follows from the previous lemma together with a standard compactness "
    "argument in the sense of distributions where the constant depends only on the "
    "dimension and the regularity of the boundary thus the claim is proved"
).split()
_INLINE = (
    "$\\alpha \\in \\mathbb{{R}}$", "$\\{{x_i\\}}_{{i=1}}^{{{0}}}$", "\\cite{{ref{0}}}",
    "\\ref{{eq:{0}}}", "\\emph{{{1}}}", "$\\sum_{{k=1}}^{{{0}}} a_k \\leq C$",
    "{0}\\%", "\\textbf{{{1}}}", "$\\mathcal{{O}}(n^{{{0}}})$", "$f \\colon X \\to Y$",
    "\\S{0}", "$\\| u \\|_{{L^{{{0}}}}}$", "\\footnote{{{1} {1}}}", "$\\{{ {1} \\}}$",
)


def _names(rng: random.Random, stem: str, taken: set[str]) -> list[str]:
    """One to three synonymous macro names for a body, globally unique."""
    out = []
    for _ in range(rng.randint(1, 3)):
        while True:
            suffix = "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(0, 2)))
            name = f"\\{stem}{suffix}"
            if name not in taken and not name[1:].startswith(("old", "new", "broken")):
                taken.add(name)
                out.append(name)
                break
    return out


def vocabulary(rng: random.Random) -> tuple[list, list]:
    """300 parameterless bodies and 20 parameterised ones, each with a
    preference-ordered list of synonymous names."""
    taken: set[str] = set()
    plain = []
    for prefix, template in _STYLES:
        for letter in string.ascii_uppercase:
            plain.append((template.format(letter), _names(rng, prefix + letter, taken)))
    for prefix, template in _GREEK_STYLES:
        for letter in _GREEK:
            plain.append((template.format(letter), _names(rng, prefix + letter, taken)))
    params = [(stem, k, body, _names(rng, stem, taken)) for stem, k, body in _PARAM_BODIES]
    return plain, params


def _pick(rng: random.Random, names: list[str]) -> str:
    """Skewed choice: earlier synonyms are more popular."""
    return names[min(int(rng.expovariate(1.2)), len(names) - 1)]


def _text(rng: random.Random, target: int) -> list[str]:
    lines, size = [], 0
    while size < target:
        words = []
        for _ in range(rng.randint(8, 20)):
            if rng.random() < 0.35:
                words.append(rng.choice(_INLINE).format(rng.randint(1, 99), rng.choice(_WORDS)))
            else:
                words.append(rng.choice(_WORDS))
        line = " ".join(words) + "."
        if rng.random() < 0.15:
            line += f" % TODO: check {{ this }} against ref{rng.randint(1, 50)}"
        lines.append(line)
        size += len(line) + 1
    return lines


def padded_source(rng: random.Random, base: str, plain, params, damaged_lines: int) -> tuple[str, int]:
    """Wrap a synth source's preamble line with padding; returns the new
    source and the number of definitions the padding adds."""
    head, _, rest = base.partition("\\begin{document}")
    pre = ["\\usepackage{amsmath,amssymb}", "% macros"]
    defs = 0
    for body, names in rng.sample(plain, rng.randint(*NEWCOMMANDS_PER_PAPER)):
        star = "*" if rng.random() < 0.1 else ""
        cmd = "renewcommand" if rng.random() < 0.03 else "newcommand"
        pre.append(f"\\{cmd}{star}{{{_pick(rng, names)}}}{{{body}}}")
        defs += 1
        if rng.random() < 0.05:
            pre.append(f"%\\newcommand{{{_pick(rng, names)}x}}{{{body}}}")
    for stem, k, body, names in rng.sample(params, rng.randint(*PARAM_DEFS_PER_PAPER)):
        name = _pick(rng, names)
        if rng.random() < 0.5:
            pre.append(f"\\def{name}{''.join(f'#{i + 1}' for i in range(k))}{{{body}}}")
        elif k == 1 and rng.random() < 0.3:
            pre.append(f"\\newcommand{{{name}}}[1][x]{{{body}}}")
        else:
            pre.append(f"\\newcommand{{{name}}}[{k}]{{{body}}}")
        defs += 1
    for i in range(damaged_lines):
        pre.append(f"\\def\\broken{_letters(i)}{{\\mathbf{{x}}_{{{i}}}")
    body = ["\\begin{document}", "\\section{Introduction}"]
    body += _text(rng, DAMAGED_TEXT_CHARS if damaged_lines else rng.randint(*TEXT_CHARS))
    return "\n".join([head.rstrip("\n"), *pre, *body]) + rest, defs


def _letters(k: int) -> str:
    out = ""
    while True:
        out = chr(ord("a") + k % 26) + out
        k //= 26
        if k == 0:
            return out


def _malformed(rng: random.Random, records: list[dict]) -> list[tuple[int, str]]:
    """(insert position, manifest line) for records the loader must skip."""
    out = []
    for j in range(rng.randint(*MALFORMED_RECORDS)):
        kind = j % 5
        pos = rng.randrange(1, len(records))
        rec = {"id": f"bad{j:03d}", "date": "1995-06-01", "authors": ["m. alformed"],
               "title": "Damaged record", "source": "\\def\\bbR{\\mathbb{R}}"}
        if kind == 0:
            line = json.dumps(rec)[: 20 + j]  # truncated JSON
        else:
            if kind == 1:
                rec["date"] = "1995-13"
            elif kind == 2:
                rec["authors"] = []
            elif kind == 3:
                rec["id"] = records[pos - 1]["id"]  # duplicate of an earlier id
            else:
                del rec["source"]
            line = json.dumps(rec, sort_keys=True)
        out.append((pos, line))
    return out


def generate(workload: str, seed: int) -> tuple[list[str], dict]:
    """Manifest lines and planted facts for one workload and seed."""
    from macrolens import synth

    t0 = perf_counter()
    result = synth.generate(synth.SynthConfig(seed=seed, **SYNTH_CONFIGS[workload]))
    synth_s = perf_counter() - t0
    records, truth = result.records, result.ground_truth
    planted = {
        "papers": len(records),
        "name_fights": sorted(f["paper_id"] for f in truth.get("name_fights", [])),
        "body_fights": sorted(f["paper_id"] for f in truth.get("body_fights", [])),
        "title_fights": sorted(
            m["paper_id"] for p in truth.get("title_pairs", []) for m in p["members"]
        ),
        "title_pairs": len(truth.get("title_pairs", [])),
        "changeovers": [
            {"body": b["body"], "early_name": b["early_name"], "late_name": b["late_name"]}
            for b in truth.get("changeover_bodies", []) if b["changeover"]
        ],
        # synth writes each planted definition as one \def line
        "definitions": sum(r["source"].count("\\def") for r in records),
        "skipped_definitions": 0,
        "skipped_records": 0,
        "damaged_ids": [],
        "synth_s": synth_s,
    }
    malformed = []
    if workload == "latex-heavy":
        rng = random.Random(f"latex-heavy/{seed}")
        plain, params = vocabulary(rng)
        damaged = set(rng.sample(range(len(records)), max(1, round(DAMAGED_SHARE * len(records)))))
        for i, rec in enumerate(records):
            lines = DAMAGED_LINES if i in damaged else 0
            rec["source"], added = padded_source(rng, rec["source"], plain, params, lines)
            planted["definitions"] += added
            planted["skipped_definitions"] += lines
        planted["damaged_ids"] = sorted(records[i]["id"] for i in damaged)
        malformed = _malformed(rng, records)
        planted["skipped_records"] = len(malformed)
    planted["source_chars"] = sum(len(r["source"]) for r in records)
    lines = [json.dumps(r, sort_keys=True, ensure_ascii=False) for r in records]
    for pos, line in sorted(malformed, key=lambda pl: -pl[0]):
        lines.insert(pos, line)
    return lines, planted


def write(workload: str, seed: int, directory: Path) -> dict:
    """Write ``manifest.jsonl`` and ``planted.json`` under ``directory``."""
    lines, planted = generate(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / "planted.json").write_text(json.dumps(planted), encoding="utf-8")
    return planted
