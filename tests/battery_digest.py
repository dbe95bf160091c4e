"""Digest of the whole CLI battery's output tree, for byte-identity checks.

Runs every corpus subcommand with default arguments on each manifest, in
both ``--format csv`` and ``--format json``, then ``predict`` on the name
and the body fight feature CSVs, and prints one ``sha256  relative/path``
line per output file plus one ``exit N  relative/dir`` line per command.
Two source trees produce the same outputs exactly when the printed lines
are identical.

Usage (not collected by pytest)::

    PYTHONPATH=src python3 tests/battery_digest.py MANIFEST [MANIFEST ...]
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
import tempfile
from pathlib import Path

from macrolens import cli

CORPUS_COMMANDS = (
    ("extract",),
    ("timelines",),
    ("changeovers",),
    ("matched-pairs",),
    ("curves",),
    ("fights", "name"),
    ("fights", "body"),
    ("fights", "title"),
    ("report",),
)

FEATURE_TABLES = (
    ("predict-name", ("fights-name", "name_fight_features.csv")),
    ("predict-body", ("fights-body", "body_fight_features.csv")),
)


def _run(argv: list[str]) -> int:
    try:
        return cli.run(argv)
    except SystemExit as exc:  # argparse and cli.run report errors this way
        return exc.code if isinstance(exc.code, int) else 1


def run_battery(manifests: list[Path], root: Path) -> list[str]:
    """Run the battery into ``root`` and return the exit-status lines."""
    status = []
    for i, manifest in enumerate(manifests):
        for fmt in ("csv", "json"):
            base = root / f"m{i}" / fmt
            for command in CORPUS_COMMANDS:
                out = base / "-".join(command)
                code = _run([*command, "--corpus", str(manifest), "--out", str(out),
                             "--format", fmt])
                status.append(f"exit {code}  {out.relative_to(root).as_posix()}")
            for label, (subdir, table) in FEATURE_TABLES:
                features = root / f"m{i}" / "csv" / subdir / table
                if not features.is_file():
                    status.append(f"absent  {features.relative_to(root).as_posix()}")
                    continue
                out = base / label
                code = _run(["predict", "--features", str(features), "--out", str(out),
                             "--format", fmt])
                status.append(f"exit {code}  {out.relative_to(root).as_posix()}")
    return status


def digest_lines(root: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
        for path in sorted(p for p in root.rglob("*") if p.is_file())
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifests", nargs="+", type=Path)
    args = parser.parse_args(argv)
    manifests = [m.resolve() for m in args.manifests]
    logging.disable(logging.CRITICAL)  # warnings are not outputs
    with tempfile.TemporaryDirectory(prefix="battery-digest-") as tmp:
        root = Path(tmp)
        lines = run_battery(manifests, root) + digest_lines(root)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
