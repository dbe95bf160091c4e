"""``macrolens timelines`` and ``report``'s summary equal the relational
oracle's tables (``sql_oracle.py``) on the golden manifest and on the
battery's synthetic corpus; reversing either of the oracle's rules makes
the golden manifest disagree, so the comparison can see each rule."""

import csv
import hashlib
from pathlib import Path

import pytest

import sql_oracle
from macrolens import cli, synth
from test_battery_digest import SYNTH

GOLDEN = Path(__file__).parent / "data" / "golden" / "manifest.jsonl"


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    manifest, _ = synth.write_output(synth.generate(SYNTH), tmp_path_factory.mktemp("synth"))
    return {"golden": GOLDEN, "synth": manifest}


def table(command: str, manifest: Path, name: str, out: Path) -> list[list[str]]:
    assert cli.run([command, "--corpus", str(manifest), "--out", str(out)]) == 0
    with open(out / f"{name}.csv", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def timeline_rows(rows) -> list[list[str]]:
    return [[hashlib.sha1(f"{signature}\x1f{body}".encode()).hexdigest(), str(m), str(names),
             str(authors)] for signature, body, m, names, authors in rows]


@pytest.mark.parametrize("corpus", ["golden", "synth"])
def test_timelines_and_summary_equal_the_oracle(corpus, manifests, tmp_path):
    manifest = manifests[corpus]
    db = sql_oracle.load(manifest)
    expected = timeline_rows(sql_oracle.timelines(db))
    assert len(expected) > 5
    assert table("timelines", manifest, "timelines", tmp_path / "timelines") == expected
    summary = [[metric, repr(v) if isinstance(v, float) else str(v)]
               for metric, v in sql_oracle.summary(db)]
    assert table("report", manifest, "summary", tmp_path / "report") == summary


@pytest.mark.parametrize("reversed_rule", [{"last_name": False}, {"earliest_body": False}])
def test_a_reversed_rule_disagrees_on_the_golden_manifest(reversed_rule, tmp_path):
    written = table("timelines", GOLDEN, "timelines", tmp_path)
    db = sql_oracle.load(GOLDEN)
    assert timeline_rows(sql_oracle.timelines(db)) == written
    assert timeline_rows(sql_oracle.timelines(db, **reversed_rule)) != written
