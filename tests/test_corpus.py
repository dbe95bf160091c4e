import json
import logging
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolens import corpus
from macrolens.cli import run
from macrolens.corpus import load_corpus, normalize_author, parse_date

import oracles
from conftest import corpus_of, paper
from record_corpus import group_ranks, rank_of


def write_manifest(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(pid, date="2005-06-07", authors=("A. Uthor",), title="T", source="x"):
    return {"id": pid, "date": date, "authors": list(authors), "title": title, "source": source}


class TestLoadCorpus:
    def test_three_valid_records(self, tmp_path):
        m = tmp_path / "m.jsonl"
        write_manifest(m, [record("a"), record("b", "2005-06-08"), record("c", "2005-06-09")])
        res = load_corpus(m)
        assert len(res.corpus) == 3
        assert res.skipped == 0

    def test_malformed_timestamp_skipped(self, tmp_path):
        m = tmp_path / "m.jsonl"
        write_manifest(m, [record("a"), record("b", date="not-a-date"), record("c")])
        res = load_corpus(m)
        assert len(res.corpus) == 2
        assert res.skipped == 1
        assert res.problems

    def test_empty_manifest(self, tmp_path):
        m = tmp_path / "m.jsonl"
        m.write_text("")
        res = load_corpus(m)
        assert len(res.corpus) == 0
        assert res.skipped == 0

    def test_missing_manifest_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_duplicate_id_skipped(self, tmp_path):
        m = tmp_path / "m.jsonl"
        write_manifest(m, [record("a"), record("a")])
        res = load_corpus(m)
        assert len(res.corpus) == 1
        assert res.skipped == 1

    def test_duplicate_authors_rejected(self, tmp_path):
        m = tmp_path / "m.jsonl"
        write_manifest(m, [record("a", authors=["X. Autor", "x.  autor"])])
        res = load_corpus(m)
        assert len(res.corpus) == 0
        assert res.skipped == 1

    def test_bad_records_logged_in_aggregate_only(self, tmp_path, caplog):
        m = tmp_path / "m.jsonl"
        lines = [
            json.dumps(record("a")),
            json.dumps(record("b", date="not-a-date")),
            "{not json",
            json.dumps(record("a")),
            json.dumps(record("c", "2005-06-09")),
        ]
        m.write_text("\n".join(lines) + "\n", encoding="utf-8")
        caplog.set_level(logging.DEBUG)
        res = load_corpus(m)
        assert len(res.problems) == 3
        assert not [
            r for r in caplog.records
            if r.name == "macrolens.corpus" and r.levelno >= logging.WARNING
        ]
        caplog.clear()
        assert run(["extract", "--corpus", str(m), "--out", str(tmp_path / "out")]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["skipped 3 malformed corpus records"]

    def test_source_path_loading(self, tmp_path):
        (tmp_path / "s.tex").write_text("\\def\\x{y}", encoding="utf-8")
        m = tmp_path / "m.jsonl"
        rec = record("a")
        del rec["source"]
        rec["source_path"] = "s.tex"
        write_manifest(m, [rec])
        res = load_corpus(m)
        assert res.corpus.paper(0).source == "\\def\\x{y}"

    def test_line_not_utf8_skipped(self, tmp_path):
        m = tmp_path / "m.jsonl"
        bad = json.dumps(record("b", authors=["X. Autor"])).encode().replace(b"X.", b"\xff.")
        lines = [json.dumps(record("a")).encode(), bad, json.dumps(record("c")).encode()]
        m.write_bytes(b"\n".join(lines) + b"\n")
        res = load_corpus(m)
        assert [p.paper_id for p in res.corpus] == ["a", "c"]
        assert res.skipped == 1
        assert res.problems[0].startswith("m.jsonl:2: skipped record (")
        assert run(["extract", "--corpus", str(m), "--out", str(tmp_path / "out")]) == 0

    def test_records_immutable(self):
        p = paper("a", "2005-06-07", ["x"])
        with pytest.raises(AttributeError):
            p.title = "u"
        with pytest.raises(AttributeError):
            p.date = 20050608


def _without(name, **changes):
    rec = {**record("a"), **changes}
    del rec[name]
    return rec


_WRONG_TYPES = [(5, "int"), (1.5, "float"), (True, "bool"), (None, "NoneType"), (["a"], "list"),
                ({"a": 1}, "dict")]
# One skipped record per line: the record, then its problem text.
_FIELD_PROBLEMS = [
    ([], "record must be a JSON object, not list"),
    ("s", "record must be a JSON object, not str"),
    (1, "record must be a JSON object, not int"),
    (1.5, "record must be a JSON object, not float"),
    (True, "record must be a JSON object, not bool"),
    (None, "record must be a JSON object, not NoneType"),
    (_without("id"), "missing field 'id'"),
    (_without("date"), "missing field 'date'"),
    (_without("authors"), "missing field 'authors'"),
    (_without("source"), "record has neither source nor source_path"),
    ({**record("a"), "id": ""}, "field 'id' is empty"),
    ({**record("a"), "authors": []}, "field 'authors' is empty"),
] + [
    (record("a", date), f"date {date!r} is not on the calendar ({why})")
    for date, why in [("2005-02-30", "day is out of range for month"),
                      ("0000-01", "year 0 is out of range"),
                      ("2005-13", "month must be in 1..12")]
] + [
    ({**record("a"), name: value}, f"field {name!r} must be {expected}, not {kind}")
    for name, expected, wrong in [
        ("id", "a string", _WRONG_TYPES),
        ("date", "a string", _WRONG_TYPES),
        ("authors", "a list", [("A. B.", "str")] + [w for w in _WRONG_TYPES if w[1] != "list"]),
        ("title", "a string", _WRONG_TYPES),
        ("source", "a string", _WRONG_TYPES),
    ]
    for value, kind in wrong
] + [
    (_without("source", source_path=value), f"field 'source_path' must be a string, not {kind}")
    for value, kind in _WRONG_TYPES
] + [
    # every item is checked for its type before any is read as a name
    (record("a", authors=["A. B.", value]), f"field 'authors' item must be a string, not {kind}")
    for value, kind in [(5, "int"), (0, "int"), (1.5, "float"), (False, "bool"), (None, "NoneType"),
                        (["A"], "list"), ({"a": 1}, "dict")]
] + [
    (record("a", authors=["", 5]), "field 'authors' item must be a string, not int"),
    (record("a", authors=["", "B"]), "author string is empty"),
    # combining marks only fold to nothing, as a blank string does
    (record("a", authors=["A. B.", "\u0301\u0308"]), "author string is empty"),
]


class TestProblemText:
    """A skipped record's problem line names the field at fault and the
    type it holds; the oracle loader writes the same lines."""

    def test_each_field_and_type(self, tmp_path):
        m = tmp_path / "m.jsonl"
        write_manifest(m, [rec for rec, _ in _FIELD_PROBLEMS] + [record("ok")])
        res = load_corpus(m)
        assert [p.paper_id for p in res.corpus] == ["ok"]
        assert res.problems == [
            f"m.jsonl:{n}: skipped record ({problem})"
            for n, (_, problem) in enumerate(_FIELD_PROBLEMS, start=1)
        ]
        assert oracles.oracle_load_corpus(m)[3] == res.problems


class TestDecodeFastPath:
    """Only a line the C scanner rejects as a whole goes to ``json.loads``."""

    @staticmethod
    def load_counting(monkeypatch, path):
        real = corpus.json.loads
        calls = []

        def counted(s, *args, **kwargs):
            calls.append(s)
            return real(s, *args, **kwargs)

        monkeypatch.setattr(corpus.json, "loads", counted)
        return load_corpus(path), calls

    def test_clean_manifest_never_falls_back(self, tmp_path, monkeypatch):
        m = tmp_path / "m.jsonl"
        recs = [record(f"p{i}", f"2005-06-{i + 1:02d}") for i in range(5)]
        recs.append(record("u", title="Über \u2028 zeta", source="\u0085"))
        lines = [json.dumps(r) for r in recs] + [json.dumps(recs[-1] | {"id": "v"}, ensure_ascii=False)]
        m.write_text("\n".join(lines) + " \t\n", encoding="utf-8")
        res, calls = self.load_counting(monkeypatch, m)
        assert (len(res.corpus), res.skipped, calls) == (7, 0, [])

    def test_one_call_per_rejected_line(self, tmp_path, monkeypatch):
        good = [json.dumps(record(f"p{i}")) for i in range(8)]
        accepted = [good[0], good[1] + " \t", "[]", '{"id": 1}']
        rejected = [" " + good[2], "\t" + good[3], "\ufeff" + good[4], good[5] + " x",
                    good[6] + "\x1c", good[7][:-3], "{}{}", "nul"]
        m = tmp_path / "m.jsonl"
        m.write_text("\n".join(accepted + rejected) + "\n", encoding="utf-8")
        res, calls = self.load_counting(monkeypatch, m)
        assert calls == [line + "\n" for line in rejected]
        assert sorted(p.paper_id for p in res.corpus) == ["p0", "p1", "p2", "p3"]
        assert res.skipped == 8


class TestNormalizeAuthor:
    def test_case_fold(self):
        assert normalize_author("M. A. Luty") == "m. a. luty"

    def test_whitespace_collapse(self):
        assert normalize_author("  Schmaltz,   M.") == "schmaltz, m."

    def test_diacritics_stripped(self):
        # independent check via the unicode decomposition table: both
        # accented letters decompose to an ascii base plus marks
        for ch, base in (("Ü", "U"), ("å", "a")):
            decomp = unicodedata.normalize("NFKD", ch)
            assert decomp[0].upper() == base.upper()
            assert all(unicodedata.combining(c) for c in decomp[1:])
        assert normalize_author("Ürånga") == "uranga"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_author("   ")

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    @settings(max_examples=300)
    def test_idempotent(self, raw):
        try:
            once = normalize_author(raw)
        except ValueError as exc:  # whitespace and combining marks only
            assert str(exc) == "author string is empty"
            with pytest.raises(ValueError, match=str(exc)):
                oracles.oracle_normalize_author(raw)
            return
        assert once and normalize_author(once) == once

    @given(st.text(alphabet="aBcD éÉ.,-", min_size=1).filter(lambda s: s.strip()))
    def test_case_and_space_insensitive(self, raw):
        doubled = "  " + raw.upper() + " "
        assert normalize_author(raw) == normalize_author(doubled)


class TestNormalizeAuthorAgainstOracle:
    """The ASCII path agrees with the full Unicode chain in ``oracles``."""

    @staticmethod
    def check(raw):
        try:
            expected = oracles.oracle_normalize_author(raw)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                normalize_author(raw)
        else:
            assert normalize_author(raw) == expected, repr(raw)

    def test_every_ascii_code_point(self):
        for c in map(chr, range(128)):
            self.check(c)
            self.check(f"Ab{c}Cd")
            self.check(f" M.{c}{c}Luty ")

    def test_random_ascii_strings(self):
        # ``str.split`` also splits at \x0b, \x0c and \x1c-\x1f
        alphabet = "aZ.-, \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x00\x7f'"
        rng = random.Random(6)
        for _ in range(5000):
            self.check("".join(rng.choices(alphabet, k=rng.randint(1, 12))))

    def test_non_ascii_names(self):
        for raw in ("Ürånga", "STRAßE", "ﬁrst Ǆ", "Łukasz\u2003Nowak", "É\u0301cole", "Ａｂｃ", "x\u00a0y",
                    "\u0301", " \u0308\u2003\u0301 "):
            self.check(raw)


class TestTemporalOrder:
    def test_month_buckets_ordered(self):
        c = corpus_of(paper("late", "1996-05", ["a"]), paper("early", "1996-03", ["a b"]))
        assert [p.paper_id for p in c] == ["early", "late"]
        assert rank_of(c, "early") < rank_of(c, "late")

    def test_same_month_share_tie_group(self):
        c = corpus_of(paper("x", "1998-05", ["a"]), paper("y", "1998-05", ["b"]))
        assert rank_of(c, "x") == rank_of(c, "y")

    def test_exact_dates_distinct_groups(self):
        c = corpus_of(paper("x", "2015-09-01", ["a"]), paper("y", "2015-09-02", ["b"]))
        assert rank_of(c, "x") < rank_of(c, "y")

    def test_same_exact_day_still_singleton_groups(self):
        c = corpus_of(paper("x", "2015-09-01", ["a"]), paper("y", "2015-09-01", ["b"]))
        assert rank_of(c, "x") != rank_of(c, "y")

    def test_total_preorder(self):
        papers = [
            paper("a", "1996-03", ["a"]),
            paper("b", "1996-03", ["b"]),
            paper("c", "1996-03-15", ["c"]),
            paper("d", "1997-01", ["d"]),
            paper("e", "1997-01-02", ["e"]),
        ]
        c = corpus_of(*papers)
        ranks = [rank_of(c, p.paper_id) for p in c]
        assert ranks == sorted(ranks)  # comparable and consistent
        # ranks are dense from 0
        assert sorted(set(ranks)) == list(range(len(set(ranks))))

    def test_iteration_in_rank_then_id_order(self):
        # timelines rely on this order to keep each body's occurrences
        # sorted; month-granular and exact dates share the same months
        rng = random.Random(12)
        for _ in range(300):
            papers = []
            for i in range(rng.randint(1, 40)):
                day = rng.choice((None, None, 1, 2, 15, 28))
                date = f"2001-0{rng.randint(1, 3)}" + (f"-{day:02d}" if day else "")
                papers.append(paper(f"p{rng.randrange(1000):03d}-{i}", date, ["a"]))
            rng.shuffle(papers)
            c = corpus_of(*papers)
            keys = [(rank_of(c, p.paper_id), p.paper_id) for p in c]
            assert keys == sorted(keys)

    def test_duplicate_paper_id_rejected(self):
        with pytest.raises(ValueError):
            corpus_of(paper("x", "2000-01", ["a"]), paper("x", "2000-02", ["b"]))

    def test_bad_date_strings(self):
        for bad in (
            "1999", "1999-13", "1999-02-30", "99-01-01x",
            # ``int`` accepts each of these parts; the manifest format does not
            "20_05-06-07", "+2005-06-07", "\u0662\u0660\u0660\u0665-06-07", "2005- 6-07",
            "2005-6-07", "2005-06-7", "2005-06-07-01", "2005-06-07\n1",
            # day 0 marks a month-granular date inside the int, never in a manifest
            "2005-06-00", "2005-00",
        ):
            with pytest.raises(ValueError):
                parse_date(bad)

    def test_good_date_strings(self):
        assert parse_date(" 2005-06-07\n") == 20050607
        assert parse_date("2005-06") == 20050600


class TestLoaderAgainstOracle:
    """Papers, ranks, skip count and problem lines equal the former
    loader's (``oracles.oracle_load_corpus``) on seeded damaged manifests."""

    DATES = ("1996-03", "1996-03-02", "1996-03-15", "1996-04", "1997-01", "1997-01-02")
    AUTHORS = ("M. A. Luty", "M. Schmaltz", "Ürånga", "x\u00a0y", "A. B.", "STRAßE", "Q")
    LINE_ENDS = ("\n", "\r\n", "\r")

    def good(self, rng, pid):
        return {
            "id": pid,
            "date": rng.choice(self.DATES),
            "authors": rng.sample(self.AUTHORS, rng.randint(1, 3)),
            "title": rng.choice(("", "A study", "Über alles")),
            "source": rng.choice(("", "\\def\\x{y}", "text\n\\newcommand{\\a}{b}")),
        }

    def kinds(self, rng, pid, used_ids):
        """Kind name -> one manifest line for it (no line terminator)."""
        rec = self.good(rng, pid)
        text = json.dumps(rec, ensure_ascii=rng.random() < 0.5)
        other = json.dumps(self.good(rng, pid + "x"))

        def variant(**fields):
            return json.dumps({**rec, **fields})

        def without(*keys, **fields):
            return json.dumps({k: v for k, v in {**rec, **fields}.items() if k not in keys})

        pad = ("\t", "\r", " ", " \t")
        return {
            "good": text,
            "truncated": text[: rng.randrange(1, len(text))],
            "trailing word": text + rng.choice((" x", "x", " 1")),
            "two objects": text + rng.choice(("", " ")) + other,
            "padded": rng.choice(pad + ("",)) + text + rng.choice(pad),
            "bom": "\ufeff" + text,
            "non-object": rng.choice(("[]", '"s"', "1", "null", "[1, 2]")),
            "blank": rng.choice(("\x1c", " ", "\x1c \t", "\u0085", "")),
            "separators in strings": json.dumps(
                {**rec, "title": "a\u2028b", "source": "c\u0085d\u2029"}, ensure_ascii=False
            ),
            "non-string date": variant(date=rng.choice((2005, None, ["1996-03"], 1996.03))),
            "odd date": variant(date=rng.choice(("1996-3-02", "1996-03-2", " 1996-03-02 ", "1996-03\n"))),
            "off-calendar date": variant(date=rng.choice(("2005-02-30", "2005-13", "2005-00", "0000-01-01", "2005-06-00"))),
            "empty byline": variant(authors=rng.choice(([], [""], ["  "]))),
            # with a later field bad too: the byline check comes last
            "duplicate byline": rng.choice((
                variant(authors=["A. B.", "a.  b."]),
                variant(authors=["A. B.", "a.  b."], title=5),
                without("source", authors=["Q", "q"]),
            )),
            "non-list byline": variant(authors=rng.choice(("A. B.", {"a": 1}, [1]))),
            "duplicate id": variant(id=rng.choice(sorted(used_ids)) if used_ids else pid),
            "bad id": rng.choice((without("id"), variant(id=""), variant(id=5))),
            "source_path": without("source", source_path="s.tex"),
            "missing source_path": without("source", source_path="absent.tex"),
            "both sources": variant(source_path=rng.choice(("s.tex", "absent.tex"))),
            "no source": without("source"),
            "bad title or source": rng.choice((variant(title=5), variant(source=None))),
            "deep nesting": '{"id": ' + "[" * 3000 + "]" * 3000 + "}",
        }

    def manifest(self, rng, path):
        names = list(self.kinds(rng, "p", set()))
        order = names + rng.choices(names, k=40)
        order += ["good"] * 20
        rng.shuffle(order)
        used_ids: set[str] = set()
        parts = []
        for n, kind in enumerate(order):
            pid = f"p{n:03d}"
            parts.append(self.kinds(rng, pid, used_ids)[kind])
            parts.append(rng.choice(self.LINE_ENDS))
            used_ids.add(pid)
        if rng.random() < 0.5:
            parts.pop()  # last line without a terminator
        path.write_bytes("".join(parts).encode("utf-8"))
        return set(order) | set(parts[1::2])

    def test_seeded_damaged_manifests(self, tmp_path):
        (tmp_path / "s.tex").write_text("\\def\\s{t}", encoding="utf-8")
        seen_kinds = set()
        loaded = skipped = 0
        for seed in range(30):
            rng = random.Random(seed)
            m = tmp_path / f"m{seed}.jsonl"
            seen_kinds.update(self.manifest(rng, m))
            res = load_corpus(m)
            got = (
                [(p.paper_id, (p.date // 10000, p.date // 100 % 100, p.date % 100 or None),
                  p.authors, p.title, p.source) for p in res.corpus],
                group_ranks(res.corpus),
                res.skipped,
                res.problems,
            )
            assert got == oracles.oracle_load_corpus(m), seed
            loaded += len(res.corpus)
            skipped += res.skipped
        assert seen_kinds == set(self.kinds(random.Random(0), "p", set())) | set(self.LINE_ENDS)
        assert loaded > 0 and skipped > 0
