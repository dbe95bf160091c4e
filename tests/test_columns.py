"""The column-backed corpus, ledger, co-author index and title fights give
what the record-based ones in ``record_corpus.py`` give.

Each seeded corpus is dense in month tie groups, mixes one-author and
many-author papers, has authors with hundreds of papers and untitled
papers, and holds non-ASCII and lone-surrogate ids, titles and names.  It
is compared as ``Corpus.from_papers`` builds it, as a corpus store hit reads
it and as the loader reads it when no store can be used.
"""

import json
import random

import pytest

from macrolens import store
from macrolens.corpus import Corpus, Paper, normalize_author
from macrolens.fights import STYLE_NAMES, TitleFightFilters, detect_title_fights
from macrolens.store import open_corpus
from macrolens.timelines import CoauthorIndex, ExperienceLedger
from oracles import former_coauthor_neighbours
from record_corpus import (
    RecordCoauthorIndex,
    RecordCorpus,
    RecordLedger,
    group_ranks,
    rank_of,
    record_detect_title_fights,
)

_NAMES = ["Ana Lópes", "Zoë Ŧ", "x\ud800y", "李 雷", "Ⅻ King", "\udcff", "Ōno"] + [
    f"Author {k}" for k in range(40)
]
_TITLES = [
    "", "", "On bounds: a survey", "Efficient $x^2$ solvers?", "Towards {deep} nets",
    "Analysis of things", "Learning to rank", "adaptive méthodes", "\ud83d lone half",
    "Why?", "Classification via $\\alpha$", "Being approximate", "Ⅻ: numerals",
    "The case: $x$", "A note",
]


def seeded_papers(seed: int, n: int = 900) -> list[Paper]:
    rng = random.Random(seed)
    keys = list(dict.fromkeys(map(normalize_author, _NAMES)))
    prolific = keys[:3]  # each on about a third of the papers
    papers = []
    for i in range(n):
        year, month = rng.choice((2000, 2001)), rng.randint(1, 12)
        day = rng.randint(1, 28) if rng.random() < 0.2 else 0
        k = rng.choices((1, 2, 3, 5), weights=(45, 35, 12, 8))[0]
        authors = set()
        while len(authors) < k:
            authors.add(rng.choice(prolific) if rng.random() < 0.4 else rng.choice(keys))
        pid = rng.choice(("p", "ü", "\udc80", "é\ud800")) + str(i)
        papers.append(Paper(pid, (year * 100 + month) * 100 + day, tuple(sorted(authors)),
                            rng.choice(_TITLES), ""))
    return papers


def write_manifest(papers: list[Paper], path) -> None:
    def date(d: int) -> str:
        return f"{d // 10000:04d}-{d // 100 % 100:02d}" + (f"-{d % 100:02d}" if d % 100 else "")

    path.write_text("".join(json.dumps({
        "id": p.paper_id, "date": date(p.date), "authors": list(p.authors), "title": p.title,
        "source": p.source,
    }) + "\n" for p in papers), encoding="ascii")


def built(papers, tmp_path, monkeypatch, source: str) -> Corpus:
    if source == "records":
        return Corpus.from_papers(papers)
    manifest = tmp_path / "m.jsonl"
    write_manifest(papers, manifest)
    if source == "store hit":
        open_corpus(manifest)
        with monkeypatch.context() as m:
            m.setattr(store, "load_corpus", None)  # a load would fail the open
            return open_corpus(manifest, definitions=False).corpus
    (tmp_path / "cache").write_text("", encoding="utf-8")  # no store can be used
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return open_corpus(manifest, definitions=False).corpus


SOURCES = ["records", "store hit", "fallback"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("source", SOURCES)
def test_corpus_iteration_and_ranks(seed, source, tmp_path, monkeypatch):
    papers = seeded_papers(seed)
    corpus, ref = built(papers, tmp_path, monkeypatch, source), RecordCorpus(papers)
    assert len(corpus) == len(ref)
    assert list(corpus) == list(ref)
    assert tuple(corpus) == ref.papers
    assert list(group_ranks(corpus).items()) == list(ref.group_rank.items())
    ids = [p.paper_id for p in papers]
    assert [rank_of(corpus, pid) for pid in ids] == [ref.rank_of(pid) for pid in ids]
    assert len(set(ref.group_rank.values())) < len(ref) / 3  # dense in tie groups


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("source", SOURCES)
def test_ledger(seed, source, tmp_path, monkeypatch):
    papers = seeded_papers(seed)
    corpus, ref = built(papers, tmp_path, monkeypatch, source), RecordCorpus(papers)
    ledger, expected = ExperienceLedger(corpus), RecordLedger(ref)
    authors = sorted({a for p in papers for a in p.authors}) + ["nobody"]
    assert max(len(expected.papers_of(a)) for a in authors) > 200
    top = max(ref.group_rank.values())
    for a in authors:
        assert list(map(corpus.paper, ledger.positions_of(a))) == expected.papers_of(a)
        for rank in range(-1, top + 2):
            assert ledger.experience_at_rank(a, rank) == expected.experience_at_rank(a, rank)
            assert ledger.count_in_group(a, rank) == expected.count_in_group(a, rank)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("source", SOURCES)
def test_coauthor_index(seed, source, tmp_path, monkeypatch):
    papers = seeded_papers(seed)
    corpus, ref = built(papers, tmp_path, monkeypatch, source), RecordCorpus(papers)
    index, expected = CoauthorIndex(corpus), RecordCoauthorIndex(ref)
    authors = sorted({a for p in papers for a in p.authors}) + ["nobody"]
    top = max(ref.group_rank.values())
    for a in authors:
        first = {b: ranks[0] for b, ranks in expected.neighbours(a).items()}
        assert index.neighbours(a) == first
        for b in authors:
            for rank in range(-1, top + 2, 7):
                assert index.coauthored_before(a, b, rank) == expected.coauthored_before(a, b, rank)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("source", SOURCES)
def test_coauthor_index_reads_each_asked_authors_papers_once(seed, source, tmp_path, monkeypatch):
    """The index builds as the ledger does, decoding no byline; asked for
    an author's co-authors, it decodes that author's papers with two or
    more authors, once, and gives what the former eager build gave, in its
    order."""
    papers = seeded_papers(seed)
    corpus = built(papers, tmp_path, monkeypatch, source)
    former = former_coauthor_neighbours(corpus)
    bylines = list(map(corpus.authors, range(len(corpus))))
    decoded, authors_of = [], Corpus.authors

    def counted(self, i):
        decoded.append(i)
        return authors_of(self, i)

    monkeypatch.setattr(Corpus, "authors", counted)
    index = CoauthorIndex(corpus)
    assert decoded == []
    for a in sorted({a for p in papers for a in p.authors}) + ["nobody"]:
        shared = [i for i, byline in enumerate(bylines) if a in byline and len(byline) > 1]
        assert list(index.neighbours(a).items()) == list(former.get(a, {}).items())
        assert decoded == shared
        decoded.clear()
        assert list(index.neighbours(a).items()) == list(former.get(a, {}).items())
        assert decoded == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("source", SOURCES)
def test_title_fights(seed, source, tmp_path, monkeypatch):
    papers = seeded_papers(seed)
    corpus, ref = built(papers, tmp_path, monkeypatch, source), RecordCorpus(papers)
    ledger = ExperienceLedger(corpus)
    expected_ledger, expected_index = RecordLedger(ref), RecordCoauthorIndex(ref)
    indicators = {style: set() for style in STYLE_NAMES}
    profiled = set()  # the styles some fight's younger profile shows
    for filters in (TitleFightFilters(), TitleFightFilters(older_exp_threshold=2,
                                                           min_younger_papers=2)):
        for style in STYLE_NAMES:
            fights = detect_title_fights(corpus, style, ledger, filters)
            assert fights == record_detect_title_fights(
                ref, style, expected_ledger, expected_index, filters)
            indicators[style].update(f.indicator for f in fights)
            profiled.update(style for f in fights if f.profile_younger > 0)
    # every style both shows and does not, so a test that always says one thing fails
    assert all(seen == {0, 1} for seen in indicators.values()), indicators
    assert profiled == set(STYLE_NAMES)
