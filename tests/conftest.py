import math
import random
import string

import pytest

from macrolens.corpus import Corpus, Paper, parse_date
from macrolens.timelines import BodyTimeline, Occurrence


def paper(pid, date, authors, title="t", source=""):
    return Paper(
        paper_id=pid,
        date=parse_date(date),
        authors=tuple(authors),
        title=title,
        source=source,
    )


def corpus_of(*papers):
    return Corpus.from_papers(papers)


def timeline(entries, body="\\testbody{x}", signature=""):
    """entries: (paper_id, rank, name, authors) tuples, any order."""
    occs = tuple(
        sorted(
            (Occurrence(paper_id=p, group_rank=r, name=n, authors=tuple(a)) for p, r, n, a in entries),
            key=lambda o: (o.group_rank, o.paper_id),
        )
    )
    return BodyTimeline((signature, body), occs)


def simple_timeline(names, body="\\testbody{x}"):
    """One occurrence per name string, one fresh author each."""
    return timeline(
        [(f"p{i:04d}", i, name, [f"author {i}"]) for i, name in enumerate(names)], body=body
    )


def random_timeline(
    rng: random.Random,
    m_range: tuple[int, int] = (20, 300),
    max_names: int = 4,
    author_pool: int = 60,
    max_authors_per_paper: int = 3,
) -> BodyTimeline:
    """A random usage history: occurrence names drawn by one of several
    regimes (iid, two-phase, sticky) with authors reused from a pool."""
    m = rng.randint(*m_range)
    n_names = rng.randint(1, max_names)
    names = [f"\\name{string.ascii_lowercase[i]}" for i in range(n_names)]
    regime = rng.choice(("iid", "phase", "sticky"))
    seq: list[str] = []
    if regime == "iid":
        weights = [rng.random() + 0.05 for _ in names]
        seq = rng.choices(names, weights=weights, k=m)
    elif regime == "phase":
        cut = rng.randint(0, m)
        first = rng.choice(names)
        second = rng.choice(names)
        seq = [first] * cut + [second] * (m - cut)
        for i in range(m):  # sprinkle noise
            if rng.random() < 0.1:
                seq[i] = rng.choice(names)
    else:
        cur = rng.choice(names)
        for _ in range(m):
            if rng.random() < 0.15:
                cur = rng.choice(names)
            seq.append(cur)
    occurrences = []
    for i, name in enumerate(seq):
        k = rng.randint(1, max_authors_per_paper)
        authors = tuple(
            sorted({f"pool author {rng.randrange(author_pool)}" for _ in range(k)})
        )
        occurrences.append(
            Occurrence(paper_id=f"t{i:05d}", group_rank=i, name=name, authors=authors)
        )
    return BodyTimeline(("", "\\randombody{x}"), tuple(occurrences))


def crossover_timeline(
    rng: random.Random, m: int, t_star: float, flip_prob: float = 0.03
) -> tuple[BodyTimeline, str, str]:
    """A two-name history switching at ``t_star`` with occasional flips."""
    occurrences = []
    switch_at = math.floor(t_star * m)
    for i in range(m):
        name = "\\latename" if i >= switch_at else "\\earlyname"
        if rng.random() < flip_prob:
            name = "\\latename" if name == "\\earlyname" else "\\earlyname"
        occurrences.append(
            Occurrence(
                paper_id=f"c{i:05d}",
                group_rank=i,
                name=name,
                authors=(f"cross author {i}",),
            )
        )
    return (
        BodyTimeline(("", "\\crossbody{x}"), tuple(occurrences)),
        "\\earlyname",
        "\\latename",
    )


@pytest.fixture(autouse=True)
def _corpus_store_cache(tmp_path_factory, monkeypatch):
    """Each test's corpus store files go to its own cache directory, never
    to the user's."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))


@pytest.fixture
def rng():
    return random.Random(12345)
