import io
import math

import numpy as np
import pytest

from succix.construct import ByteAlphabet, Collection, WordAlphabet
from succix.docindex import (
    GreedyIndex,
    Hit,
    SadaIndex,
    SortIndex,
    build_greedy,
    build_index,
    build_sada,
    build_sort,
    load_index,
    read_index,
)
from succix.monitor import memory_monitor
from succix.serialize import FormatError
from succix.wavelet import WaveletTree

import oracles
from example_data import DOCS, N_DOCS, TOP_HITS

SADA_PHASES = ["sa", "bwt", "psi", "doc_isa", "d", "rminq_c", "rmaxq_cprime"]


def example_collection():
    return Collection(DOCS, ByteAlphabet.from_docs(DOCS))


def example_indexes():
    coll = example_collection()
    return (
        build_sada(coll, sample_rate=2),
        build_greedy(coll),
        build_sort(coll),
    )


def naive_pairs(docs, pattern):
    pairs = []
    for d, doc in enumerate(docs):
        tf = len(oracles.occurrences(list(doc), list(pattern)))
        if tf:
            pairs.append((d, tf))
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


def test_example_top_hits():
    for index in example_indexes():
        for pattern, expected in TOP_HITS.items():
            hits = index.query(pattern, 5)
            assert [(h.doc, h.tf) for h in hits] == expected, (
                index.algo,
                pattern,
            )


def test_example_df_and_tfidf():
    for index in example_indexes():
        assert index.df(b"a") == 2
        assert index.df(b"aba") == 1
        assert index.df(b"zzz") == 0
        # pattern in every document scores exactly zero
        for h in index.query(b"a", 5, ranking="tfidf"):
            assert h.score == 0.0
        hits = index.query(b"aba", 5, ranking="tfidf")
        assert hits == [Hit(0, 1, 1 * math.log(N_DOCS / 1))]


def test_ranking_mode_keeps_order():
    for index in example_indexes():
        for pattern in TOP_HITS:
            freq = index.query(pattern, 5)
            tfidf = index.query(pattern, 5, ranking="tfidf")
            assert [(h.doc, h.tf) for h in freq] == [
                (h.doc, h.tf) for h in tfidf
            ]


def test_degenerate_queries():
    for index in example_indexes():
        assert index.query(b"", 3) == []
        assert index.query(b"a", 0) == []
        assert index.query(b"c", 3) == []
        assert index.query(b"bb", 3) == []
        with pytest.raises(ValueError):
            index.query(b"a", 3, ranking="best")


def test_k_is_a_prefix_of_the_full_list():
    for index in example_indexes():
        full = index.query(b"a", N_DOCS)
        assert index.query(b"a", 1) == full[:1]


def test_tie_order_is_doc_ascending():
    docs = [b"xy", b"yx", b"x", b"zzz"]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    for build in (build_sada, build_greedy, build_sort):
        index = build(coll)
        hits = index.query(b"x", 4)
        assert [(h.doc, h.tf) for h in hits] == [(0, 1), (1, 1), (2, 1)]
        assert index.query(b"z", 4) == [Hit(3, 3, 3.0)]


def test_single_document():
    docs = [b"banana"]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    for build in (build_sada, build_greedy, build_sort):
        index = build(coll)
        assert [(h.doc, h.tf) for h in index.query(b"an", 3)] == [(0, 2)]
        assert index.query(b"an", 3, ranking="tfidf")[0].score == 0.0


def random_docs(rng, n_docs, max_len, letters=b"abc"):
    docs = []
    for _ in range(n_docs):
        ln = int(rng.integers(1, max_len + 1))
        docs.append(bytes(rng.choice(list(letters), size=ln).tolist()))
    return docs


def test_randomized_algorithms_agree_with_oracle():
    rng = np.random.default_rng(424242)
    for trial in range(6):
        n_docs = int(rng.integers(2, 25))
        docs = random_docs(rng, n_docs, 60)
        coll = Collection(docs, ByteAlphabet.from_docs(docs))
        indexes = [build_sada(coll, sample_rate=4), build_greedy(coll),
                   build_sort(coll)]
        joined = b"".join(docs)
        for _ in range(12):
            m = int(rng.integers(1, 5))
            start = int(rng.integers(0, max(1, len(joined) - m)))
            pattern = joined[start : start + m]
            expected = naive_pairs(docs, pattern)
            for k in (1, 3, n_docs):
                want = expected[:k]
                for index in indexes:
                    got = [(h.doc, h.tf) for h in index.query(pattern, k)]
                    assert got == want, (index.algo, pattern, k)
            df = len(expected)
            for index in indexes:
                assert index.df(pattern) == df
                if df:
                    hits = index.query(pattern, 2, ranking="tfidf")
                    for h in hits:
                        assert h.score == pytest.approx(
                            oracles.tfidf(h.tf, df, n_docs), rel=1e-12
                        )


def test_word_mode_collection():
    docs = [
        ["the", "cat", "sat"],
        ["the", "dog", "sat", "the"],
        ["cat"],
    ]
    coll = Collection(docs, WordAlphabet.from_docs(docs))
    for build in (build_sada, build_greedy, build_sort):
        index = build(coll)
        assert index.mode == "word"
        hits = index.query("the", 3)
        assert [(h.doc, h.tf) for h in hits] == [(1, 2), (0, 1)]
        assert [(h.doc, h.tf) for h in index.query(["the", "cat"], 3)] == [
            (0, 1)
        ]
        assert index.query("unknown", 3) == []
        assert index.df("sat") == 2


def test_roundtrip_all_algos(tmp_path):
    for index in example_indexes():
        buf = io.BytesIO()
        n_written = index.serialize(buf)
        data = buf.getvalue()
        assert n_written == len(data) == index.serialized_bytes()
        assert index.size_tree().total_bytes == len(data)
        buf.seek(0)
        back = read_index(buf)
        assert type(back) is type(index)
        assert back.n_docs == index.n_docs
        for pattern, expected in TOP_HITS.items():
            assert [(h.doc, h.tf) for h in back.query(pattern, 5)] == expected
        again = io.BytesIO()
        back.serialize(again)
        assert again.getvalue() == data
        path = tmp_path / f"{index.algo}.idx"
        index.save(path)
        assert path.stat().st_size == len(data)
        assert load_index(path).query(b"a", 1) == index.query(b"a", 1)


def test_build_index_dispatch():
    coll = example_collection()
    assert build_index("sort", coll).algo == "sort"
    with pytest.raises(ValueError):
        build_index("fastest", coll)


def test_sada_build_phases_in_order():
    rng = np.random.default_rng(7)
    docs = random_docs(rng, 40, 80)
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    memory_monitor.start()
    try:
        build_sada(coll)
    finally:
        memory_monitor.stop()
    assert memory_monitor.phase_labels() == SADA_PHASES
    assert memory_monitor.phase_peak("bwt") < memory_monitor.phase_peak("sa")


def test_temp_artifacts_written(tmp_path):
    coll = example_collection()
    sada_dir = tmp_path / "sada"
    build_sada(coll, temp_dir=str(sada_dir))
    assert sorted(p.name for p in sada_dir.iterdir()) == [
        "bwt.iv",
        "d.iv",
        "sa.iv",
    ]
    sort_dir = tmp_path / "sort"
    build_sort(coll, temp_dir=str(sort_dir))
    assert sorted(p.name for p in sort_dir.iterdir()) == ["d.iv", "sa.iv"]


def count_walks(index):
    """Record the rows each sa_access call of this sada index walks."""
    rows = []
    walk = index.csa.sa_access

    def counted(i):
        rows.append(i)
        return walk(i)

    index.csa.sa_access = counted
    return rows


def test_sada_walks_each_row_at_most_once():
    rng = np.random.default_rng(31337)
    docs = random_docs(rng, 30, 50, letters=b"ab")
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    index = build_sada(coll, sample_rate=4)
    rows = count_walks(index)
    for pattern in (b"a", b"b", b"ab", b"ba", b"aab", b"abba"):
        rows.clear()
        index.query(pattern, 3)
        assert rows and len(rows) == len(set(rows)), pattern
        rows.clear()
        index.df(pattern)
        assert rows and len(rows) == len(set(rows)), pattern


def test_sada_walks_once_per_single_occurrence_document():
    docs = [b"xqy", b"zzqz", b"yy", b"q", b"xyzxyzq", b"zxy", b"qxyz"]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    index = build_sada(coll, sample_rate=2)
    rows = count_walks(index)
    hits = index.query(b"q", len(docs))
    assert [(h.doc, h.tf) for h in hits] == naive_pairs(docs, b"q")
    assert len(rows) == len(hits) == 5
    rows.clear()
    assert index.df(b"q") == 5
    assert len(rows) == 5


def test_sada_pattern_in_every_document():
    rng = np.random.default_rng(2718)
    n_docs = 12
    # every document holds "a" at least once, most of them several times
    docs = [b"a" + d for d in random_docs(rng, n_docs, 30, letters=b"abc")]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    sada = build_sada(coll, sample_rate=3)
    sort = build_sort(coll)
    for pattern in (b"a", b"ab", b"ca"):
        expected = naive_pairs(docs, pattern)
        assert sada.df(pattern) == sort.df(pattern) == len(expected)
        for k in range(1, n_docs + 1):
            got = sada.query(pattern, k)
            assert [(h.doc, h.tf) for h in got] == expected[:k], (pattern, k)
            assert got == sort.query(pattern, k)
    assert sada.df(b"a") == n_docs


def compositions(coll):
    """Every layout over either CSA: the document parts of each built index
    combined with the CsaPsi of sada's build and the CsaWt of sort's."""
    sada = build_sada(coll, sample_rate=4)
    greedy = build_greedy(coll, sample_rate=4)
    sort = build_sort(coll, sample_rate=4)
    args = (coll.alphabet, coll.n_docs)
    for csa in (sada.csa, sort.csa):
        yield SadaIndex(
            csa, *args, sada.border, sada.doc_isa, sada.rminq, sada.rmaxq
        )
        yield GreedyIndex(csa, *args, greedy.doc_wt)
        yield SortIndex(csa, *args, sort.doc_iv)


@pytest.mark.parametrize("mode", ["byte", "word"])
def test_every_composition_saves_loads_and_agrees(mode, tmp_path):
    rng = np.random.default_rng(1113 if mode == "byte" else 1114)
    if mode == "byte":
        docs = random_docs(rng, 14, 50)
        coll = Collection(docs, ByteAlphabet.from_docs(docs))
    else:
        vocab = [f"w{i}" for i in range(6)]
        docs = [
            [vocab[i] for i in rng.integers(0, 6, int(rng.integers(1, 30)))]
            for _ in range(14)
        ]
        coll = Collection(docs, WordAlphabet.from_docs(docs))
    flat = [list(doc) for doc in docs]
    joined = [s for doc in flat for s in doc]
    patterns = []
    for m in (1, 1, 2, 2, 3):
        start = int(rng.integers(0, len(joined) - m))
        patterns.append(joined[start : start + m])
    sort = build_sort(coll)
    seen = set()
    for index in compositions(coll):
        kind = type(index.csa)
        seen.add((index.algo, kind.__name__))
        assert [c.name for c in index.size_tree().children][:2] == [
            "alphabet", index.csa._tag,
        ]
        path = tmp_path / f"{index.algo}-{kind.__name__}.idx"
        n_bytes = index.save(path)
        back = load_index(path)
        assert (type(back), type(back.csa)) == (type(index), kind)
        again = io.BytesIO()
        assert back.serialize(again) == n_bytes
        assert again.getvalue() == path.read_bytes()
        for pattern in patterns:
            raw = bytes(pattern) if mode == "byte" else pattern
            expected = naive_pairs(flat, pattern)
            for k in (1, 3, coll.n_docs):
                for ranking in ("freq", "tfidf"):
                    got = back.query(raw, k, ranking)
                    assert got == sort.query(raw, k, ranking), (index.algo, kind)
                    assert [(h.doc, h.tf) for h in got] == expected[:k]
            assert back.df(raw) == sort.df(raw) == len(expected)
    assert len(seen) == 6


def test_wide_skewed_word_corpus_every_composition(tmp_path):
    """sigma > 256 and a skew that gives the BWT wavelet codes of more than
    8 bits: every composition agrees with sort and with the naive lists,
    and saves and loads."""
    rng = np.random.default_rng(1116)
    vocab = [f"w{i}" for i in range(700)]
    p = 1.0 / np.arange(1, 701)
    p /= p.sum()
    docs = [
        [vocab[i] for i in rng.choice(700, size=int(rng.integers(5, 100)), p=p)]
        for _ in range(50)
    ]
    coll = Collection(docs, WordAlphabet.from_docs(docs))
    sort = build_sort(coll)
    assert coll.sigma_total > 256 and sort.csa.wt.height > 8
    joined = [s for doc in docs for s in doc]
    patterns = [[vocab[0]], [vocab[300]], joined[5:7], joined[40:43]]
    for index in compositions(coll):
        path = tmp_path / f"{index.algo}-{type(index.csa).__name__}.idx"
        n_bytes = index.save(path)
        back = load_index(path)
        again = io.BytesIO()
        assert back.serialize(again) == n_bytes
        assert again.getvalue() == path.read_bytes()
        for pattern in patterns:
            expected = naive_pairs(docs, pattern)
            for ranking in ("freq", "tfidf"):
                got = back.query(pattern, 5, ranking)
                assert got == sort.query(pattern, 5, ranking)
                assert [(h.doc, h.tf) for h in got] == expected[:5]
            assert back.df(pattern) == len(expected)


def test_greedy_tfidf_below_df_matches_sort():
    """Greedy under tfidf at k = 1 and 10, over either CSA, on patterns
    with df below and above k: when the top k stop before the heap empties,
    df comes from count_distinct, and the scores still equal sort's."""
    rng = np.random.default_rng(2121)
    docs = random_docs(rng, 40, 40)
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    sort = build_sort(coll)
    greedy = build_greedy(coll)
    patterns = [b"a", b"ab", b"cab", b"abca", b"bcabc", b"aabcb"]
    indexes = [GreedyIndex(csa, coll.alphabet, coll.n_docs, greedy.doc_wt)
               for csa in (build_sada(coll).csa, sort.csa)]
    calls = []
    for index in indexes:
        df_interval = index._df_interval
        index._df_interval = lambda sp, ep, f=df_interval: calls.append(1) or f(sp, ep)
    cases = set()
    for pattern in patterns:
        expected = naive_pairs(docs, pattern)
        df = len(expected)
        for k in (1, 10):
            cases.add((k, df > k))
            want = sort.query(pattern, k, ranking="tfidf")
            for index in indexes:
                del calls[:]
                got = index.query(pattern, k, ranking="tfidf")
                assert got == want, (pattern, k)
                assert [(h.doc, h.tf) for h in got] == expected[:k]
                assert len(calls) == (df > k)
    assert cases == {(1, True), (1, False), (10, True), (10, False)}


def test_greedy_ties_among_one_row_nodes():
    """24 documents hold the pattern once, others two or three times or
    not at all: every k, including each one that cuts the tie group of
    one-occurrence documents, lists the same documents as sort and a naive
    scan, and the one-row walk is taken."""
    rng = np.random.default_rng(2122)
    tfs = rng.permutation([1] * 24 + [2] * 5 + [3] * 3 + [0] * 8).tolist()
    docs = []
    for tf in tfs:
        parts = [bytes(rng.choice(list(b"ab"), size=int(rng.integers(1, 8))))
                 for _ in range(tf + 1)]
        docs.append(b"x".join(parts))
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    greedy, sort = build_greedy(coll), build_sort(coll)
    expected = naive_pairs(docs, b"x")
    assert sum(tf == 1 for _, tf in expected) == 24
    walks = []
    descend = greedy.doc_wt.descend
    greedy.doc_wt.descend = lambda *a: walks.append(a) or descend(*a)
    for k in range(1, coll.n_docs + 1):
        for ranking in ("freq", "tfidf"):
            got = greedy.query(b"x", k, ranking)
            assert got == sort.query(b"x", k, ranking), k
            assert [(h.doc, h.tf) for h in got] == expected[:k]
    assert walks


def test_greedy_df_matches_sort_at_every_interval_width():
    """df over rows [sp, ep] of width 0, 1 and 2, the whole suffix array
    (row 0 holds the separator symbol n_docs) and random intervals, with
    n_docs + 1 = 12 symbols, not a power of two; and df of patterns."""
    rng = np.random.default_rng(2123)
    docs = random_docs(rng, 11, 30)
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    greedy, sort = build_greedy(coll), build_sort(coll)
    assert greedy.doc_wt.sigma == 12
    n = greedy.n
    intervals = [(0, n - 1), (1, n - 1), (0, 0)]
    intervals += [(i, i + w - 1) for w in (0, 1, 2) for i in range(n - w + 1)]
    intervals += [sorted(rng.integers(0, n, size=2)) for _ in range(100)]
    for sp, ep in intervals:
        assert greedy._df_interval(sp, ep) == sort._df_interval(sp, ep), (sp, ep)
    assert greedy._df_interval(0, n - 1) == coll.n_docs
    for pattern in (b"a", b"b", b"ab", b"cba", b"abcab", b"zz"):
        assert greedy.df(pattern) == sort.df(pattern) == len(
            naive_pairs(docs, pattern)
        )


def test_greedy_load_rejects_terminator_document_in_two_rows():
    """Greedy takes row 0 as the only row holding n_docs, so a file whose
    document wavelet tree holds n_docs in a second row fails to load."""
    coll = example_collection()
    greedy = build_greedy(coll)
    d = np.array([greedy.doc_wt.access(i) for i in range(greedy.n)])
    d[greedy.n // 2] = coll.n_docs
    bad = GreedyIndex(
        greedy.csa, coll.alphabet, coll.n_docs,
        WaveletTree(d, sigma=coll.n_docs + 1),
    )
    buf = io.BytesIO()
    bad.serialize(buf)
    with pytest.raises(FormatError, match="document wavelet tree"):
        read_index(io.BytesIO(buf.getvalue()))
    buf = io.BytesIO()
    greedy.serialize(buf)
    assert read_index(io.BytesIO(buf.getvalue())).df(b"a") == greedy.df(b"a")


def test_numpy_integer_k_and_patterns_answer_as_python_ints():
    rng = np.random.default_rng(2124)
    docs = random_docs(rng, 12, 40)
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    for index in (build_sada(coll), build_greedy(coll), build_sort(coll)):
        for pattern in (b"a", b"ab", b"cab", b"zz"):
            symbols = index.encode(pattern)
            if symbols is not None:
                hit = index.csa.backward_search(np.asarray(symbols).tolist())
                assert index.csa.backward_search(np.asarray(symbols)) == hit
            for k in (1, 3, 20):
                for ranking in ("freq", "tfidf"):
                    expect = index.query(pattern, k, ranking)
                    for t in (np.int64, np.int32, np.uint8):
                        assert index.query(pattern, t(k), ranking) == expect
