"""End-to-end acceptance gate.

One test per shipping criterion, in order: oracle equivalence on exhaustive
and randomized domains, the frozen worked example, cross-algorithm agreement
on a seeded corpus grid, ranking math, space budgets, the monitored build
profile, serialization stability, and sampling invariance. Tolerances and
time budgets are pinned as constants next to the test that uses them.
"""

import io
import itertools
import math
import os
import time
import warnings

import numpy as np

import oracles
from succix.bits import BackedBits, BitVector, IntVector, RankSupport, SelectSupport, width_for
from succix.compressed import RRRVector, SDVector
from succix.construct import (
    ByteAlphabet,
    Collection,
    DocIsaTable,
    SaSamples,
    WordAlphabet,
    build_suffix_array,
    bwt_from_sa,
    d_from_sa,
    prev_next_occurrence,
    psi_from_bwt,
)
from succix.corpus import render_docs, synth_symbol_docs
from succix.csa import CsaPsi, CsaWt
from succix.docindex import (
    ALGOS,
    build_greedy,
    build_index,
    build_sada,
    build_sort,
    load_index,
)
from succix.monitor import memory_monitor
from succix.patterns import gen_patterns
from succix.rmq import RmaxSct, RmqSct
from succix.serialize import serialized_bytes
from succix.wavelet import WaveletTree, WaveletTreeHuff

TFIDF_REL_TOL = 1e-12
RMQ_MAX_BITS_PER_ELEM = 3.2
RANK_MAX_OVERHEAD = 0.08
SA_PEAK_RATIO_LO = 1.5
SA_PEAK_RATIO_HI = 2.5
ORACLE_TIME_BUDGET_S = 300.0
AGREEMENT_TIME_BUDGET_S = 600.0
BUILD_TIME_BUDGET_S = 300.0


# ---------------------------------------------------------------- helpers

def _corpus(n_docs, sigma, mode, mean_len, seed):
    sym = synth_symbol_docs(
        n_docs=n_docs, sigma=sigma, mean_len=mean_len, zipf_s=1.2, seed=seed
    )
    docs = render_docs(sym, mode, sep=10)
    alpha = (
        ByteAlphabet.from_docs(docs)
        if mode == "byte"
        else WordAlphabet.from_docs(docs)
    )
    return docs, Collection(docs, alpha)


def _distinct_patterns(coll, lengths, per_len, seed0):
    """Deduplicated sample; repeats add nothing since queries are pure."""
    out, seen = [], set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ell in lengths:
            for pat in gen_patterns(coll, ell, per_len, seed=seed0 + ell):
                key = pat if isinstance(pat, bytes) else tuple(pat)
                if key not in seen:
                    seen.add(key)
                    out.append(pat)
    return out


def _byte_view(docs, alphabet):
    """Docs and patterns as one byte per symbol, for C-speed scans."""
    if alphabet.kind == "byte":
        return [bytes(d) for d in docs], lambda pat: bytes(pat)
    tok2b = {t: k for k, t in enumerate(alphabet.tokens)}
    docs_b = [bytes(tok2b[t] for t in d) for d in docs]
    return docs_b, lambda pat: bytes(tok2b[t] for t in pat)


def _overlap_count(hay, needle):
    cnt, at = 0, hay.find(needle)
    while at >= 0:
        cnt += 1
        at = hay.find(needle, at + 1)
    return cnt


def _naive_ranked(docs_b, pat_b):
    pairs = [(d, _overlap_count(doc, pat_b)) for d, doc in enumerate(docs_b)]
    pairs = [(d, tf) for d, tf in pairs if tf]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


def _pairs(hits):
    return [(h.doc, h.tf) for h in hits]


def _positions_oracle(arr):
    """Per-value sorted position lists for rank/select spot checks."""
    pos = {}
    for v in np.unique(arr):
        pos[int(v)] = np.flatnonzero(arr == v)
    return pos


# ------------------------------------------------- criterion 1: oracles

def _check_bitvector_backends(bits):
    n = len(bits)
    pref = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bits, out=pref[1:])
    ones = np.flatnonzero(bits)
    bv = BitVector(bits)
    rs = RankSupport(bv)
    rrr = RRRVector(bits)
    sd = SDVector(ones, n)
    for i in range(n + 1):
        r = int(pref[i])
        assert rs.rank(i) == r
        assert rrr.rank(i) == r
        assert sd.rank(i) == r
    for i in range(n):
        b = bool(bits[i])
        assert bv[i] == b
        assert rrr.access(i) == b
        assert rrr.rank_if_set(i) == (int(pref[i]) if b else None)
    if len(ones):
        ss = SelectSupport(bv, rs)
        for j in range(1, len(ones) + 1):
            p = int(ones[j - 1])
            assert ss.select(j) == p
            assert rrr.select(j) == p
            assert sd.select(j) == p


def _check_text_kernels(T):
    T = np.asarray(T, dtype=np.int64)
    n = len(T)
    sa_true = oracles.suffix_array(T.tolist())
    sa, sa_iv = build_suffix_array(T)
    assert sa.tolist() == sa_true
    assert sa_iv.to_numpy().tolist() == sa_true
    text_iv = IntVector(T, width_for(int(T.max())))
    bwt_iv = bwt_from_sa(text_iv, sa_iv)
    assert bwt_iv.to_numpy().tolist() == oracles.bwt(T.tolist(), sa_true)
    sigma_total = int(T.max()) + 1
    csa = CsaPsi.build(text_iv, sa_iv, sigma_total, sample_rate=1)
    psi_true = oracles.psi(T.tolist(), sa_true)
    for i in range(n):
        assert csa.psi(i) == psi_true[i]
        assert csa.sa_access(i) == sa_true[i]


def test_criterion_1_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10001)

    # exhaustive: every bitvector up to length 16
    for n in range(1, 17):
        masks = np.arange(1 << n, dtype=np.uint64)
        rows = ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(bool)
        for row in rows:
            _check_bitvector_backends(row)

    # exhaustive: every binary text up to length 12, terminator appended
    for n in range(1, 13):
        for word in itertools.product((1, 2), repeat=n):
            _check_text_kernels(list(word) + [0])

    # exhaustive: every array up to length 9 over three values
    for n in range(1, 10):
        for vals in itertools.product((0, 1, 2), repeat=n):
            st = RmqSct(vals)
            for l in range(n):
                for r in range(l, n):
                    assert st.query(l, r) == oracles.rmq(vals, l, r)

    # exhaustive maxima variant kept shorter; same value domain
    for n in range(1, 8):
        for vals in itertools.product((0, 1, 2), repeat=n):
            st = RmaxSct(vals)
            for l in range(n):
                for r in range(l, n):
                    assert st.query(l, r) == oracles.rmaxq(vals, l, r)

    # randomized: bitvector backends at n = 10^5
    n = 100_000
    for density in (0.5, 0.01):
        bits = rng.random(n) < density
        ones = np.flatnonzero(bits)
        bv = BitVector(bits)
        rs = RankSupport(bv)
        ss = SelectSupport(bv, rs)
        rrr = RRRVector(bits)
        sd = SDVector(ones, n)
        pref = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bits, out=pref[1:])
        for i in rng.integers(0, n + 1, 10_000):
            i = int(i)
            r = int(pref[i])
            assert rs.rank(i) == r
            assert rrr.rank(i) == r
            assert sd.rank(i) == r
        for i in rng.integers(0, n, 10_000):
            i = int(i)
            assert bv[i] == bool(bits[i])
            assert rrr.access(i) == bool(bits[i])
            assert rrr.rank_if_set(i) == (int(pref[i]) if bits[i] else None)
        for j in rng.integers(1, len(ones) + 1, 10_000):
            j = int(j)
            p = int(ones[j - 1])
            assert ss.select(j) == p
            assert rrr.select(j) == p
            assert sd.select(j) == p

    # randomized: wavelet trees at n = 10^5
    seq = rng.integers(0, 300, n)
    wt = WaveletTree(seq, sigma=300)
    seq8 = rng.integers(0, 256, n).astype(np.uint8)
    wth = WaveletTreeHuff(seq8)
    for arr, tree in ((seq, wt), (seq8.astype(np.int64), wth)):
        pos = _positions_oracle(arr)
        for i in rng.integers(0, n, 10_000):
            i = int(i)
            assert tree.access(i) == int(arr[i])
        for _ in range(10_000):
            c = int(arr[int(rng.integers(0, n))])
            i = int(rng.integers(0, n + 1))
            assert tree.rank(i, c) == int(np.searchsorted(pos[c], i))
        for _ in range(10_000):
            c = int(arr[int(rng.integers(0, n))])
            j = int(rng.integers(1, len(pos[c]) + 1))
            assert tree.select(j, c) == int(pos[c][j - 1])

    # randomized: suffix array, BWT and Psi at n = 10^5
    T = np.append(rng.integers(1, 27, n - 1), 0)
    sa, sa_iv = build_suffix_array(T)
    assert np.array_equal(np.sort(sa), np.arange(n))
    for i in range(n - 1):
        a, b = int(sa[i]), int(sa[i + 1])
        while T[a] == T[b]:
            a += 1
            b += 1
        assert T[a] < T[b]
    isa = np.empty(n, dtype=np.int64)
    isa[sa] = np.arange(n)
    text_iv = IntVector(T, width_for(26))
    bwt_iv = bwt_from_sa(text_iv, sa_iv)
    assert np.array_equal(bwt_iv.to_numpy(), T[(sa - 1) % n])
    csa = CsaPsi.build(text_iv, sa_iv, 27, sample_rate=16)
    psi_true = isa[(sa + 1) % n]
    for i in rng.integers(0, n, 10_000):
        i = int(i)
        assert csa.psi(i) == int(psi_true[i])
    for i in rng.integers(0, n, 2_000):
        i = int(i)
        assert csa.sa_access(i) == int(sa[i])

    # randomized: range minima and maxima at n = 10^5
    vals = rng.integers(0, 1000, n)
    st = RmqSct(vals)
    stx = RmaxSct(vals)
    spans = np.concatenate(
        [
            rng.integers(1, 64, 6_000),
            rng.integers(1, 4096, 4_000),
            rng.integers(1, n, 2_000),
        ]
    )
    for span in spans:
        l = int(rng.integers(0, n - int(span) + 1))
        r = l + int(span) - 1
        window = vals[l : r + 1]
        assert st.query(l, r) == l + int(np.argmin(window))
        assert stx.query(l, r) == l + int(np.argmax(window))

    elapsed = time.perf_counter() - t0
    assert elapsed < ORACLE_TIME_BUDGET_S
    print(f"criterion 1: oracle suite clean in {elapsed:.1f}s")


# ------------------------------------------- criterion 2: worked example

def test_criterion_2_worked_example_trace():
    docs = [b"aba", b"ab"]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    assert coll.text.tolist() == [2, 3, 2, 1, 2, 3, 1, 0]

    sa, sa_iv = build_suffix_array(coll.text)
    assert sa.tolist() == [7, 6, 3, 2, 4, 0, 5, 1]

    text_iv = coll.packed_text()
    bwt_iv = bwt_from_sa(text_iv, sa_iv)
    assert bwt_iv.to_numpy().tolist() == [1, 3, 2, 3, 1, 0, 2, 2]

    d_iv = d_from_sa(sa_iv, coll.sharp_positions, coll.n_docs)
    assert d_iv.to_numpy().tolist() == [2, 1, 0, 0, 1, 0, 1, 0]

    prev_occ, next_occ = prev_next_occurrence(d_iv.to_numpy().astype(np.int64))
    assert prev_occ.tolist() == [-1, -1, -1, 2, 1, 3, 4, 5]
    assert next_occ.tolist() == [8, 4, 3, 5, 6, 7, 8, 8]

    csa = CsaPsi.build(text_iv, sa_iv, coll.sigma_total, sample_rate=1)
    assert csa.backward_search(coll.alphabet.encode_pattern(b"a")) == (3, 5)

    doc_isa = DocIsaTable.build(sa_iv, coll.offsets, coll.lengths)
    assert [doc_isa.get(0, p) for p in range(4)] == [2, 3, 1, 0]

    idx = build_sada(coll, sample_rate=1)
    hits = idx.query(b"a", 2)
    assert _pairs(hits) == [(0, 2), (1, 1)]
    assert hits[0].tf == 2
    print("criterion 2: worked example trace exact")


# --------------------------------------- criterion 3: algorithm agreement

def _agreement_grid():
    grid = []
    mean_by_docs = {"byte": {5: 60, 50: 40, 500: 12}, "word": {5: 30, 50: 20, 500: 8}}
    reps_by_docs = {5: 12, 50: 11, 500: 2}
    for sigma in (4, 64):
        for mode in ("byte", "word"):
            for n_docs in (5, 50, 500):
                for _ in range(reps_by_docs[n_docs]):
                    grid.append((n_docs, sigma, mode, mean_by_docs[mode][n_docs]))
    return grid


def test_criterion_3_cross_algorithm_agreement():
    t0 = time.perf_counter()
    grid = _agreement_grid()
    assert len(grid) == 100
    total_patterns = 0
    for idx_c, (n_docs, sigma, mode, mean_len) in enumerate(grid):
        docs, coll = _corpus(n_docs, sigma, mode, mean_len, seed=100_000 + 97 * idx_c)
        sada = build_sada(coll, sample_rate=4)
        greedy = build_greedy(coll, sample_rate=4)
        sortx = build_sort(coll, sample_rate=4)
        docs_b, enc = _byte_view(docs, coll.alphabet)
        pats = _distinct_patterns(coll, range(1, 9), 200, seed0=7_000 + 31 * idx_c)
        assert pats
        N = coll.n_docs
        for p_no, pat in enumerate(pats):
            full = _pairs(sada.query(pat, N))
            assert _pairs(sortx.query(pat, N)) == full
            for k in (1, 10, N):
                assert _pairs(greedy.query(pat, k)) == full[:k]
            df = sum(1 for db in docs_b if enc(pat) in db)
            assert len(full) == df
            assert greedy.df(pat) == df
            assert sortx.df(pat) == df
            if p_no % 5 == 0:
                assert sada.df(pat) == df
            idf = math.log(N / df)
            scored = sortx.query(pat, N, ranking="tfidf")
            assert _pairs(scored) == full
            for h in scored:
                want = h.tf * idf
                assert abs(h.score - want) <= TFIDF_REL_TOL * max(1.0, abs(want))
        total_patterns += len(pats)
    elapsed = time.perf_counter() - t0
    assert elapsed < AGREEMENT_TIME_BUDGET_S
    print(
        f"criterion 3: {len(grid)} corpora, {total_patterns} distinct patterns,"
        f" agreement exact in {elapsed:.1f}s"
    )


# ----------------------------------------------- criterion 4: ranking math

def test_criterion_4_df_and_tfidf():
    # every document matches: idf is log(1) and scores are exactly zero
    docs = [b"xay", b"aa", b"za"]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    for algo in ALGOS:
        idx = build_index(algo, coll, sample_rate=1)
        assert idx.df(b"a") == 3
        hits = idx.query(b"a", 3, ranking="tfidf")
        assert _pairs(hits) == [(1, 2), (0, 1), (2, 1)]
        assert all(h.score == 0.0 for h in hits)

    # naive sweep: df and scores on every tested pattern of four corpora
    cases = [
        (5, 4, "byte", 60, 41),
        (50, 64, "byte", 40, 42),
        (5, 4, "word", 30, 43),
        (50, 64, "word", 20, 44),
    ]
    checked = 0
    for n_docs, sigma, mode, mean_len, seed in cases:
        docs, coll = _corpus(n_docs, sigma, mode, mean_len, seed)
        docs_b, enc = _byte_view(docs, coll.alphabet)
        indexes = [build_index(a, coll, sample_rate=2) for a in ALGOS]
        pats = _distinct_patterns(coll, range(1, 9), 200, seed0=900 + seed)
        N = coll.n_docs
        for pat in pats:
            want = _naive_ranked(docs_b, enc(pat))
            df = len(want)
            idf = math.log(N / df)
            for idx in indexes:
                assert idx.df(pat) == df
                hits = idx.query(pat, N, ranking="tfidf")
                assert _pairs(hits) == want
                for h in hits:
                    score = h.tf * idf
                    assert abs(h.score - score) <= TFIDF_REL_TOL * max(1.0, abs(score))
                    if df == N:
                        assert h.score == 0.0
            checked += 1
    print(f"criterion 4: df and tf-idf exact on {checked} patterns")


# ---------------------------------------------- criterion 5: space budgets

def test_criterion_5_space_budgets(tmp_path):
    rng = np.random.default_rng(50505)
    n = 1_000_000

    rmq = RmqSct(rng.integers(0, 1 << 40, n))
    bits_per_elem = rmq.serialized_bytes() * 8 / n
    assert bits_per_elem <= RMQ_MAX_BITS_PER_ELEM

    bits = rng.random(n) < 0.5
    rs = RankSupport(BitVector(bits))
    rank_overhead = rs.serialized_bytes() / (n / 8)
    assert rank_overhead <= RANK_MAX_OVERHEAD

    # skewed document ids compress under RRR levels: the same wavelet
    # with each level's bits as a plain bitmap with rank is larger
    n_docs = 1000
    ranks = np.arange(1, n_docs + 1, dtype=np.float64)
    probs = (1.0 / ranks**1.3) / (1.0 / ranks**1.3).sum()
    doc_ids = rng.choice(n_docs, size=n, p=probs).astype(np.int64)
    wt = WaveletTree(doc_ids, sigma=n_docs)
    rrr_bytes = wt.serialized_bytes()
    plain_bytes = rrr_bytes + sum(
        BackedBits(BitVector(bv.to_bool())).serialized_bytes()
        - bv.serialized_bytes()
        for bv in wt.levels
    )
    assert rrr_bytes < plain_bytes

    _, coll = _corpus(100, 64, "byte", 120, seed=55)
    for algo in ALGOS:
        idx = build_index(algo, coll, sample_rate=8)
        path = tmp_path / f"{algo}.idx"
        idx.save(path)
        assert idx.size_tree().total_bytes == os.path.getsize(path)

    print(
        f"criterion 5: rmq {bits_per_elem:.2f} bits/elem,"
        f" rank overhead {rank_overhead * 100:.1f}%,"
        f" rrr/plain {rrr_bytes / plain_bytes:.3f}"
    )


# ------------------------------------------- criterion 6: build profiling

def test_criterion_6_monitored_build_profile():
    t0 = time.perf_counter()
    docs, coll = _corpus(20_000, 64, "byte", 500, seed=606)
    corpus_bytes = sum(len(d) for d in docs)
    assert 9_000_000 <= corpus_bytes <= 12_000_000

    memory_monitor.start()
    try:
        idx = build_sada(coll, sample_rate=32)
        labels = memory_monitor.phase_labels()
        sa_peak = memory_monitor.phase_peak("sa")
        bwt_peak = memory_monitor.phase_peak("bwt")
    finally:
        memory_monitor.stop()

    assert labels == ["sa", "bwt", "psi", "doc_isa", "d", "rminq_c", "rmaxq_cprime"]
    assert bwt_peak < sa_peak

    packed_sa_bytes = serialized_bytes(coll.n, width_for(coll.n - 1))
    ratio = sa_peak / packed_sa_bytes
    assert SA_PEAK_RATIO_LO <= ratio <= SA_PEAK_RATIO_HI

    hits = idx.query(docs[0][:3], 5)
    assert hits and hits[0].tf >= 1

    elapsed = time.perf_counter() - t0
    assert elapsed < BUILD_TIME_BUDGET_S
    print(
        f"criterion 6: phases {labels}, sa peak {ratio:.2f}x packed SA,"
        f" built {corpus_bytes / 1e6:.1f}MB corpus in {elapsed:.1f}s"
    )


# --------------------------------------- criterion 7: serialization stability

def _roundtrip(obj, cls):
    buf = io.BytesIO()
    obj.serialize(buf)
    data = buf.getvalue()
    back = cls.deserialize(io.BytesIO(data))
    buf2 = io.BytesIO()
    back.serialize(buf2)
    assert buf2.getvalue() == data
    return back


def test_criterion_7_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(70707)
    n = 40_000

    vals = rng.integers(0, 1 << 13, n)
    iv = _roundtrip(IntVector(vals, 13), IntVector)
    assert np.array_equal(iv.to_numpy(), vals)

    bits = rng.random(n) < 0.3
    bb = _roundtrip(
        BackedBits(BitVector(bits), select1=True, select0=True), BackedBits
    )
    ones = np.flatnonzero(bits)
    for i in rng.integers(0, n, 500):
        assert bb.access(int(i)) == bool(bits[i])
    for j in rng.integers(1, len(ones) + 1, 500):
        assert bb.select(int(j)) == int(ones[j - 1])

    rrr = _roundtrip(RRRVector(bits), RRRVector)
    sd = _roundtrip(SDVector(ones, n), SDVector)
    pref = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bits, out=pref[1:])
    for i in rng.integers(0, n + 1, 500):
        assert rrr.rank(int(i)) == int(pref[i])
        assert sd.rank(int(i)) == int(pref[i])

    seq = rng.integers(0, 500, n)
    wt = _roundtrip(WaveletTree(seq, sigma=500), WaveletTree)
    for i in rng.integers(0, n, 300):
        assert wt.access(int(i)) == int(seq[i])
    seq8 = rng.integers(0, 200, n).astype(np.uint8)
    wth = _roundtrip(WaveletTreeHuff(seq8), WaveletTreeHuff)
    for i in rng.integers(0, n, 300):
        assert wth.access(int(i)) == int(seq8[i])

    mvals = rng.integers(0, 10_000, n)
    st = _roundtrip(RmqSct(mvals), RmqSct)
    stx = _roundtrip(RmaxSct(mvals), RmaxSct)
    for _ in range(300):
        l = int(rng.integers(0, n - 50))
        r = l + int(rng.integers(1, 50))
        win = mvals[l : r + 1]
        assert st.query(l, r) == l + int(np.argmin(win))
        assert stx.query(l, r) == l + int(np.argmax(win))

    docs, coll = _corpus(80, 32, "byte", 90, seed=77)
    text_iv = coll.packed_text()
    sa, sa_iv = build_suffix_array(coll.text)
    for cls, built in (
        (CsaPsi, CsaPsi.build(text_iv, sa_iv, coll.sigma_total, 8)),
        (CsaWt, CsaWt.build(text_iv, sa_iv, coll.sigma_total, 8)),
    ):
        csa = _roundtrip(built, cls)
        for i in rng.integers(0, coll.n, 200):
            assert csa.sa_access(int(i)) == int(sa[i])
    _roundtrip(SaSamples.build(sa_iv, 8), SaSamples)
    di = _roundtrip(
        DocIsaTable.build(sa_iv, coll.offsets, coll.lengths), DocIsaTable
    )
    assert di.get(0, 0) == DocIsaTable.build(
        sa_iv, coll.offsets, coll.lengths
    ).get(0, 0)

    # same-seed builds serialize bit-identically, and reload answers match
    pats = _distinct_patterns(coll, range(1, 5), 60, seed0=7_700)
    for algo in ALGOS:
        blobs = []
        for _ in range(2):
            docs2, coll2 = _corpus(80, 32, "byte", 90, seed=77)
            idx = build_index(algo, coll2, sample_rate=8)
            buf = io.BytesIO()
            idx.serialize(buf)
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1]
        path = tmp_path / f"{algo}.idx"
        idx.save(path)
        back = load_index(path)
        for pat in pats[:40]:
            assert _pairs(back.query(pat, 10)) == _pairs(idx.query(pat, 10))
    print("criterion 7: round-trips byte-stable, rebuilds bit-identical")


# --------------------------------------- criterion 8: sampling invariance

def test_criterion_8_sampling_invariance():
    rng = np.random.default_rng(80808)
    # one document of 99,998 bytes: total text length exactly 10^5
    body = bytes(rng.integers(97, 123, 99_998, dtype=np.uint8).tolist())
    coll = Collection([body], ByteAlphabet.from_docs([body]))
    n = coll.n
    assert n == 100_000
    text_iv = coll.packed_text()
    sa, sa_iv = build_suffix_array(coll.text)

    rates = (1, 4, 32, n)
    psis = {r: CsaPsi.build(text_iv, sa_iv, coll.sigma_total, r) for r in rates}
    # CsaWt over one BWT wavelet, built part by part
    bwt = bwt_from_sa(text_iv, sa_iv).to_numpy()
    wt = WaveletTreeHuff(bwt, sigma=coll.sigma_total)
    wts = {r: CsaWt(wt, SaSamples.build(sa_iv, r), n) for r in rates}

    rows = rng.integers(0, n, 3_000)
    for i in rows:
        i = int(i)
        truth = int(sa[i])
        for r in (1, 4, 32):
            assert psis[r].sa_access(i) == truth
            assert wts[r].sa_access(i) == truth
    for i in rows[:20]:
        i = int(i)
        truth = int(sa[i])
        assert psis[n].sa_access(i) == truth
        assert wts[n].sa_access(i) == truth

    starts = rng.integers(0, n - 80, 100)
    for s in starts:
        s = int(s)
        want = coll.text[s : s + 40].tolist()
        for r in (1, 4, 32):
            assert psis[r].extract(s, 40).tolist() == want
            assert wts[r].extract(s, 40).tolist() == want
    for s in starts[:8]:
        s = int(s)
        want = coll.text[s : s + 40].tolist()
        assert psis[n].extract(s, 40).tolist() == want
        assert wts[n].extract(s, 40).tolist() == want

    # coarse sampling never blocks the wavelet-backed document index
    docs, dcoll = _corpus(300, 64, "byte", 330, seed=88)
    default_rate = min(1 << 20, dcoll.n)
    assert default_rate == dcoll.n
    coarse = build_greedy(dcoll)
    assert coarse.csa.samples.rate == default_rate
    fine = build_greedy(dcoll, sample_rate=4)
    pats = _distinct_patterns(dcoll, range(1, 7), 100, seed0=8_800)
    N = dcoll.n_docs
    for pat in pats:
        for k in (1, 10, N):
            assert _pairs(coarse.query(pat, k)) == _pairs(fine.query(pat, k))
        assert coarse.df(pat) == fine.df(pat)
    print(
        f"criterion 8: rates {rates} agree; coarse-sampled index answered"
        f" {len(pats)} patterns"
    )
