import io

import numpy as np
import pytest

import example_data as ex
import oracles
from succix import construct
from succix.bits import IntVector, SelectSupport, width_for
from succix.construct import (
    ByteAlphabet,
    Collection,
    DocIsaTable,
    SaSamples,
    WordAlphabet,
    build_suffix_array,
    bwt_from_sa,
    d_from_sa,
    doc_of_positions,
    prev_next_occurrence,
    psi_from_bwt,
    read_alphabet,
    read_byte_docs,
    read_word_docs,
)
from succix.corpus import make_docs
from succix.csa import CsaPsi
from succix.monitor import memory_monitor
from succix.serialize import FormatError


@pytest.fixture
def coll():
    return Collection(ex.DOCS, ByteAlphabet.from_docs(ex.DOCS))


class TestAlphabets:
    def test_byte_remap_is_dense(self):
        a = ByteAlphabet.from_docs(ex.DOCS)
        assert a.sigma == 2
        assert list(a.comp2char) == [ord("a"), ord("b")]
        assert list(a.encode_doc(b"aba")) == [2, 3, 2]
        assert a.decode([2, 3, 2]) == b"aba"
        assert a.encode_pattern(b"ba").tolist() == [3, 2]
        assert a.encode_pattern(b"ax") is None

    def test_byte_round_trip(self):
        a = ByteAlphabet.from_docs([b"hello", b"world"])
        buf = io.BytesIO()
        written = a.serialize(buf)
        assert written == a.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        b = read_alphabet(buf)
        assert isinstance(b, ByteAlphabet)
        assert list(b.comp2char) == list(a.comp2char)

    def test_word_ids_lexicographic(self):
        docs = [["the", "dog"], ["the", "cat"]]
        a = WordAlphabet.from_docs(docs)
        assert a.tokens == ["cat", "dog", "the"]
        assert a.token2id == {"cat": 2, "dog": 3, "the": 4}
        assert list(a.encode_doc(["the", "cat"])) == [4, 2]
        assert a.decode([4, 2]) == ["the", "cat"]
        assert a.encode_pattern("the dog").tolist() == [4, 3]
        assert a.encode_pattern("the bird") is None

    def test_word_round_trip_and_sidecar(self, tmp_path):
        a = WordAlphabet.from_docs([["b", "a"], ["c"]])
        buf = io.BytesIO()
        written = a.serialize(buf)
        assert written == a.serialized_bytes()
        buf.seek(0)
        b = read_alphabet(buf)
        assert isinstance(b, WordAlphabet)
        assert b.tokens == ["a", "b", "c"]
        side = tmp_path / "vocab.tsv"
        a.write_sidecar(side)
        assert side.read_text() == "a\t2\nb\t3\nc\t4\n"


class TestReaders:
    def test_byte_docs(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"aba\nab\n")
        assert read_byte_docs(p) == [b"aba", b"ab"]
        p.write_bytes(b"aba\nab")
        assert read_byte_docs(p) == [b"aba", b"ab"]
        p.write_bytes(b"a\n\nb\n")
        assert read_byte_docs(p) == [b"a", b"", b"b"]
        p.write_bytes(b"x|y|")
        assert read_byte_docs(p, sep=ord("|")) == [b"x", b"y"]
        p.write_bytes(b"")
        assert read_byte_docs(p) == []

    def test_word_docs(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("the dog\n\nthe  cat\n")
        assert read_word_docs(p) == [["the", "dog"], [], ["the", "cat"]]


class TestCollection:
    def test_worked_example_layout(self, coll):
        assert coll.n == ex.N
        assert coll.text.tolist() == ex.TEXT
        assert coll.offsets.tolist() == ex.OFFSETS
        assert coll.lengths.tolist() == ex.LENGTHS
        assert coll.sharp_positions.tolist() == ex.SHARP_POSITIONS
        assert coll.sigma_total == 4
        assert doc_of_positions(coll.sharp_positions, 8).tolist() == [
            0, 0, 0, 0, 1, 1, 1, 2,
        ]

    def test_packed_text(self, coll):
        iv = coll.packed_text()
        assert iv.width == 2
        assert iv.to_numpy().tolist() == ex.TEXT

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            Collection([], ByteAlphabet([]))

    def test_from_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"aba\nab\n")
        coll = Collection.from_file(p, "byte")
        assert coll.text.tolist() == ex.TEXT


class TestSuffixArray:
    def test_worked_example(self, coll):
        sa, sa_iv = build_suffix_array(coll.text)
        assert sa.tolist() == ex.SA
        assert sa_iv.to_numpy().tolist() == ex.SA
        assert oracles.inverse_permutation(sa) == ex.ISA

    def test_tiny_text(self):
        sa, _ = build_suffix_array([2, 3, 0])
        assert sa.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_vs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for sigma in (2, 3, 10):
            n = int(rng.integers(2, 180))
            t = rng.integers(2, 2 + sigma, size=n)
            t[-1] = 0
            sa, _ = build_suffix_array(t)
            assert sa.tolist() == oracles.suffix_array(t.tolist())

    def test_periodic_texts(self):
        for text in ("abababab", "aaaaaaa", "abcabcabc", "aabaab"):
            t = [ord(c) - ord("a") + 2 for c in text] + [0]
            sa, _ = build_suffix_array(t)
            assert sa.tolist() == oracles.suffix_array(t)

    def test_empty(self):
        sa, iv = build_suffix_array([])
        assert len(sa) == 0 and iv is None

    @staticmethod
    def _check(t):
        sa, sa_iv = build_suffix_array(t)
        assert sa.tolist() == oracles.suffix_array(list(t))
        width = width_for(max(len(t) - 1, 1))
        assert np.array_equal(sa_iv.words, IntVector(sa, width).words)

    @pytest.mark.parametrize(
        "t", [[2, 0, 0, 0], [0, 0, 0], [3, 2, 0, 2, 0, 0], [0], [5, 5]]
    )
    def test_no_unique_terminator(self, t):
        # a position past the end must sort below symbol 0
        self._check(t)

    # the largest symbol sets the width, so the first key packs h = 8, 3, 2, 1
    @pytest.mark.parametrize("hi", [100, 1 << 17, 1 << 25, 1 << 40])
    def test_first_key_widths(self, hi):
        rng = np.random.default_rng(hi % 97)
        for n in (30, 200):
            # three symbols: long repeats, so the doubling rounds run
            t = rng.choice([0, 2, hi], size=n, p=[0.1, 0.6, 0.3])
            self._check(t.tolist())
            self._check(t.tolist() + [0])

    @pytest.mark.parametrize("n", range(1, 10))
    def test_shorter_than_first_key(self, n):
        rng = np.random.default_rng(n)
        self._check([100] * n)
        for _ in range(10):
            self._check(rng.integers(0, 4, size=n).tolist() + [100])
            self._check(rng.choice([0, 2, 100], size=n).tolist())

    @pytest.mark.parametrize("text", ["ab" * 500, "a" * 1000])
    def test_long_periodic_texts(self, text):
        self._check([ord(c) - ord("a") + 2 for c in text] + [0])

    @pytest.mark.parametrize(
        "t",
        [
            [2**31, 2, 0],
            [2**40, 5, 0],
            [2**62, 1, 2**62, 2**62, 0],
            [2**63 - 2, 0, 2**63 - 2, 2**63 - 3],
        ],
    )
    def test_wide_symbols_exact(self, t):
        self._check(t)

    @pytest.mark.parametrize(
        "t",
        [
            [2, -1, 0],
            [2**63 - 1, 0],
            [2**63, 5, 0],
            np.array([2**64 - 1, 0], dtype=np.uint64),
            [2.0, 0.0],
        ],
    )
    def test_symbol_out_of_range_rejected(self, t):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63 - 1\)"):
            build_suffix_array(t)

    def test_length_limit_checked_before_allocation(self):
        # a zero-stride view: 2**31 symbols without 16 GB behind them
        t = np.broadcast_to(np.int64(2), 1 << 31)
        with pytest.raises(ValueError, match="too long"):
            build_suffix_array(t)

    @pytest.mark.parametrize(
        "t", [[[2], [3], [0]], 5, np.zeros((2, 2), dtype=np.int64)]
    )
    def test_not_1d_rejected(self, t):
        with pytest.raises(ValueError, match="1-d"):
            build_suffix_array(t)


def _fibonacci_word(n):
    a, b = [2], [2, 3]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _mutated_repeats(seed):
    rng = np.random.default_rng(seed)
    t = np.tile(rng.integers(2, 5, size=37), 20)
    t[rng.choice(len(t), size=4, replace=False)] = 5
    return t.tolist()


# ties that outlast several doubling rounds
TIED_TEXTS = {
    "fibonacci": _fibonacci_word(610),
    "mutated-repeats": _mutated_repeats(11),
    **{f"run-{n}": [2] * n for k in (3, 6, 9) for n in (2**k - 1, 2**k + 1)},
}


def _widened(t, h):
    """t with its largest symbol raised so that the first key packs
    max(1, (63 - width_for(n - 1)) // bits) = h symbols, or h + 1 where no
    width gives h; h = 0 takes the largest symbol allowed, whose key and
    position do not fit in 63 bits, so the first sort is an argsort."""
    room = 63 - width_for(max(len(t) - 1, 1))
    bits = 63 if h == 0 else room // h
    assert max(h, 1) <= max(1, room // bits) <= h + 1
    top = max(t)
    return [(1 << bits) - 2 if c == top else c for c in t]


class TestTiedRounds:
    @pytest.mark.parametrize("h", [8, 3, 2, 1, 0])
    @pytest.mark.parametrize("name", sorted(TIED_TEXTS))
    @pytest.mark.parametrize("terminated", [False, True])
    def test_matches_oracle(self, name, h, terminated):
        t = TIED_TEXTS[name] + ([0] if terminated else [])
        TestSuffixArray._check(_widened(t, h))

    @pytest.mark.parametrize("name", sorted(TIED_TEXTS))
    def test_argsort_path_matches(self, name, monkeypatch):
        calls = []

        def argsort_only(key, key_bits):
            calls.append(key_bits)
            return sort_groups(key, 63)

        sort_groups = construct._sort_groups
        monkeypatch.setattr(construct, "_sort_groups", argsort_only)
        TestSuffixArray._check(TIED_TEXTS[name] + [0])
        assert calls

    @pytest.mark.parametrize("key_bits", [1, 20, 40, 63])
    def test_sort_groups(self, key_bits):
        rng = np.random.default_rng(key_bits)
        for m in (1, 2, 1000):
            key = rng.integers(0, 1 << key_bits, size=m)
            key[rng.integers(0, m, size=m // 2)] = key[0]
            order, starts = construct._sort_groups(key.copy(), key_bits)
            s = key[order]
            assert np.all(s[1:] >= s[:-1])
            assert sorted(order.tolist()) == list(range(m))
            expect = [True] + (s[1:] != s[:-1]).tolist() + [True]
            assert starts.tolist() == expect

    def test_tracked_peak_is_two_packed_vectors(self):
        docs = make_docs(300, 40, seed=18, mean_len=50)
        coll = Collection(docs, ByteAlphabet.from_docs(docs))
        memory_monitor.start()
        try:
            _, sa_iv = build_suffix_array(coll.text)
            peak = memory_monitor.peak_bytes
        finally:
            memory_monitor.stop()
        assert peak == 2 * sa_iv.words.nbytes


class TestBwtPsiD:
    def test_worked_example_bwt(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        bwt_iv = bwt_from_sa(coll.packed_text(), sa_iv)
        assert bwt_iv.to_numpy().tolist() == ex.BWT

    def test_worked_example_psi(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        bwt_iv = bwt_from_sa(coll.packed_text(), sa_iv)
        psi = psi_from_bwt(bwt_iv, coll.sigma_total)
        assert psi.bounds == ex.CNT
        assert psi.to_values().tolist() == ex.PSI

    def test_worked_example_d(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        d_iv = d_from_sa(sa_iv, coll.sharp_positions, coll.n_docs)
        assert d_iv.to_numpy().tolist() == ex.D

    @pytest.mark.parametrize("seed", [5, 6])
    def test_randomized_streaming_matches_oracle(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        t = rng.integers(2, 6, size=3000).astype(np.int64)
        t[-1] = 0
        sa, sa_iv = build_suffix_array(t)
        t_iv = IntVector(t, 3)
        # small chunks force the streaming paths across boundaries
        monkeypatch.setattr(construct, "_CHUNK", 256)
        bwt_iv = bwt_from_sa(t_iv, sa_iv)
        assert bwt_iv.to_numpy().tolist() == oracles.bwt(t.tolist(), sa.tolist())
        psi = psi_from_bwt(bwt_iv, 6)
        expect_psi = oracles.psi(t.tolist(), sa.tolist())
        assert psi.to_values().tolist() == expect_psi

    @pytest.mark.parametrize("sigma_total", [256, 257, 70000])
    def test_psi_at_key_dtype_boundaries(self, sigma_total):
        # the BWT sorts as uint8, uint16 and uint32 keys
        rng = np.random.default_rng(sigma_total)
        t = rng.integers(2, sigma_total, size=1500)
        t[rng.integers(0, 1499, size=200)] = sigma_total - 1
        t[-1] = 0
        sa, sa_iv = build_suffix_array(t)
        t_iv = IntVector(t, width_for(sigma_total - 1))
        psi = psi_from_bwt(bwt_from_sa(t_iv, sa_iv), sigma_total)
        assert psi.to_values().tolist() == oracles.psi(t.tolist(), sa.tolist())
        hist = np.bincount(t, minlength=sigma_total)
        assert list(psi.bounds) == [0] + np.cumsum(hist).tolist()

    @pytest.mark.parametrize("n_docs", [255, 256])
    def test_d_matches_sharp_search(self, n_docs, monkeypatch):
        # document ids of 8 and 16 bits; the global terminator's is n_docs
        rng = np.random.default_rng(n_docs)
        docs = [bytes(rng.integers(97, 101, size=rng.integers(0, 6)).tolist())
                for _ in range(n_docs)]
        coll = Collection(docs, ByteAlphabet.from_docs(docs))
        sa, sa_iv = build_suffix_array(coll.text)
        monkeypatch.setattr(construct, "_CHUNK", 128)
        d_iv = d_from_sa(sa_iv, coll.sharp_positions, coll.n_docs)
        expect = np.searchsorted(coll.sharp_positions, sa, side="left")
        assert d_iv.to_numpy().tolist() == expect.tolist()

    @pytest.mark.parametrize("hi", [255, 256, 65535, 65536])
    def test_prev_next_at_key_dtype_boundaries(self, hi):
        rng = np.random.default_rng(hi)
        d = rng.choice([0, 1, hi - 1, hi], size=300)
        prev, nxt = prev_next_occurrence(d)
        for i in range(300):
            before = [j for j in range(i) if d[j] == d[i]]
            after = [j for j in range(i + 1, 300) if d[j] == d[i]]
            assert prev[i] == (before[-1] if before else -1)
            assert nxt[i] == (after[0] if after else 300)

    def test_prev_next_worked_example(self):
        prev, nxt = prev_next_occurrence(ex.D)
        assert prev.tolist() == ex.C_PREV
        assert nxt.tolist() == ex.C_NEXT

    def test_prev_next_randomized(self):
        rng = np.random.default_rng(7)
        d = rng.integers(0, 5, size=400)
        prev, nxt = prev_next_occurrence(d)
        for i in range(400):
            before = [j for j in range(i) if d[j] == d[i]]
            after = [j for j in range(i + 1, 400) if d[j] == d[i]]
            assert prev[i] == (before[-1] if before else -1)
            assert nxt[i] == (after[0] if after else 400)


def _table(table, d):
    """Document d's whole ISA table, read through get."""
    values = []
    while True:
        try:
            values.append(table.get(d, len(values)))
        except IndexError:
            return values


class TestDocIsa:
    def test_worked_example(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        table = DocIsaTable.build(sa_iv, coll.offsets, coll.lengths)
        assert len(table) == 2
        assert _table(table, 0) == ex.DOC0_ISA
        assert _table(table, 1) == ex.DOC1_ISA
        assert table.get(0, 0) == 2
        assert table.get(1, 2) == 0

    def test_matches_local_suffix_sort(self):
        rng = np.random.default_rng(8)
        # few symbols, so documents share long substrings
        docs = [rng.integers(2, 5, size=int(rng.integers(1, 40))) for _ in range(30)]
        offsets = np.cumsum([0] + [len(d) + 1 for d in docs[:-1]])
        text = np.concatenate([np.append(d, 1) for d in docs] + [[0]])
        lengths = np.array([len(d) for d in docs])
        _, sa_iv = build_suffix_array(text)
        table = DocIsaTable.build(sa_iv, offsets, lengths)
        for d, doc in enumerate(docs):
            local = doc.tolist() + [0]
            sa = oracles.suffix_array(local)
            isa = oracles.inverse_permutation(sa)
            assert _table(table, d) == isa

    def test_round_trip(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        table = DocIsaTable.build(sa_iv, coll.offsets, coll.lengths)
        buf = io.BytesIO()
        written = table.serialize(buf)
        assert written == table.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        back = DocIsaTable.deserialize(buf)
        assert _table(back, 0) == ex.DOC0_ISA


class TestSaSamples:
    def test_text_order_worked_example(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        s = SaSamples.build(sa_iv, 2)
        assert np.flatnonzero(s.marked.to_bool()).tolist() == [1, 3, 4, 5]
        assert [s.lookup(r) for r in range(8)] == [
            None, 6, None, 2, 4, 0, None, None,
        ]
        assert [s.isa_sample(t) for t in range(4)] == [5, 3, 4, 1]

    # ids keep the names these cases had beside the removed suffix order
    @pytest.mark.parametrize("rate", [1, 4, 32, 10_000], ids="{}-text".format)
    def test_randomized_lookup(self, rate, monkeypatch):
        rng = np.random.default_rng(rate)
        t = rng.integers(2, 6, size=5000).astype(np.int64)
        t[-1] = 0
        sa, sa_iv = build_suffix_array(t)
        monkeypatch.setattr(construct, "_CHUNK", 1024)
        s = SaSamples.build(sa_iv, rate)
        got_rate = min(rate, 5000)
        assert s.rate == got_rate
        for row in rng.integers(0, 5000, size=200):
            v = s.lookup(int(row))
            expect = int(sa[row]) if sa[row] % got_rate == 0 else None
            assert v == expect
        isa = oracles.inverse_permutation(sa)
        for tpos in range(0, 5000 // got_rate, max(1, 500 // got_rate)):
            assert s.isa_sample(tpos) == isa[tpos * got_rate]

    @pytest.mark.parametrize("rate", [1, 2, 32, 3000, 3005])
    def test_lookup_every_row(self, rate, monkeypatch):
        """lookup(r) is SA[r] exactly at the rows whose value is a multiple
        of the rate, which build clamps to [1, n]."""
        rng = np.random.default_rng(17)
        t = rng.integers(2, 5, size=3000).astype(np.int64)
        t[-1] = 0
        sa, sa_iv = build_suffix_array(t)
        monkeypatch.setattr(construct, "_CHUNK", 1024)
        s = SaSamples.build(sa_iv, rate)
        got_rate = min(rate, 3000)
        assert s.rate == got_rate
        expect = [int(v) if v % got_rate == 0 else None for v in sa]
        assert [s.lookup(r) for r in range(3000)] == expect
        assert s.marked.count_ones() == -(-3000 // got_rate)

    def test_sa_access_makes_no_select_for_its_mark_tests(self, monkeypatch):
        """Every select under CsaPsi.sa_access is a Psi step's select1:
        the mark is read from its RRR class bytes and blocks."""
        rng = np.random.default_rng(19)
        t = rng.integers(2, 6, size=4000).astype(np.int64)
        t[-1] = 0
        sa, sa_iv = build_suffix_array(t)
        csa = CsaPsi.build(IntVector(t, 3), sa_iv, 6, 32)
        calls = {"select": 0, "psi": 0}

        def counting(cls, name):
            method = getattr(cls, name)

            def counted(*args):
                calls[name] += 1
                return method(*args)
            monkeypatch.setattr(cls, name, counted)

        counting(SelectSupport, "select")
        counting(CsaPsi, "psi")
        for row in rng.integers(0, 4000, size=300).tolist():
            calls.update(select=0, psi=0)
            assert csa.sa_access(row) == sa[row]
            assert calls["select"] == calls["psi"] == -sa[row] % 32

    def test_round_trip(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        s = SaSamples.build(sa_iv, 2)
        buf = io.BytesIO()
        written = s.serialize(buf)
        assert written == s.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        back = SaSamples.deserialize(buf)
        assert back.rate == 2
        assert [back.lookup(r) for r in range(8)] == [
            s.lookup(r) for r in range(8)
        ]

    def test_unknown_sampling_kind_rejected(self, coll):
        _, sa_iv = build_suffix_array(coll.text)
        buf = io.BytesIO()
        SaSamples.build(sa_iv, 2).serialize(buf)
        data = bytearray(buf.getvalue())
        data[9] = 1  # header width byte: the sampling kind
        with pytest.raises(FormatError):
            SaSamples.deserialize(io.BytesIO(bytes(data)))
