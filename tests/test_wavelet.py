import heapq
import io

import numpy as np
import pytest

import oracles
from succix.bits import IntVector
from succix.compressed import RRRVector
from succix.serialize import HEADER_BYTES, FormatError
from succix.wavelet import WaveletTree, WaveletTreeHuff, huffman_lengths


def reload(wt, patch=None, **parts):
    """Read back wt's serialization, with bytes {offset: value} patched and
    the named frame parts replaced."""
    frame = wt._frame()
    frame = frame._replace(
        parts=[(name, parts.get(name, part)) for name, part in frame.parts]
    )
    wt._frame = lambda: frame
    buf = io.BytesIO()
    wt.serialize(buf)
    data = bytearray(buf.getvalue())
    for pos, value in (patch or {}).items():
        data[pos] = value
    return type(wt).deserialize(io.BytesIO(bytes(data)))


def wt_level_bits(wt, level):
    bv = wt.levels[level]
    return [bv.access(i) for i in range(len(bv))]


class TestBalanced:
    def test_worked_example_levels(self):
        # doc array of the two-document walkthrough
        seq = [2, 1, 0, 0, 1, 0, 1, 0]
        wt = WaveletTree(seq)
        assert wt.height == 2
        assert wt_level_bits(wt, 0) == [1, 0, 0, 0, 0, 0, 0, 0]
        assert wt_level_bits(wt, 1) == [1, 0, 0, 1, 0, 1, 0, 0]
        assert wt.rank(8, 0) == 4
        assert wt.select(1, 2) == 0
        assert wt.select(4, 0) == 7
        assert [wt.access(i) for i in range(8)] == seq
        assert wt.count(0, 8, 1) == 3
        assert wt.count_distinct(0, 8) == 3
        assert wt.count_distinct(1, 4) == 2

    def test_levels_match_oracle(self):
        rng = np.random.default_rng(31)
        seq = rng.integers(0, 11, size=200)
        wt = WaveletTree(seq)
        expect = oracles.wavelet_levels(seq.tolist(), wt.height)
        for level in range(wt.height):
            assert wt_level_bits(wt, level) == expect[level]

    @pytest.mark.parametrize("sigma", [1, 2, 256, 257, 65536, 65537])
    def test_levels_at_key_dtype_boundaries(self, sigma):
        # level keys narrow to 8 or 16 bits where the symbols allow; runs of
        # the top symbols tie on every level's key
        rng = np.random.default_rng(sigma)
        top = sigma - 1 - rng.integers(0, min(sigma, 3), size=150)
        seq = rng.permutation(np.concatenate([
            rng.integers(0, sigma, size=150), top, [0, sigma - 1],
        ]))
        wt = WaveletTree(seq, sigma=sigma)
        expect = oracles.wavelet_levels(seq.tolist(), wt.height)
        for level in range(wt.height):
            assert wt_level_bits(wt, level) == expect[level]
        assert [wt.access(i) for i in range(len(seq))] == seq.tolist()

    @pytest.mark.parametrize("sigma", [1, 2, 3, 16, 100])
    def test_randomized_ops(self, sigma):
        rng = np.random.default_rng(sigma)
        seq = rng.integers(0, sigma, size=800)
        wt = WaveletTree(seq)
        assert wt.sigma >= int(seq.max()) + 1
        for i in rng.integers(0, 800, size=60):
            assert wt.access(int(i)) == int(seq[i])
        for c in range(min(sigma, 8)):
            positions = np.flatnonzero(seq == c)
            for i in rng.integers(0, 801, size=25):
                assert wt.rank(int(i), c) == int(
                    np.count_nonzero(seq[: int(i)] == c)
                )
            for j in (1, len(positions)):
                if j >= 1 and len(positions):
                    assert wt.select(j, c) == int(positions[j - 1])

    def test_count_distinct_matches_sets(self):
        """Intervals of width 0, 1 and 2 (one-row nodes appear from the
        root on), the whole sequence and random ones, over alphabets that
        are and are not a power of two; the top symbol plays the document
        array's separator, n_docs, which holds one row."""
        rng = np.random.default_rng(32)
        for sigma in (9, 11, 16):
            seq = rng.integers(0, sigma - 1, size=300)
            seq[int(rng.integers(0, 300))] = sigma - 1
            wt = WaveletTree(seq, sigma=sigma)
            n = len(seq)
            intervals = [(0, 0), (n, n), (0, n), (1, n), (0, n - 1)]
            intervals += [(i, i + w) for w in (0, 1, 2) for i in range(n - w + 1)]
            intervals += [sorted(rng.integers(0, n + 1, size=2)) for _ in range(50)]
            for lo, hi in intervals:
                assert wt.count_distinct(int(lo), int(hi)) == len(
                    set(seq[lo:hi].tolist())
                ), (sigma, lo, hi)

    @pytest.mark.parametrize("sigma", [2, 5, 11, 16])
    def test_descend_from_every_node_matches_access(self, sigma):
        """The level walk started at any inner node's level and any
        position of the node's run gives what access_rank gives for the
        same element: its symbol and its rank. (A leaf is below the last
        level; it has no level to walk.)"""
        rng = np.random.default_rng(41 + sigma)
        seq = rng.integers(0, sigma, size=200)
        wt = WaveletTree(seq, sigma=sigma)
        stack = [(wt.root(), 0, len(seq))]
        nodes = 0
        while stack:
            node, lo, hi = stack.pop()
            if wt.is_leaf(node):
                continue
            sym_lo, sym_hi = wt.node_symbol_range(node)
            # the node's run holds its symbols' elements in sequence order
            orig = np.flatnonzero((seq >= sym_lo) & (seq < sym_hi))
            assert len(orig) == hi - lo
            for t, i in enumerate(orig.tolist()):
                assert wt.descend(node[0], lo + t) == wt.access_rank(i)
                assert wt.access_rank(i)[0] == seq[i]
            nodes += 1
            stack.extend(wt.expand(node, lo, hi))
        assert nodes == 2**wt.height - 1

    def test_expand_partitions_interval(self):
        rng = np.random.default_rng(33)
        seq = rng.integers(0, 6, size=120)
        wt = WaveletTree(seq)
        root = wt.root()
        (lnode, llo, lhi), (rnode, rlo, rhi) = wt.expand(root, 10, 90)
        assert (lhi - llo) + (rhi - rlo) == 80
        lo_sym, hi_sym = wt.node_symbol_range(lnode)
        assert (lo_sym, hi_sym) == (0, 4)
        assert wt.node_symbol_range(rnode) == (4, 8)
        small = int(np.count_nonzero(seq[10:90] < 4))
        assert lhi - llo == small

    def test_expand_reaches_every_symbol_count(self):
        rng = np.random.default_rng(40)
        seq = rng.integers(0, 13, size=400)
        wt = WaveletTree(seq)
        lo, hi = 37, 311
        counts = {}
        stack = [(wt.root(), lo, hi)]
        while stack:
            node, qlo, qhi = stack.pop()
            if wt.is_leaf(node):
                counts[wt.node_symbol_range(node)[0]] = qhi - qlo
            else:
                stack.extend(wt.expand(node, qlo, qhi))
        assert counts == {
            c: int(np.count_nonzero(seq[lo:hi] == c)) for c in range(16)
        }

    def test_bit_calls_per_level(self, monkeypatch):
        """The bit calls the wavelet makes itself: expand one paired rank,
        access one access_rank per level, and rank and rank_pair one
        paired rank per level; calls made inside a bit call don't count."""
        rng = np.random.default_rng(39)
        seq = rng.integers(0, 50, size=3000)
        wt = WaveletTree(seq)
        names = ("rank", "access", "rank_pair", "access_rank")
        calls = dict.fromkeys(names, 0)
        inside = [0]
        for name in names:
            def counted(self, *args, _method=getattr(RRRVector, name), _name=name):
                calls[_name] += not inside[0]
                inside[0] += 1
                try:
                    return _method(self, *args)
                finally:
                    inside[0] -= 1
            monkeypatch.setattr(RRRVector, name, counted)

        def count(method, *args):
            calls.update(dict.fromkeys(names, 0))
            method(*args)
            return {name: n for name, n in calls.items() if n}

        h = wt.height
        left, right = wt.expand(wt.root(), 700, 2100)
        assert count(wt.expand, wt.root(), 700, 2100) == {"rank_pair": 1}
        assert count(wt.expand, *right) == {"rank_pair": 1}
        assert count(wt.expand, *left) == {"rank_pair": 1}
        for i in (1, 1500, 3000):
            assert count(wt.access, i - 1) == {"access_rank": h}
            for c in (int(seq[i - 1]), 49):
                assert count(wt.rank, i, c) == {"rank_pair": h}
                for j in (i, i + 1, 3000):
                    assert count(wt.rank_pair, i - 1, j, c) == {"rank_pair": h}
        assert count(wt.rank_pair, 0, 10, 50) == {}

    def test_select_out_of_range(self):
        wt = WaveletTree([0, 1, 0])
        with pytest.raises(ValueError):
            wt.select(3, 0)
        with pytest.raises(ValueError):
            wt.select(0, 0)

    def test_explicit_sigma_and_validation(self):
        wt = WaveletTree([0, 1], sigma=8)
        assert wt.height == 3
        assert wt.rank(2, 7) == 0
        with pytest.raises(ValueError):
            WaveletTree([9], sigma=8)
        with pytest.raises(ValueError):
            WaveletTree([-1])

    def test_round_trip(self):
        rng = np.random.default_rng(34)
        seq = rng.integers(0, 23, size=500)
        wt = WaveletTree(seq)
        buf = io.BytesIO()
        written = wt.serialize(buf)
        assert written == wt.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        wt2 = WaveletTree.deserialize(buf)
        assert wt2.sigma == wt.sigma
        assert all(isinstance(bv, RRRVector) for bv in wt2.levels)
        assert [wt2.access(i) for i in range(0, 500, 17)] == [
            wt.access(i) for i in range(0, 500, 17)
        ]
        assert wt2.rank(400, 5) == wt.rank(400, 5)

    def test_rejects_height_not_matching_sigma(self):
        wt = WaveletTree(np.arange(40) % 6, sigma=8)
        assert wt.height == 3
        wt.sigma = 200
        with pytest.raises(FormatError):
            reload(wt)

    def test_rejects_level_not_n(self):
        wt = WaveletTree(np.arange(40) % 6)
        wt.levels[-1] = RRRVector(np.zeros(39, dtype=bool))
        with pytest.raises(FormatError):
            reload(wt)

    def test_size_tree_matches_stream(self):
        wt = WaveletTree(np.arange(64) % 5)
        buf = io.BytesIO()
        wt.serialize(buf)
        assert wt.size_tree().total_bytes == len(buf.getvalue())


class TestHuffmanCodes:
    def test_lengths_are_optimal(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            nsym = int(rng.integers(1, 12))
            freqs = {s: int(rng.integers(1, 50)) for s in range(nsym)}
            lengths = huffman_lengths(list(freqs.values()))
            expect = oracles.huffman_code_lengths(freqs)
            cost = sum(freqs[s] * lengths[s] for s in freqs)
            expect_cost = sum(freqs[s] * expect[s] for s in freqs)
            assert cost == expect_cost

    @pytest.mark.parametrize("case", ["wide", "fibonacci"])
    def test_lengths_are_optimal_when_large_or_deep(self, case):
        rng = np.random.default_rng(41)
        if case == "wide":
            freqs = {s: int(f) for s, f in enumerate(rng.integers(1, 9, 5000))}
        else:
            fib = [1, 1]
            while len(fib) < 36:
                fib.append(fib[-1] + fib[-2])
            freqs = {s: f for s, f in enumerate(rng.permutation(fib).tolist())}
        lengths = huffman_lengths(list(freqs.values()))
        assert (lengths > 0).all()
        # an optimal code costs the sum of all merged weights
        heap = list(freqs.values())
        heapq.heapify(heap)
        expect_cost = 0
        while len(heap) > 1:
            merged = heapq.heappop(heap) + heapq.heappop(heap)
            expect_cost += merged
            heapq.heappush(heap, merged)
        assert sum(freqs[s] * lengths[s] for s in freqs) == expect_cost
        assert sum(2.0 ** -int(l) for l in lengths) == 1.0
        if case == "fibonacci":
            assert lengths.max() >= 30

    def test_single_symbol(self):
        assert huffman_lengths([0, 0, 0, 0, 0, 10]).tolist() == [0] * 5 + [1]

    def test_absent_symbols_get_no_code_and_ties_go_to_the_smaller(self):
        # three equal counts: the two smaller symbols merge first, deepest
        assert huffman_lengths([4, 0, 4, 4]).tolist() == [2, 0, 2, 1]


class TestHuffShaped:
    def test_matches_plain_counting(self):
        rng = np.random.default_rng(36)
        # skewed byte distribution
        seq = rng.choice([65, 66, 67, 100, 200], size=900, p=[0.5, 0.25, 0.12, 0.08, 0.05])
        wt = WaveletTreeHuff(seq)
        assert wt.sigma == 201 and np.count_nonzero(wt.lengths) == 5
        for i in rng.integers(0, 900, size=60):
            assert wt.access(int(i)) == int(seq[i])
        for c in (65, 66, 200, 7):
            for i in rng.integers(0, 901, size=30):
                assert wt.rank(int(i), c) == int(
                    np.count_nonzero(seq[: int(i)] == c)
                )
        positions = np.flatnonzero(seq == 66)
        assert wt.select(1, 66) == int(positions[0])
        assert wt.select(len(positions), 66) == int(positions[-1])
        assert wt.rank(wt.n, 65) == int(np.count_nonzero(seq == 65))

    def test_single_symbol_sequence(self):
        wt = WaveletTreeHuff([9] * 40)
        assert wt.rank(25, 9) == 25
        assert wt.access(13) == 9
        assert wt.select(40, 9) == 39

    def test_compresses_skewed_input(self):
        rng = np.random.default_rng(37)
        n = 60_000
        seq = rng.choice(
            np.arange(32), size=n, p=_zipf_probs(32)
        )
        huff = WaveletTreeHuff(seq)
        balanced = WaveletTree(seq, sigma=32)
        assert huff.serialized_bytes() < balanced.serialized_bytes()

    def test_round_trip_identical_bytes(self):
        rng = np.random.default_rng(38)
        seq = rng.integers(0, 40, size=700)
        wt = WaveletTreeHuff(seq)
        buf = io.BytesIO()
        written = wt.serialize(buf)
        assert written == wt.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        wt2 = WaveletTreeHuff.deserialize(buf)
        assert np.array_equal(wt2.codes, wt.codes)
        for i in range(0, 700, 31):
            assert wt2.access(i) == wt.access(i)
        # same content must re-serialize to the same bytes
        buf2 = io.BytesIO()
        wt2.serialize(buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_rejects_root_not_n(self):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        wt.n += 1
        with pytest.raises(FormatError):
            reload(wt)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            WaveletTreeHuff([])
        with pytest.raises(ValueError):
            WaveletTreeHuff([-1])
        assert WaveletTreeHuff([300]).access(0) == 300

    def test_rejects_code_longer_than_63(self):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        lengths = wt.lengths.copy()
        lengths[0] = 64
        with pytest.raises(FormatError, match="over 63"):
            reload(wt, lengths=IntVector(lengths, 7))

    @pytest.mark.parametrize("change", ["longer", "shorter", "all 63", "none"])
    def test_rejects_lengths_not_a_complete_prefix_code(self, change):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        lengths = wt.lengths.copy()
        if change == "longer":
            lengths[np.argmax(lengths)] += 1  # Kraft sum below 1
        elif change == "shorter":
            lengths[np.argmax(lengths)] -= 1  # above 1
        elif change == "all 63":
            lengths[:] = 63
        else:
            lengths[:] = 0
        with pytest.raises(FormatError, match="prefix code|has no code"):
            reload(wt, lengths=IntVector(lengths, 6))

    def test_rejects_counts_not_summing_to_n(self):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        counts = wt.counts.copy()
        counts[2] += 1
        with pytest.raises(FormatError, match="counts"):
            reload(wt, counts=IntVector(counts, 6))

    def test_rejects_level_not_its_code_count(self):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        last = wt.height - 1
        assert 0 < len(wt.levels[last]) < wt.n
        # one bit short of the elements whose code reaches the last level
        short = RRRVector(wt.levels[last].to_bool()[:-1])
        with pytest.raises(FormatError, match="level"):
            reload(wt, **{f"level{last}": short})

    def test_rejects_table_longer_than_sigma(self):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        # sigma is the u64 after the header
        with pytest.raises(FormatError, match="sigma"):
            reload(wt, {HEADER_BYTES: wt.sigma - 1})


def _random_lengths(rng, n_leaves):
    """Leaf depths of a random full binary tree with n_leaves leaves."""
    depths = [0]
    for _ in range(n_leaves - 1):
        d = depths.pop(int(rng.integers(0, len(depths))))
        depths += [d + 1, d + 1]
    return depths


def _length_sets(rng):
    yield "one symbol", [1]
    yield "two symbols", [1, 1]
    yield "all equal", [4] * 16
    yield "fibonacci", list(range(1, 20)) + [19]
    for k in (3, 7, 40, 300):
        yield f"random {k}", _random_lengths(rng, k)


class TestSharedCore:
    """The matrix both shapes share, over complete code length sets given
    directly (in place of the Huffman lengths of the counts)."""

    def test_property_over_length_sets(self, monkeypatch):
        rng = np.random.default_rng(42)
        for name, depths in _length_sets(rng):
            # symbols spread over [0, 5000), most of them above 255
            symbols = rng.choice(5000, size=len(depths), replace=False)
            lengths = np.zeros(5000, dtype=np.int64)
            lengths[symbols] = depths
            seq = rng.permutation(
                np.repeat(symbols, rng.integers(1, 30, size=len(symbols)))
            )
            monkeypatch.setattr(
                WaveletTreeHuff, "_lengths", staticmethod(lambda _: lengths)
            )
            wt = WaveletTreeHuff(seq, sigma=5000)
            assert np.array_equal(wt.lengths, lengths), name
            self._check_prefix_free(wt, symbols)
            self._check_levels(wt, seq)
            self._check_queries(wt, seq, symbols, rng)
            assert reload(wt).access(0) == seq[0]

    @staticmethod
    def _check_prefix_free(wt, symbols):
        words = sorted(
            format(int(wt.codes[s]), f"0{int(wt.lengths[s])}b") for s in symbols
        )
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a)

    @staticmethod
    def _check_levels(wt, seq):
        """Each level holds bit l of every code longer than l, and the
        elements whose code ends there are the tail of the next order."""
        codes, lengths = wt.codes.astype(np.int64), wt.lengths
        cur = seq
        for level, bv in enumerate(wt.levels):
            shift = lengths[cur] - 1 - level
            bits = (codes[cur] >> shift) & 1
            assert [bv.access(i) for i in range(len(bv))] == bits.tolist()
            order = np.concatenate((cur[bits == 0], cur[bits == 1]))
            ended = lengths[order] == level + 1
            tail = len(order) - int(ended.sum())
            assert not ended[:tail].any() and ended[tail:].all()
            cur = order[:tail]
        assert len(cur) == 0

    @staticmethod
    def _check_queries(wt, seq, symbols, rng):
        n = len(seq)
        for i in rng.integers(0, n, size=40).tolist() + [0, n - 1]:
            c = int(seq[i])
            rank = int(np.count_nonzero(seq[:i] == c))
            assert wt.access(i) == c
            assert wt.access_rank(i) == (c, rank)
        for c in rng.choice(symbols, size=min(len(symbols), 6)).tolist() + [7, 4999]:
            positions = np.flatnonzero(seq == c)
            for i in (0, 1, n // 2, n, n + 3):
                assert wt.rank(i, c) == int(np.count_nonzero(seq[:i] == c))
            if len(positions):
                assert wt.select(len(positions), c) == int(positions[-1])

    @pytest.mark.parametrize("shape", [WaveletTree, WaveletTreeHuff])
    def test_rank_takes_one_bit_rank_per_code_bit(self, shape, monkeypatch):
        rng = np.random.default_rng(43)
        seq = rng.choice(300, size=3000, p=_zipf_probs(300))
        wt = shape(seq, sigma=300)
        calls = []
        rank_pair = RRRVector.rank_pair
        monkeypatch.setattr(
            RRRVector, "rank_pair",
            lambda self, i, j: calls.append(i) or rank_pair(self, i, j),
        )
        for c in (0, 1, 17, 299):
            calls.clear()
            assert wt.rank(2000, c) == int(np.count_nonzero(seq[:2000] == c))
            assert len(calls) == wt.lengths[c]
            calls.clear()
            assert wt.count(700, 2000, c) == int(np.count_nonzero(seq[700:2000] == c))
            assert len(calls) == wt.lengths[c]

    @pytest.mark.parametrize("shape", [WaveletTree, WaveletTreeHuff])
    def test_rank_pair_is_two_ranks(self, shape):
        """rank_pair(i, j, c) over every present symbol, an absent one (it
        has a code in the balanced shape only) and c out of range, with
        i = j, i and j in one block and far apart, and ends clamped."""
        rng = np.random.default_rng(44)
        seq = rng.choice(40, size=2500, p=_zipf_probs(40))
        seq[seq == 5] = 6
        wt = shape(seq, sigma=41)
        n = len(seq)
        ends = [(0, 0), (0, n), (n, n), (-3, 4), (n - 2, n + 5), (-2, -1)]
        ends += [(i, i + w) for i in (1, 14, 480, 1999) for w in (0, 1, 7, 500)]
        ends += [sorted(rng.integers(0, n + 1, size=2).tolist()) for _ in range(30)]
        for c in list(range(41)) + [-1, 41, 1000]:
            prefix = np.concatenate(([0], np.cumsum(seq == c))).tolist()
            for i, j in ends:
                expect = prefix[min(max(i, 0), n)], prefix[min(max(j, 0), n)]
                assert wt.rank_pair(i, j, c) == expect, (c, i, j)
                assert (wt.rank(i, c), wt.rank(j, c)) == expect

    @pytest.mark.parametrize("shape", [WaveletTree, WaveletTreeHuff])
    def test_numpy_integer_arguments(self, shape, monkeypatch):
        """numpy integers answer as Python ints do, and are converted once
        at the wavelet: the bit calls below see Python ints only."""
        rng = np.random.default_rng(45)
        seq = rng.integers(0, 30, size=1200)
        wt = shape(seq, sigma=30)
        seen = set()
        for name in ("rank", "rank_pair"):
            def typed(self, *args, _method=getattr(RRRVector, name)):
                seen.update(type(a) for a in args)
                return _method(self, *args)
            monkeypatch.setattr(RRRVector, name, typed)
        for i, c in ((0, 3), (17, 29), (600, 0), (1200, 11)):
            expected = wt.rank(i, c)
            for t in (np.int64, np.int32, np.uint16):
                assert wt.rank(t(i), t(c)) == expected
                assert type(wt.rank(t(i), t(c))) is int
            assert wt.count(np.int64(i // 2), np.int64(i), np.int64(c)) == (
                expected - wt.rank(i // 2, c)
            )
        if shape is WaveletTree:
            for lo, hi in ((0, 1200), (5, 6), (100, 900)):
                distinct = len(set(seq[lo:hi].tolist()))
                assert wt.count_distinct(lo, hi) == distinct
                assert wt.count_distinct(np.int64(lo), np.int64(hi)) == distinct
        assert seen == {int}


def _zipf_probs(k, s=1.3):
    p = 1.0 / np.arange(1, k + 1) ** s
    return p / p.sum()
