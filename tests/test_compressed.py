import io
import math

import numpy as np
import pytest

import oracles
from succix import serialize
from succix.bits import BackedBits, BitVector, read_field
from succix.compressed import (
    RRRVector,
    SDVector,
    decode_block,
    encode_block,
    make_bits,
    read_bits,
)


class TestBlockCoding:
    def test_low_blocks_frozen(self):
        # colexicographic numbering: offset of {p_i} is sum C(p_i, i)
        assert encode_block(0b0001, 15) == (1, 0)
        assert encode_block(0b0010, 15) == (1, 1)
        assert encode_block(0b0011, 15) == (2, 0)
        assert encode_block(0b0101, 15) == (2, 1)
        assert encode_block(0b0110, 15) == (2, 2)
        # positions {1, 3}: C(1,1) + C(3,2) = 1 + 3 = 4
        assert encode_block(0b1010, 15) == (2, 4)

    def test_offset_matches_oracle(self):
        rng = np.random.default_rng(21)
        for t in (15, 31, 63):
            for _ in range(60):
                word = int(rng.integers(0, 1 << t, dtype=np.uint64))
                c, off = encode_block(word, t)
                bits = [(word >> p) & 1 for p in range(t)]
                assert c == sum(bits)
                assert off == oracles.rrr_offset(bits)
                assert decode_block(c, off, t) == word

    def test_offset_range_is_dense(self):
        # every offset in [0, C(t,c)) decodes to a distinct same-class block
        t = 15
        for c in (0, 1, 7, 15):
            total = math.comb(t, c)
            seen = set()
            for off in range(min(total, 300)):
                v = decode_block(c, off, t)
                assert v.bit_count() == c
                assert encode_block(v, t) == (c, off)
                seen.add(v)
            assert len(seen) == min(total, 300)


class TestRRRVector:
    @pytest.mark.parametrize("t", [15, 31, 63])
    def test_exhaustive_small(self, t):
        for n in (0, 1, 5, t, t + 1, 2 * t + 3):
            rng = np.random.default_rng(n * t + 1)
            for _ in range(12):
                bits = rng.random(n) < rng.random()
                rv = RRRVector(bits, t)
                assert len(rv) == n
                assert rv.count_ones() == int(bits.sum())
                for i in range(n + 1):
                    assert rv.rank(i) == oracles.rank(bits, i)
                for i in range(n):
                    assert rv.access(i) == int(bits[i])

    @pytest.mark.parametrize("t,n", [(15, 200_000), (31, 20_000), (63, 9_000)])
    @pytest.mark.parametrize("density", [0.04, 0.5])
    def test_randomized_large(self, t, n, density):
        rng = np.random.default_rng(t + int(density * 10))
        bits = rng.random(n) < density
        rv = RRRVector(bits, t)
        cum = np.concatenate([[0], np.cumsum(bits)])
        for i in rng.integers(0, n + 1, size=300):
            assert rv.rank(int(i)) == int(cum[i])
        ones = np.flatnonzero(bits)
        zeros = np.flatnonzero(~bits)
        for j in rng.integers(1, len(ones) + 1, size=120):
            assert rv.select(int(j)) == int(ones[j - 1])
        for j in rng.integers(1, len(zeros) + 1, size=120):
            assert rv.select0(int(j)) == int(zeros[j - 1])
        with pytest.raises(ValueError):
            rv.select(len(ones) + 1)

    @pytest.mark.parametrize("t", [15, 31, 63])
    def test_superblock_edges(self, t):
        """rank/access within 2 of every block (and so superblock) edge,
        and select/select0 around every class change, over runs of empty
        and full blocks, built and reloaded."""
        rng = np.random.default_rng(t)
        sb = RRRVector.SB_BLOCKS * t
        parts = [
            rng.random(2 * sb + 5) < 0.5,
            np.zeros(40 * t, dtype=bool),
            rng.random(sb) < 0.05,
            np.ones(45 * t + 3, dtype=bool),
            rng.random(sb - 7) < 0.95,
            np.zeros(3 * sb, dtype=bool),
            np.ones(2 * t, dtype=bool),
            rng.random(sb + 11) < 0.5,
        ]
        bits = np.concatenate(parts)
        n = len(bits)
        assert n % t
        built = RRRVector(bits, t)
        buf = io.BytesIO()
        built.serialize(buf)
        buf.seek(0)
        cum = np.concatenate([[0], np.cumsum(bits)])
        near = (np.arange(0, n + t, t)[:, None] + np.arange(-2, 3)).ravel()
        ranks = np.unique(near[(near >= 0) & (near <= n)])
        padded = np.zeros(built.nblocks * t, dtype=bool)
        padded[:n] = bits
        classes = padded.reshape(-1, t).sum(axis=1)
        assert {0, t} <= set(classes.tolist())
        change = np.flatnonzero(np.diff(classes)) + 1
        for rv in (built, RRRVector.deserialize(buf)):
            assert np.array_equal([rv.rank(int(i)) for i in ranks], cum[ranks])
            reads = ranks[ranks < n]
            assert np.array_equal([rv.access(int(i)) for i in reads], bits[reads])
            for value, sel in ((1, rv.select), (0, rv.select0)):
                pos = np.flatnonzero(bits if value else ~bits)
                before = cum[change * t] if value else change * t - cum[change * t]
                js = (before[:, None] + np.arange(-1, 3)).ravel()
                js = np.unique(js[(js >= 1) & (js <= len(pos))])
                assert len(js) > 50
                assert np.array_equal([sel(int(j)) for j in js], pos[js - 1])

    def test_compresses_skewed_bits(self):
        n = 500_000
        rng = np.random.default_rng(5)
        skewed = RRRVector(rng.random(n) < 0.03)
        plain = BackedBits(BitVector(rng.random(n) < 0.03))
        assert skewed.serialized_bytes() < plain.serialized_bytes()
        assert skewed.serialized_bytes() < n // 8

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        for t in (15, 31, 63):
            bits = rng.random(5000) < 0.3
            rv = RRRVector(bits, t)
            buf = io.BytesIO()
            written = rv.serialize(buf)
            assert written == rv.serialized_bytes() == len(buf.getvalue())
            buf.seek(0)
            rv2 = RRRVector.deserialize(buf)
            assert rv2.t == t and rv2.n == 5000
            for i in rng.integers(0, 5001, size=60):
                assert rv2.rank(int(i)) == rv.rank(int(i))
            assert np.array_equal(rv2.to_bool(), bits)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            RRRVector([1, 0, 1], 16)

    def test_size_tree_matches_stream(self):
        rv = RRRVector(np.arange(4000) % 7 == 0)
        buf = io.BytesIO()
        rv.serialize(buf)
        assert rv.size_tree().total_bytes == len(buf.getvalue())


class TestSDVector:
    def test_worked_example(self):
        # values {2, 5, 12} in universe 16: low width 2, lows [2, 1, 0],
        # high bits 1010010
        sd = SDVector([2, 5, 12], 16)
        assert sd.low_widths == [2]
        assert [read_field(sd.lows.words, 2 * j, 2) for j in range(3)] == [2, 1, 0]
        assert [sd.high.bits[i] for i in range(7)] == [1, 0, 1, 0, 0, 1, 0]
        assert [sd.select(j) for j in (1, 2, 3)] == [2, 5, 12]
        assert sd.rank(6) == 2
        assert sd.rank(2) == 0
        assert sd.rank(3) == 1
        assert sd.rank(16) == 3
        assert [sd.access(i) for i in range(16)] == [
            1 if i in (2, 5, 12) else 0 for i in range(16)
        ]

    def test_empty_and_degenerate(self):
        sd = SDVector([], 100)
        assert sd.rank(50) == 0
        assert sd.count_ones() == 0
        with pytest.raises(ValueError):
            sd.select(1)
        one = SDVector([7], 8)
        assert one.select(1) == 7
        assert one.rank(8) == 1
        dense = SDVector(list(range(10)), 10)
        assert dense.low_widths == [1]
        assert [dense.select(j) for j in range(1, 11)] == list(range(10))

    def test_duplicates_allowed(self):
        sd = SDVector([3, 3, 3, 9], 12)
        assert [sd.select(j) for j in (1, 2, 3, 4)] == [3, 3, 3, 9]
        assert sd.rank(4) == 3
        assert sd.rank(3) == 0

    def test_value_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            SDVector([5], 5)
        with pytest.raises(ValueError):
            SDVector([3, 1], 5)
        # list bounds must rise from 0 to m, and each list be sorted
        for bounds in ([0, 2, 1, 3], [0, 2], [1, 3], [0, 1, 3, 4]):
            with pytest.raises(ValueError):
                SDVector([1, 5, 3, 4], 10, bounds)
        sd = SDVector([1, 5, 3, 4], 10, [0, 2, 4])
        assert [sd.select(1, 1), sd.select(2, 1)] == [3, 4]

    @pytest.mark.parametrize(
        "sizes,n",
        [
            (10, 1000),
            (500, 1000),
            (3000, 1_000_000),
            ((0, 1, 40, 0, 7, 300, 1), 1000),
            ((1, 2000, 0, 1000, 1), 1_000_000),
        ],
        ids=["10-1000", "500-1000", "3000-1000000", "7lists-1000", "5lists-1000000"],
    )
    def test_randomized(self, sizes, n):
        """Per list: layout bit for bit as the oracle encodes it alone,
        select against the values and rank against np.searchsorted."""
        rng = np.random.default_rng(sum(np.atleast_1d(sizes)))
        lists = [
            np.sort(rng.choice(n, size=m, replace=False))
            for m in np.atleast_1d(sizes)
        ]
        bounds = np.cumsum([0] + [len(v) for v in lists])
        sd = SDVector(np.concatenate(lists), n, bounds)
        assert np.array_equal(sd.to_values(), np.concatenate(lists))
        high = sd.high.bits.to_bool()
        low_at = high_at = 0
        for l, values in enumerate(lists):
            m = len(values)
            w, lows, high_bits = oracles.elias_fano_positions(values.tolist(), n)
            assert sd.low_widths[l] == w
            got = [read_field(sd.lows.words, low_at + j * w, w) for j in range(m)]
            assert got == lows
            assert high[high_at : high_at + len(high_bits)].tolist() == high_bits
            low_at += m * w
            high_at += len(high_bits)
            for j in rng.integers(1, m + 1, size=100 if m else 0):
                assert sd.select(int(j), l) == int(values[j - 1])
            with pytest.raises(ValueError):
                sd.select(m + 1, l)
            probes = np.concatenate([rng.integers(0, n + 1, size=200), values[:50]])
            for i in probes:
                assert sd.rank(int(i), l) == int(np.searchsorted(values, i, "left"))
        assert (low_at, high_at) == (sd.lows.n, len(high))

    def test_rank_access_every_position(self):
        """rank_access(i, l) against np.searchsorted and np.isin for every
        i of every list, with empty lists, duplicates, 0 and universe-1."""
        rng = np.random.default_rng(41)
        n = 1000
        lists = [
            [], [0], [n - 1], [0, 0, 5, 5, 5, n - 1, n - 1], [],
            np.sort(rng.integers(0, n, size=300)),
            np.sort(rng.choice(n, size=20, replace=False)),
            np.arange(n), [n - 1] * 3, [],
        ]
        lists = [np.asarray(v, dtype=np.int64) for v in lists]
        bounds = np.cumsum([0] + [len(v) for v in lists])
        sd = SDVector(np.concatenate(lists), n, bounds)
        probes = np.arange(-1, n + 1)
        for l, values in enumerate(lists):
            ranks = np.searchsorted(values, probes, "left")
            held = np.isin(probes, values).astype(int)
            got = np.array([sd.rank_access(int(i), l) for i in probes])
            assert np.array_equal(got[:, 0], ranks)
            assert np.array_equal(got[:, 1], held)
            assert [sd.access(int(i), l) for i in probes] == held.tolist()

    def test_space_beats_plain_for_sparse(self):
        n = 1_000_000
        rng = np.random.default_rng(9)
        values = np.sort(rng.choice(n, size=2000, replace=False))
        sd = SDVector(values, n)
        assert sd.serialized_bytes() < n // 8 // 10

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        values = np.sort(rng.choice(10_000, size=700, replace=False))
        # one list, then the same values as lists of 0, 1, 300, 0 and 399
        for bounds in (None, [0, 0, 1, 301, 301, 700]):
            sd = SDVector(values, 10_000, bounds)
            buf = io.BytesIO()
            written = sd.serialize(buf)
            assert written == sd.serialized_bytes() == len(buf.getvalue())
            buf.seek(0)
            sd2 = SDVector.deserialize(buf)
            assert sd2.universe == 10_000 and sd2.m == 700
            assert sd2.bounds == sd.bounds
            assert np.array_equal(sd2.to_values(), values)
            for l in range(len(sd.bounds) - 1):
                assert sd2.rank(5000, l) == sd.rank(5000, l)

    @pytest.mark.parametrize("missing", ["select1_support", "select0_support"])
    def test_high_bits_without_a_select_rejected(self, missing):
        sd = SDVector(np.arange(0, 3000, 7), 3000)
        setattr(sd.high, missing, None)
        buf = io.BytesIO()
        sd.serialize(buf)
        buf.seek(0)
        with pytest.raises(serialize.FormatError):
            SDVector.deserialize(buf)


class TestBackendFactory:
    def test_round_trip_dispatch(self):
        rng = np.random.default_rng(24)
        bits = rng.random(4000) < 0.4
        for kind in ("plain", "rrr"):
            bb = make_bits(bits, kind, select1=True, select0=True)
            assert bb.rank(1000) == oracles.rank(bits, 1000)
            buf = io.BytesIO()
            bb.serialize(buf)
            buf.seek(0)
            back = read_bits(buf)
            assert back.rank(3999) == bb.rank(3999)
            assert back.select(5) == oracles.select(bits, 5, 1)
            assert back.select0(5) == oracles.select(bits, 5, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_bits([1, 0], "nope")
