import io
import math

import numpy as np
import pytest

import oracles
from succix import bits, serialize
from succix.bits import (
    BackedBits,
    BitVector,
    IntVector,
    RankSupport,
    SelectSupport,
    pack_ints,
    unpack_ints,
    width_for,
)


def bits_from_string(s):
    return BitVector([c == "1" for c in s])


class TestPacking:
    def test_round_trip_all_widths(self):
        rng = np.random.default_rng(11)
        for width in range(1, 65):
            n = int(rng.integers(0, 200))
            hi = (1 << width) - 1
            vals = rng.integers(0, hi, size=n, endpoint=True, dtype=np.uint64)
            words = pack_ints(vals, width)
            assert len(words) == (n * width + 63) // 64
            back = unpack_ints(words, width, 0, n)
            assert np.array_equal(back, vals)

    def test_partial_unpack(self):
        rng = np.random.default_rng(12)
        vals = rng.integers(0, 2**13, size=501, dtype=np.uint64)
        words = pack_ints(vals, 13)
        assert np.array_equal(unpack_ints(words, 13, 17, 100), vals[17:117])
        assert len(unpack_ints(words, 13, 0, 0)) == 0

    @pytest.mark.parametrize("width", range(1, 65))
    def test_to_numpy_matches_getitem(self, width):
        # a group is lcm(width, 64) bits; the long read covers enough whole
        # groups for the column path, the shorter ones stay on gather_ints
        per_group = math.lcm(width, 64) // width
        long = (bits._COLUMN_GROUPS + 1) * per_group + 1
        rng = np.random.default_rng(width)
        vals = rng.integers(
            0, (1 << width) - 1, size=long + 2 * per_group + 3,
            endpoint=True, dtype=np.uint64,
        )
        iv = IntVector(vals, width)
        expect = [iv[i] for i in range(len(iv))]
        counts = {0, 1, per_group - 1, per_group, per_group + 1, long}
        for start in (0, per_group, 3):
            for count in counts:
                got = iv.to_numpy(start, start + count)
                assert got.dtype == np.uint64
                assert got.tolist() == expect[start : start + count]

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            pack_ints([8], 3)

    def test_width_for(self):
        assert width_for(0) == 1
        assert width_for(1) == 1
        assert width_for(2) == 2
        assert width_for(255) == 8
        assert width_for(256) == 9
        assert width_for(2**64 - 1) == 64


class TestIntVector:
    def test_basic_access(self):
        iv = IntVector([5, 0, 7, 3], width=3)
        assert len(iv) == 4
        assert [iv[i] for i in range(4)] == [5, 0, 7, 3]
        assert iv[-1] == 3
        assert list(iv.to_numpy()) == [5, 0, 7, 3]
        assert list(iv[1:3]) == [0, 7]

    def test_auto_width(self):
        assert IntVector([0, 0]).width == 1
        assert IntVector([13]).width == 4
        assert IntVector([]).width == 1

    def test_index_errors(self):
        iv = IntVector([1, 2, 3])
        with pytest.raises(IndexError):
            iv[3]
        with pytest.raises(IndexError):
            iv[-4]

    def test_serialized_size_formula(self):
        # 18-byte header plus payload padded to whole 64-bit words
        cases = [
            (0, 1, 18),
            (5, 1, 26),
            (8, 8, 26),
            (100, 7, 18 + 8 * 11),
            (3, 64, 42),
            (64, 1, 26),
            (65, 1, 34),
        ]
        for n, width, expect in cases:
            iv = IntVector(np.zeros(n, dtype=np.uint64), width=width)
            assert iv.serialized_bytes() == expect
            buf = io.BytesIO()
            written = iv.serialize(buf)
            assert written == expect
            assert len(buf.getvalue()) == expect

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for width in (1, 2, 7, 16, 33, 64):
            vals = rng.integers(
                0, (1 << width) - 1, size=97, endpoint=True, dtype=np.uint64
            )
            iv = IntVector(vals, width)
            buf = io.BytesIO()
            iv.serialize(buf)
            buf.seek(0)
            iv2 = IntVector.deserialize(buf)
            assert iv2 == iv
            assert np.array_equal(iv2.to_numpy(), vals)

    def test_bad_magic_rejected(self):
        buf = io.BytesIO()
        IntVector([1, 2]).serialize(buf)
        raw = bytearray(buf.getvalue())
        raw[0] ^= 0xFF
        with pytest.raises(serialize.FormatError):
            IntVector.deserialize(io.BytesIO(bytes(raw)))

    def test_from_words_masks_tail(self):
        words = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        iv = IntVector.from_words(words, 5, 3)
        assert list(iv.to_numpy()) == [7] * 5
        assert int(iv.words[0]) == (1 << 15) - 1


class TestBitVector:
    def test_construction_matches_bits(self):
        s = "00010010"
        bv = bits_from_string(s)
        assert bv.n == 8
        assert [bv[i] for i in range(8)] == [int(c) for c in s]
        assert bv.count_ones() == 2
        assert np.array_equal(bv.to_bool(), np.array([c == "1" for c in s]))

    def test_from_positions(self):
        bv = BitVector.from_positions([3, 6], 8)
        assert [bv[i] for i in range(8)] == [0, 0, 0, 1, 0, 0, 1, 0]
        with pytest.raises(ValueError):
            BitVector.from_positions([8], 8)

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        bv = BitVector(rng.random(777) < 0.4)
        buf = io.BytesIO()
        bv.serialize(buf)
        buf.seek(0)
        bv2 = BitVector.deserialize(buf)
        assert bv2 == bv
        assert isinstance(bv2, BitVector)


class TestRank:
    def test_small_named_example(self):
        bv = bits_from_string("00010010")
        rs = RankSupport(bv)
        assert rs.rank(6) == 1
        assert rs.rank(8) == 2
        assert rs.rank(0) == 0
        assert [rs.rank(i) for i in range(9)] == [0, 0, 0, 0, 1, 1, 1, 2, 2]
        assert rs.rank0(8) == 6

    def test_exhaustive_tiny(self):
        for n in range(0, 10):
            for mask in range(1 << n):
                bits = [(mask >> i) & 1 for i in range(n)]
                rs = RankSupport(BitVector(bits))
                for i in range(n + 1):
                    assert rs.rank(i) == oracles.rank(bits, i)

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4096, 6500, 300_000])
    def test_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        bits = rng.random(n) < 0.37
        rs = RankSupport(BitVector(bits))
        cum = np.concatenate([[0], np.cumsum(bits)])
        probes = [0, 1, 63, 64, 65, 383, 384, 385, 2047, 2048, 2049, n - 1, n]
        probes += list(rng.integers(0, n + 1, size=300))
        probes = [p for p in probes if 0 <= p <= n]
        for i in probes:
            assert rs.rank(i) == int(cum[i])
        got = rs.rank_many(np.array(probes))
        assert np.array_equal(got, cum[np.array(probes)])

    def test_extremes(self):
        for n in (1, 64, 2048, 5000):
            ones = RankSupport(BitVector(np.ones(n, dtype=bool)))
            zeros = RankSupport(BitVector(np.zeros(n, dtype=bool)))
            assert ones.rank(n) == n
            assert zeros.rank(n) == 0
            assert ones.rank(n // 2) == n // 2

    def test_overhead_budget(self):
        # directory must stay within 8% of the payload at scale
        n = 1_000_000
        bv = BitVector(np.random.default_rng(3).random(n) < 0.5)
        rs = RankSupport(bv)
        overhead = rs.serialized_bytes() - serialize.HEADER_BYTES
        assert overhead * 8 <= 0.08 * n

    def test_round_trip(self):
        rng = np.random.default_rng(15)
        bv = BitVector(rng.random(10_000) < 0.2)
        rs = RankSupport(bv)
        buf = io.BytesIO()
        rs.serialize(buf)
        buf.seek(0)
        rs2 = RankSupport.deserialize(buf, bv)
        for i in rng.integers(0, 10_001, size=50):
            assert rs2.rank(i) == rs.rank(i)


class TestSelect:
    def test_small_named_example(self):
        bv = bits_from_string("10110")
        rs = RankSupport(bv)
        ss = SelectSupport(bv, rs, 1)
        assert ss.select(3) == 3
        assert rs.rank(5) == 3
        bv2 = bits_from_string("00010010")
        rs2 = RankSupport(bv2)
        ss2 = SelectSupport(bv2, rs2, 1)
        assert ss2.select(1) == 3
        assert ss2.select(2) == 6
        ss0 = SelectSupport(bv2, rs2, 0)
        assert ss0.select(3) == 2
        assert ss0.select(6) == 7

    def test_out_of_range(self):
        bv = bits_from_string("10110")
        ss = SelectSupport(bv, RankSupport(bv), 1)
        with pytest.raises(ValueError):
            ss.select(0)
        with pytest.raises(ValueError):
            ss.select(4)

    def test_exhaustive_tiny(self):
        for n in range(1, 9):
            for mask in range(1 << n):
                bits = [(mask >> i) & 1 for i in range(n)]
                bv = BitVector(bits)
                rs = RankSupport(bv)
                for value in (0, 1):
                    ss = SelectSupport(bv, rs, value)
                    m = bits.count(value)
                    assert ss.count == m
                    for j in range(1, m + 1):
                        assert ss.select(j) == oracles.select(bits, j, value)

    @pytest.mark.parametrize("density", [0.02, 0.5, 0.93])
    def test_randomized_large(self, density):
        rng = np.random.default_rng(int(density * 100))
        n = 200_000
        bits = rng.random(n) < density
        bv = BitVector(bits)
        rs = RankSupport(bv)
        for value in (1, 0):
            ss = SelectSupport(bv, rs, value)
            pos = np.flatnonzero(bits if value else ~bits)
            assert ss.count == len(pos)
            js = np.unique(rng.integers(1, len(pos) + 1, size=400))
            for j in js:
                assert ss.select(int(j)) == int(pos[j - 1])
            # identity linking the two operations
            for j in (1, len(pos) // 2 + 1, len(pos)):
                p = ss.select(j)
                expect = rs.rank(p) if value else rs.rank0(p)
                assert expect == j - 1

    @pytest.mark.parametrize("density", [0.02, 0.5, 0.98])
    def test_directory_edges(self, density):
        """Every j within 2 of a 4096-sample boundary, and every target bit
        on or next to a 2048-bit superblock or 384-bit sub-block edge."""
        rng = np.random.default_rng(int(density * 100) + 7)
        n = 700_000
        bits = rng.random(n) < density
        bv = BitVector(bits)
        rs = RankSupport(bv)
        starts = np.arange(0, n, 2048)[:, None] + 384 * np.arange(6)
        edges = (starts.ravel()[:, None] + np.arange(-1, 2)).ravel()
        for value in (1, 0):
            ss = SelectSupport(bv, rs, value)
            pos = np.flatnonzero(bits if value else ~bits)
            m = len(pos)
            near_samples = np.arange(0, m, 4096)[:, None] + np.arange(-2, 3)
            # 0-based indices of the targets at or around each edge
            at_edges = np.searchsorted(pos, edges)[:, None] + np.arange(-1, 2)
            js = np.concatenate([near_samples.ravel(), at_edges.ravel()]) + 1
            js = np.unique(js[(js >= 1) & (js <= m)])
            assert len(js) > 2000
            got = np.array([ss.select(int(j)) for j in js])
            assert np.array_equal(got, pos[js - 1])

    def test_lane_extremes(self):
        """Sub-block counts of 1920 and 0, targets 2048 deep into a
        superblock, a zero run longer than a select sample and a partial
        last word: every select, and rank at every directory edge."""
        rng = np.random.default_rng(23)
        bits = np.concatenate([
            np.ones(2 * 2048, dtype=bool),
            np.zeros(2 * 2048, dtype=bool),
            rng.random(5 * 2048 + 100) < 0.5,
            np.zeros(4097, dtype=bool),
            rng.random(77) < 0.5,
        ])
        n = len(bits)
        bv = BitVector(bits)
        rs = RankSupport(bv)
        for value in (1, 0):
            ss = SelectSupport(bv, rs, value)
            pos = np.flatnonzero(bits if value else ~bits)
            got = [ss.select(j) for j in range(1, len(pos) + 1)]
            assert got == pos.tolist()
        cum = np.concatenate([[0], np.cumsum(bits)])
        starts = np.arange(0, n + 1, 2048)[:, None] + 384 * np.arange(6)
        edges = (starts.ravel()[:, None] + np.arange(-1, 2)).ravel()
        edges = np.unique(np.clip(edges, 0, n))
        assert [rs.rank(int(i)) for i in edges] == cum[edges].tolist()
        assert np.array_equal(rs.rank_many(edges), cum[edges])
        buf = io.BytesIO()
        rs.serialize(buf)
        again = io.BytesIO()
        RankSupport.deserialize(io.BytesIO(buf.getvalue()), bv).serialize(again)
        assert again.getvalue() == buf.getvalue()

    def test_round_trip(self):
        rng = np.random.default_rng(16)
        bits = rng.random(9000) < 0.1
        bv = BitVector(bits)
        rs = RankSupport(bv)
        ss = SelectSupport(bv, rs, 1)
        buf = io.BytesIO()
        ss.serialize(buf)
        buf.seek(0)
        ss2 = SelectSupport.deserialize(buf, bv, rs, 1)
        assert ss2.value == 1 and ss2.count == ss.count
        for j in (1, ss.count // 3 + 1, ss.count):
            assert ss2.select(j) == ss.select(j)


class TestBackedBits:
    def test_combined_interface(self):
        rng = np.random.default_rng(17)
        bits = rng.random(5000) < 0.3
        bb = BackedBits(BitVector(bits), select1=True, select0=True)
        cum = np.concatenate([[0], np.cumsum(bits)])
        for i in rng.integers(0, 5001, size=60):
            assert bb.rank(int(i)) == int(cum[i])
        ones = np.flatnonzero(bits)
        zeros = np.flatnonzero(~bits)
        assert bb.select(10) == int(ones[9])
        assert bb.select0(10) == int(zeros[9])
        assert bb.access(int(ones[0])) == 1

    def test_round_trip(self):
        rng = np.random.default_rng(18)
        bits = rng.random(3000) < 0.5
        bb = BackedBits(BitVector(bits), select1=True)
        buf = io.BytesIO()
        n_written = bb.serialize(buf)
        assert n_written == bb.serialized_bytes()
        assert len(buf.getvalue()) == n_written
        buf.seek(0)
        bb2 = BackedBits.deserialize(buf)
        assert bb2.rank(1234) == bb.rank(1234)
        assert bb2.select(17) == bb.select(17)
        assert bb2.select0_support is None

    def test_size_tree_matches_file(self):
        bb = BackedBits(BitVector(np.arange(1000) % 3 == 0), select1=True)
        tree = bb.size_tree("bits")
        buf = io.BytesIO()
        bb.serialize(buf)
        assert tree.total_bytes == len(buf.getvalue())
