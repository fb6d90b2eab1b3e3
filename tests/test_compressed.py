import copy
import io
import math

import numpy as np
import pytest

import oracles
from succix import serialize
from succix.bits import BackedBits, BitVector, IntVector, read_field, width_for
from succix.compressed import (
    _CLS15,
    _DEC15,
    _DEC15_START,
    _OFF15,
    _OFF_WIDTH,
    BLOCK,
    RRRVector,
    SDVector,
)


class TestBlockCoding:
    def test_low_blocks_frozen(self):
        # colexicographic numbering: offset of {p_i} is sum C(p_i, i)
        def code(v):
            return int(_CLS15[v]), int(_OFF15[v])

        assert code(0b0001) == (1, 0)
        assert code(0b0010) == (1, 1)
        assert code(0b0011) == (2, 0)
        assert code(0b0101) == (2, 1)
        assert code(0b0110) == (2, 2)
        # positions {1, 3}: C(1,1) + C(3,2) = 1 + 3 = 4
        assert code(0b1010) == (2, 4)

    def test_offset_matches_oracle(self):
        """Class, offset and decode of every one of the 2^15 blocks."""
        for v in range(1 << BLOCK):
            bits = [(v >> p) & 1 for p in range(BLOCK)]
            c, off = int(_CLS15[v]), int(_OFF15[v])
            assert c == sum(bits)
            assert off == oracles.rrr_offset(bits)
            assert _DEC15[_DEC15_START[c] + off] == v

    def test_offset_range_is_dense(self):
        # the offsets of class c are exactly [0, C(15, c)), each decoding
        # to a distinct block of that class
        assert _DEC15_START[0] == 0 and _DEC15_START[-1] == 1 << BLOCK
        for c in range(BLOCK + 1):
            total = math.comb(BLOCK, c)
            assert _DEC15_START[c + 1] - _DEC15_START[c] == total
            assert _OFF_WIDTH[c] == (total - 1).bit_length()
            block = list(_DEC15[_DEC15_START[c] : _DEC15_START[c + 1]])
            assert {v.bit_count() for v in block} == {c}
            assert [int(_OFF15[v]) for v in block] == list(range(total))


def _rrr_bytes(rv):
    buf = io.BytesIO()
    rv.serialize(buf)
    return bytearray(buf.getvalue())


class TestRRRVector:
    def test_exhaustive_small(self):
        for n in (0, 1, 5, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
            rng = np.random.default_rng(n * BLOCK + 1)
            for _ in range(12):
                bits = rng.random(n) < rng.random()
                rv = RRRVector(bits)
                assert len(rv) == n
                assert rv.count_ones() == int(bits.sum())
                for i in range(n + 1):
                    assert rv.rank(i) == oracles.rank(bits, i)
                for i in range(n):
                    assert rv.access(i) == int(bits[i])
                    assert rv.rank_if_set(i) == (
                        oracles.rank(bits, i) if bits[i] else None
                    )
                for i in (-1, n):
                    with pytest.raises(IndexError):
                        rv.rank_if_set(i)

    @pytest.mark.parametrize("density", [0.04, 0.5])
    def test_randomized_large(self, density):
        n = 200_000
        rng = np.random.default_rng(BLOCK + int(density * 10))
        bits = rng.random(n) < density
        rv = RRRVector(bits)
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

    @pytest.mark.parametrize("density", [0, 0.05, 0.5, 1])
    def test_rank_pair_and_access_rank_match_prefix_sums(self, density):
        """rank_pair(i, j) with i = j, i and j in one block, in one
        superblock (480 bits) and in different superblocks, and at the
        ends 0 and n; access_rank(i) at every bit."""
        n = 5000
        rng = np.random.default_rng(int(density * 100) + 7)
        bits = rng.random(n) < density
        rv = RRRVector(bits)
        cum = np.concatenate([[0], np.cumsum(bits)]).tolist()
        assert [rv.access_rank(i) for i in range(n)] == [
            (int(b), r) for b, r in zip(bits, cum)
        ]
        with pytest.raises(IndexError):
            rv.access_rank(n)
        starts = [0, 1, 14, 15, 16, 470, 479, 480, 481, 2399, n - 16, n - 1, n]
        pairs = [(i, i + d) for i in starts for d in (0, 1, 5, 14, 15, 300, 480, 1000)]
        pairs += [(-4, 0), (-1, 7), (0, n + 9), (n, n + 1)]
        pairs += [sorted(rng.integers(0, n + 1, size=2).tolist()) for _ in range(300)]
        for i, j in pairs:
            expect = (cum[min(max(i, 0), n)], cum[min(max(j, 0), n)])
            assert rv.rank_pair(i, j) == expect, (i, j)

    def test_superblock_edges(self):
        """rank/access/rank_if_set within 2 of every block (and so
        superblock) edge, and select/select0 around every class change,
        over runs of empty and full blocks, built and reloaded."""
        t = BLOCK
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
        built = RRRVector(bits)
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
            assert [rv.rank_if_set(int(i)) for i in reads] == [
                int(cum[i]) if bits[i] else None for i in reads
            ]
            for value, sel in ((1, rv.select), (0, rv.select0)):
                pos = np.flatnonzero(bits if value else ~bits)
                before = cum[change * t] if value else change * t - cum[change * t]
                js = (before[:, None] + np.arange(-1, 3)).ravel()
                js = np.unique(js[(js >= 1) & (js <= len(pos))])
                assert len(js) > 50
                assert np.array_equal([sel(int(j)) for j in js], pos[js - 1])

    @pytest.mark.parametrize("kind", ["zeros", "ones", "random"])
    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK] + [480 * k + d for k in (1, 2, 7) for d in (-1, 1)]
    )
    def test_directory_matches_cumsum(self, n, kind):
        """The superblock ranks and pointers summed from the class bytes
        are the running class and offset-width totals at every 32nd
        block, built and reloaded."""
        rng = np.random.default_rng(n)
        bits = {
            "zeros": np.zeros(n, dtype=bool),
            "ones": np.ones(n, dtype=bool),
            "random": rng.random(n) < 0.4,
        }[kind]
        built = RRRVector(bits)
        classes = np.frombuffer(built.classes, dtype=np.uint8).astype(np.int64)
        ends = np.minimum(
            np.arange(-(-len(classes) // 32) + 1) * RRRVector.SB_BLOCKS, len(classes)
        )
        ranks = np.concatenate([[0], np.cumsum(classes)])[ends]
        ptrs = np.concatenate([[0], np.cumsum(_OFF_WIDTH[classes])])[ends]
        back = RRRVector.deserialize(io.BytesIO(_rrr_bytes(built)))
        for rv in (built, back):
            assert np.array_equal(rv.sb_ranks, ranks)
            assert np.array_equal(rv.sb_ptrs, ptrs)
            assert rv.count_ones() == int(bits.sum()) == ranks[-1]
            assert rv.offsets.n == ptrs[-1]

    def test_compresses_skewed_bits(self):
        n = 500_000
        rng = np.random.default_rng(5)
        skewed = RRRVector(rng.random(n) < 0.03)
        plain = BackedBits(BitVector(rng.random(n) < 0.03))
        assert skewed.serialized_bytes() < plain.serialized_bytes()
        assert skewed.serialized_bytes() < n // 8

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        bits = rng.random(5000) < 0.3
        rv = RRRVector(bits)
        buf = io.BytesIO()
        written = rv.serialize(buf)
        assert written == rv.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        rv2 = RRRVector.deserialize(buf)
        assert rv2.n == 5000
        for i in rng.integers(0, 5001, size=60):
            assert rv2.rank(int(i)) == rv.rank(int(i))
        assert np.array_equal(rv2.to_bool(), bits)

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.3, 1.0])
    def test_class_width_is_that_of_the_largest_class(self, density):
        rng = np.random.default_rng(int(density * 100) + BLOCK)
        rv = RRRVector(rng.random(3000) < density)
        top = max(rv.classes)
        data = _rrr_bytes(rv)
        # the classes frame follows the RRR header; byte 9 is its width
        width = data[serialize.HEADER_BYTES + 9]
        assert width == rv._frame().parts[0][1].width == width_for(top)
        back = RRRVector.deserialize(io.BytesIO(data))
        assert np.array_equal(back.to_bool(), rv.to_bool())

    def test_loader_takes_any_class_width_up_to_the_widest(self):
        rv = RRRVector(np.arange(2000) % 9 == 0)
        for width, ok in ((width_for(BLOCK), True), (width_for(BLOCK) + 1, False)):
            rv.class_width = width
            buf = io.BytesIO(_rrr_bytes(rv))
            if ok:
                back = RRRVector.deserialize(buf)
                assert np.array_equal(back.to_bool(), rv.to_bool())
            else:
                with pytest.raises(serialize.FormatError, match="class width"):
                    RRRVector.deserialize(buf)

    def test_bad_block_size(self):
        """The header's width byte is the block size, and only 15 loads."""
        data = _rrr_bytes(RRRVector(np.arange(700) % 3 == 0))
        assert data[9] == BLOCK
        for t in (0, 14, 16, 31, 63, 255):
            data[9] = t
            with pytest.raises(serialize.FormatError, match="block size"):
                RRRVector.deserialize(io.BytesIO(data))

    def test_offset_stream_must_match_the_classes(self):
        """An offset stream one bit or one field short or long raises
        FormatError; the intact one loads."""
        rng = np.random.default_rng(31)
        rv = RRRVector(rng.random(3000) < 0.3)
        stream = rv.offsets.to_numpy()
        last = int(_OFF_WIDTH[rv.classes[-1]])
        assert last and len(stream) == rv.sb_ptrs[-1]
        for delta in (0, -1, 1, -last, 13):
            bits = np.zeros(len(stream) + delta, dtype=np.uint64)
            keep = min(len(stream), len(bits))
            bits[:keep] = stream[:keep]
            bad = copy.copy(rv)
            bad.offsets = IntVector(bits, 1)
            data = io.BytesIO(_rrr_bytes(bad))
            if delta:
                with pytest.raises(serialize.FormatError, match="offset stream"):
                    RRRVector.deserialize(data)
            else:
                back = RRRVector.deserialize(data)
                assert np.array_equal(back.to_bool(), rv.to_bool())

    @pytest.mark.parametrize("n", [16, 29, 3001])
    def test_one_bits_past_n_raise_format_error(self, n):
        """A last block stored with its top bit, which lies past n, set
        (class, offset and offset stream to match) does not load."""
        rng = np.random.default_rng(n)
        rv = RRRVector(rng.random(n) < 0.5)
        v = rv._block_value(rv.nblocks - 1) | 1 << (BLOCK - 1)
        c, off = int(_CLS15[v]), int(_OFF15[v])
        head = rv.offsets.to_numpy()[: rv.offsets.n - _OFF_WIDTH[rv.classes[-1]]]
        field = (off >> np.arange(_OFF_WIDTH[c])) & 1
        bad = copy.copy(rv)
        bad.classes, bad.class_width = rv.classes[:-1] + bytes([c]), 4
        bad.offsets = IntVector(np.concatenate([head, field]).astype(np.uint64), 1)
        with pytest.raises(serialize.FormatError, match="padding"):
            RRRVector.deserialize(io.BytesIO(_rrr_bytes(bad)))

    def test_offset_past_its_class_raises_format_error(self):
        """Three class-1 blocks with block 1's 4-bit offset set to 15, one
        past C(15, 1) - 1: the file loads, as offsets are not checked at
        load, but every decode of that block raises FormatError in place
        of reading a class-2 block."""
        rv = RRRVector(np.arange(45) % BLOCK == 0)
        assert list(rv.classes) == [1, 1, 1] and _OFF_WIDTH[1] == 4
        bad = copy.copy(rv)
        bad.offsets = IntVector([0] * 4 + [1] * 4 + [0] * 4, 1)
        back = RRRVector.deserialize(io.BytesIO(_rrr_bytes(bad)))
        assert back.count_ones() == 3 and back.rank(30) == 2
        assert back.access(0) == 1 and back.rank_if_set(30) == 2
        for query in (
            back.to_bool, lambda: back.rank(20), lambda: back.access(16),
            lambda: back.select(2), lambda: back.select0(20),
            lambda: back.rank_if_set(15), lambda: back.rank_if_set(16),
            lambda: back.access_rank(16), lambda: back.rank_pair(16, 17),
            lambda: back.rank_pair(2, 20), lambda: back.rank_pair(20, 40),
        ):
            with pytest.raises(serialize.FormatError, match="offset past class 1"):
                query()

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

    def test_rank_pair_is_two_ranks(self):
        """rank_pair(i, j, l) against two ranks, with both ends inside one
        bucket, across buckets, outside the universe and over empty
        lists."""
        rng = np.random.default_rng(46)
        n = 3000
        lists = [
            [], np.sort(rng.integers(0, n, size=400)), [7, 7, 7],
            np.sort(rng.choice(n, size=25, replace=False)), [], np.arange(n),
        ]
        lists = [np.asarray(v, dtype=np.int64) for v in lists]
        bounds = np.cumsum([0] + [len(v) for v in lists])
        sd = SDVector(np.concatenate(lists), n, bounds)
        for l, values in enumerate(lists):
            w = sd.low_widths[l]
            pairs = [(i, i + d) for i in range(-2, n + 2, 37) for d in (0, 1, 2, 5)]
            pairs += [(b << w, (b << w) + (1 << w) - 1) for b in range(0, n >> w, 7)]
            pairs += [sorted(rng.integers(-5, n + 5, size=2).tolist()) for _ in range(200)]
            for i, j in pairs:
                expect = tuple(int(np.searchsorted(values, x, "left")) for x in (i, j))
                assert sd.rank_pair(i, j, l) == expect, (l, i, j)
                assert expect == (sd.rank(i, l), sd.rank(j, l))

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

