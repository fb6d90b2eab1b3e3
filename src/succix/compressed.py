"""Compressed bitvector representations.

RRRVector stores 15-bit blocks as (popcount class, in-class offset)
pairs (Raman, Raman & Rao, SODA 2002), and encodes and decodes them by
lookup in tables over all 2^15 block values. Offsets use the
colexicographic combinatorial numbering, so a block with one-bits at
ascending positions p_1 < ... < p_c gets offset sum(C(p_i, i)). A
vector is stored as its class bytes and its offset stream; the rank and
offset pointer before each superblock are worked out from the classes.
Both ends of an interval walk together: rank_pair(i, j) decodes a block
the two ends share once, and access_rank(i) reads bit and rank from one.

SDVector is an Elias-Fano encoding of a sorted integer multiset: each
value splits into a low part of fixed width and a high part stored in
unary in a plain bitvector with rank/select support. rank_pair(i, j, l)
makes one select0 and one scan for two ends in one bucket.
"""

import bisect
import itertools
import math
import struct

import numpy as np

from . import serialize
from .bits import (
    BackedBits, BitVector, IntVector, gather_fields, pack_fields, width_for,
)
from .monitor import register_allocation

BLOCK = 15

# offset width by class, also as a bytes.translate table, so that a run of
# class bytes sums to its offset bits without numpy
_OFF_WIDTH = np.array(
    [(math.comb(BLOCK, c) - 1).bit_length() for c in range(BLOCK + 1)],
    dtype=np.int64,
)
_WIDTHS = bytes(_OFF_WIDTH.tolist()) + bytes(255 - BLOCK)
# zero bits of a block by class, as a bytes.translate table
_ZEROS = bytes(range(BLOCK, -1, -1)) + bytes(255 - BLOCK)


def _build_tables():
    """Class and offset of every block value, and the block values in
    (class, offset) order with the start of each class in that order."""
    vals = np.arange(1 << BLOCK, dtype=np.uint32)
    cls = np.bitwise_count(vals).astype(np.uint8)
    off = np.zeros(1 << BLOCK, dtype=np.uint32)
    cnt = np.zeros(1 << BLOCK, dtype=np.intp)
    for p in range(BLOCK):
        bit = (vals >> np.uint32(p)) & 1
        col = np.array([math.comb(p, i) for i in range(BLOCK + 2)], dtype=np.uint32)
        off += np.where(bit == 1, col[cnt + 1], 0)
        cnt += bit
    order = np.lexsort((off, cls))
    dec = vals[order].astype(np.uint16)
    starts = np.zeros(BLOCK + 2, dtype=np.int64)
    starts[1:] = np.cumsum(np.bincount(cls, minlength=BLOCK + 1))
    # the scalar decodes read the block table item by item
    return cls, off, memoryview(dec), starts.tolist()


_CLS15, _OFF15, _DEC15, _DEC15_START = _build_tables()


def _superblock_sums(data, nsb):
    """0, then the running total of `data`'s bytes (each at most 15) at
    the end of each of nsb superblocks of RRRVector.SB_BLOCKS bytes."""
    words = np.zeros((nsb, 4), dtype=np.uint64)
    words.reshape(-1).view(np.uint8)[: len(data)] = np.frombuffer(data, np.uint8)
    # two words added bytewise hold byte sums of at most 30, and the top
    # byte of a product by 0x0101...01 is the sum of its word's 8 bytes
    ones, top = np.uint64(0x0101010101010101), np.uint64(56)
    sums = ((words[:, 0] + words[:, 1]) * ones >> top) + (
        (words[:, 2] + words[:, 3]) * ones >> top
    )
    out = np.zeros(nsb + 1, dtype=np.uint64)
    np.cumsum(sums, out=out[1:])
    return out


class RRRVector(serialize.Framed):
    """H0-compressed bitvector with rank and select.

    Blocks of 15 bits become class/offset pairs. Each superblock of 32
    blocks has an absolute rank and a bit pointer into the offset stream,
    both summed from the classes, so queries scan at most 31 class bytes.
    """

    SB_BLOCKS = 32
    _tag = "rrr"

    def __init__(self, bits):
        if isinstance(bits, BitVector):
            bits = bits.to_bool()
        bits = np.asarray(bits)
        if bits.dtype != np.bool_:
            bits = bits.astype(bool)
        self.n = len(bits)
        self.nblocks = -(-self.n // BLOCK)
        padded = np.zeros(self.nblocks * BLOCK, dtype=bool)
        padded[: self.n] = bits
        powers = np.uint32(1) << np.arange(BLOCK, dtype=np.uint32)
        vals = padded.reshape(-1, BLOCK).astype(np.uint32) @ powers
        classes = _CLS15[vals]
        self.classes = classes.tobytes()
        self.class_width = width_for(int(classes.max(initial=0)))
        self.offsets = pack_fields(_OFF15[vals], _OFF_WIDTH[classes])
        self._finish()

    def _finish(self):
        nsb = -(-self.nblocks // self.SB_BLOCKS)
        ranks = _superblock_sums(self.classes, nsb)
        ptrs = _superblock_sums(self.classes.translate(_WIDTHS), nsb)
        self.total_ones = int(ranks[-1])
        # superblock entries as uint32 where they fit, half of int64
        self.sb_ranks, self.sb_ptrs = (
            a.astype(np.uint32 if int(a[-1]) >> 32 == 0 else np.int64)
            for a in (ranks, ptrs)
        )
        nbytes = len(self.classes) + self.sb_ranks.nbytes + self.sb_ptrs.nbytes
        register_allocation(self, nbytes, "rrr_vector")
        sb_bits = np.arange(nsb + 1) * (self.SB_BLOCKS * BLOCK)
        # memoryviews hand out single items as Python ints, several times
        # cheaper than numpy scalars, and bisect reads them directly
        self._ranks = memoryview(self.sb_ranks)
        # zeros before each superblock, for select0
        self._zeros = memoryview(np.minimum(sb_bits, self.n) - self.sb_ranks)
        self._ptrs = memoryview(self.sb_ptrs)
        self._words = self.offsets._words

    def __len__(self):
        return self.n

    def count_ones(self):
        return self.total_ones

    def _block_value(self, b):
        """Decode block b, reading its offset field from its superblock's
        pointer on (b >> 5 is b's superblock, SB_BLOCKS being 32). An
        offset at or past C(15, c), which would decode to a block of the
        next class, raises FormatError."""
        classes = self.classes
        c = classes[b]
        w = _WIDTHS[c]
        if not w:
            # classes 0 and 15 have one block each
            return _DEC15[_DEC15_START[c]]
        s = b >> 5
        ptr = self._ptrs[s] + sum(classes[s << 5 : b].translate(_WIDTHS))
        words = self._words
        sh = ptr & 63
        off = words[ptr >> 6] >> sh
        if sh + w > 64:
            off |= words[(ptr >> 6) + 1] << (64 - sh)
        k = _DEC15_START[c] + (off & ((1 << w) - 1))
        if k >= _DEC15_START[c + 1]:
            raise serialize.FormatError(f"RRR block {b} has an offset past class {c}")
        return _DEC15[k]

    def _ones_before(self, b):
        """Its superblock's rank plus the classes before block b."""
        s = b >> 5
        return self._ranks[s] + sum(self.classes[s << 5 : b])

    def access_rank(self, i):
        """(bit i, rank(i)) from one block decode."""
        if not 0 <= i < self.n:
            raise IndexError("bit index out of range")
        b, r = divmod(i, BLOCK)
        v = self._block_value(b)
        return v >> r & 1, self._ones_before(b) + (v & ((1 << r) - 1)).bit_count()

    def access(self, i):
        return self.access_rank(i)[0]

    def __getitem__(self, i):
        return self.access(i)

    def rank(self, i):
        """Number of one-bits in [0, i)."""
        if i <= 0:
            return 0
        if i >= self.n:
            return self.total_ones
        b, r = divmod(i, BLOCK)
        total = self._ones_before(b)
        if r:
            total += (self._block_value(b) & ((1 << r) - 1)).bit_count()
        return total

    def rank_pair(self, i, j):
        """(rank(i), rank(j)) for i <= j. Both ends in one superblock sum
        its class bytes once, and both in one block decode it once."""
        b, r = divmod(i, BLOCK)
        b2, r2 = divmod(j, BLOCK)
        if i <= 0 or j >= self.n or b >> 5 != b2 >> 5:
            return self.rank(i), self.rank(j)
        lo = self._ones_before(b)
        hi = lo if b == b2 else lo + sum(self.classes[b:b2])
        if r:
            v = self._block_value(b)
            lo += (v & ((1 << r) - 1)).bit_count()
        if r2:
            if b2 != b or not r:
                v = self._block_value(b2)
            hi += (v & ((1 << r2) - 1)).bit_count()
        return lo, hi

    def rank_if_set(self, i):
        """rank(i) if bit i is set, else None. A bit in a class-0 block
        costs one class byte, and an unset bit one block decode; only a
        set bit sums the classes before its block."""
        if not 0 <= i < self.n:
            raise IndexError("bit index out of range")
        b, r = divmod(i, BLOCK)
        if not self.classes[b]:
            return None
        v = self._block_value(b)
        if not v >> r & 1:
            return None
        return self._ones_before(b) + (v & ((1 << r) - 1)).bit_count()

    def rank0(self, i):
        i = max(0, min(int(i), self.n))
        return i - self.rank(i)

    def _select_generic(self, j, value):
        m = self.total_ones if value else self.n - self.total_ones
        if not 1 <= j <= m:
            raise ValueError(f"select index {j} out of range (m={m})")
        marks = self._ranks if value else self._zeros
        # superblock s holds the target: marks[s] < j <= marks[s + 1]
        s = bisect.bisect_left(marks, j) - 1
        b = s * self.SB_BLOCKS
        row = self.classes[b:b + self.SB_BLOCKS]
        if not value:
            # 15 - c zeros per block; the padding of the last block counts
            # too, but the target lies before it
            row = row.translate(_ZEROS)
        # block b + k holds the target: ends[k] < j <= ends[k + 1]
        ends = list(itertools.accumulate(row, initial=marks[s]))
        k = bisect.bisect_left(ends, j) - 1
        b += k
        v = self._block_value(b)
        if not value:
            v = ~v & ((1 << BLOCK) - 1)
        remaining = j - ends[k]
        while remaining > 1:
            v &= v - 1
            remaining -= 1
        return b * BLOCK + (v & -v).bit_length() - 1

    def select(self, j):
        """Position of the j-th (1-based) one-bit."""
        return self._select_generic(j, 1)

    def select0(self, j):
        return self._select_generic(j, 0)

    def to_bool(self):
        """Every bit, with all blocks decoded by numpy at once; an offset
        at or past C(15, c) raises FormatError as in _block_value."""
        classes = np.frombuffer(self.classes, dtype=np.uint8)
        widths = _OFF_WIDTH[classes]
        starts = np.cumsum(widths) - widths
        first = np.asarray(_DEC15_START)
        k = first[classes]
        # classes 0 and 15 have a 0-bit offset, which gather_fields can't read
        coded = widths > 0
        k[coded] += gather_fields(
            self.offsets.words, starts[coded], widths[coded]
        ).astype(np.int64)
        past = np.flatnonzero(k >= first[classes + 1])
        if len(past):
            b = int(past[0])
            raise serialize.FormatError(
                f"RRR block {b} has an offset past class {classes[b]}"
            )
        values = np.asarray(_DEC15)[k]
        bits = (values[:, None] >> np.arange(BLOCK, dtype=np.uint16)) & 1
        return bits.ravel()[: self.n].astype(bool)

    def _frame(self):
        return serialize.Frame(serialize.MAGIC_RRR, BLOCK, self.n, b"", [
            ("classes", IntVector(
                np.frombuffer(self.classes, dtype=np.uint8), self.class_width
            )),
            ("offsets", self.offsets),
        ])

    @classmethod
    def deserialize(cls, f):
        """Read an RRR frame: 15-bit blocks, classes of at most 4 bits, an
        offset stream as long as the classes' offset widths sum to, and no
        one-bit in the last block past n."""
        _, _, t, n = serialize.read_header(f, serialize.MAGIC_RRR)
        if t != BLOCK:
            raise serialize.FormatError(f"RRR block size {t}, not {BLOCK}")
        rv = cls.__new__(cls)
        rv.n = n
        rv.nblocks = -(-n // BLOCK)
        cls_iv = IntVector.deserialize(f)
        rv.offsets = IntVector.deserialize(f)
        if cls_iv.n != rv.nblocks:
            raise serialize.FormatError("RRR classes do not match n")
        if cls_iv.width > width_for(BLOCK):
            raise serialize.FormatError(f"RRR class width {cls_iv.width} over 4")
        rv.class_width = cls_iv.width
        rv.classes = cls_iv.to_numpy().astype(np.uint8).tobytes()
        rv._finish()
        if (rv.offsets.width, rv.offsets.n) != (1, int(rv.sb_ptrs[-1])):
            raise serialize.FormatError("RRR offset stream does not match the classes")
        last = rv.nblocks - 1
        if n and rv._block_value(last) >> (n - last * BLOCK):
            raise serialize.FormatError("RRR block padding holds a one-bit")
        return rv


class SDVector(serialize.Framed):
    """Elias-Fano encoding of a family of sorted integer lists over one
    universe.

    `bounds` holds the cumulative list sizes: list l is the non-decreasing
    run values[bounds[l]:bounds[l+1]], and a single list has bounds
    [0, m]. Each list has its own low width, as if encoded alone, but all
    lows share one field stream and all high parts one bitvector with one
    set of rank/select directories; the per-list widths and offsets are
    derived from bounds and universe. select(j, l) and rank(i, l) answer
    within list l, over a conceptual bitvector of length `universe` with a
    one at each of its values.
    """

    _tag = "sd"

    def __init__(self, values, universe, bounds=None):
        values = np.asarray(values, dtype=np.int64)
        self.universe = n = int(universe)
        self._layout([0, len(values)] if bounds is None else bounds, len(values))
        lid, j, w = self._per_value()
        if len(values) and (int(values.min()) < 0 or int(values.max()) >= n):
            raise ValueError("value outside universe")
        # lists are sorted exactly when (list id, value) pairs are
        if (np.diff(values + lid * n) < 0).any():
            raise ValueError("values must be non-decreasing within a list")
        self.lows = pack_fields(values & ((1 << w) - 1), w)
        hi_pos = (values >> w) + j + np.asarray(self._hi_offs[:-1])[lid]
        high_bits = BitVector.from_positions(hi_pos, self._hi_offs[-1])
        self.high = BackedBits(high_bits, select1=True, select0=True)
        self._finish()

    def _finish(self):
        # the scalar queries read words through memoryviews and call the
        # select directories without going through BackedBits
        self._high_words = self.high.bits._words
        self._low_words = self.lows._words
        self._select1 = self.high.select1_support
        self._select0 = self.high.select0_support

    @staticmethod
    def _width(n, m):
        if m == 0 or n // m < 2:
            return 1
        return (n // m).bit_length() - 1

    def _layout(self, bounds, m):
        """Per-list low widths, and each list's first bit in the low stream
        and in the high bits, from the list sizes and the universe. Bounds
        that do not rise from 0 to m raise FormatError (a ValueError)."""
        bounds = [int(b) for b in bounds]
        if len(bounds) < 2 or bounds[0] or bounds[-1] != m or any(
            a > b for a, b in zip(bounds, bounds[1:])
        ):
            raise serialize.FormatError("list bounds must rise from 0 to m")
        self.bounds = bounds
        self.m = m
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        self.low_widths = [self._width(self.universe, m) for m in sizes]
        layout = list(zip(sizes, self.low_widths))
        self._low_offs = list(itertools.accumulate(
            (m * w for m, w in layout), initial=0
        ))
        # a list's high part is its m ones and one zero per bucket
        top = max(self.universe - 1, 0)
        self._hi_offs = list(itertools.accumulate(
            (m + (top >> w) + 1 for m, w in layout), initial=0
        ))

    def _per_value(self):
        """List id, 0-based rank within the list and low width of every
        value."""
        starts = np.asarray(self.bounds[:-1], dtype=np.int64)
        lid = np.repeat(np.arange(len(starts)), np.diff(self.bounds))
        j = np.arange(self.m, dtype=np.int64) - starts[lid]
        return lid, j, np.asarray(self.low_widths, dtype=np.int64)[lid]

    def __len__(self):
        return self.universe

    def count_ones(self):
        return self.m

    def select(self, j, l=0):
        """The j-th (1-based) value of list l."""
        j = int(j)
        bounds = self.bounds
        first = bounds[l]
        if not 1 <= j <= bounds[l + 1] - first:
            raise ValueError(f"select index {j} out of range in list {l}")
        w = self.low_widths[l]
        p = self._select1.select(first + j) - self._hi_offs[l]
        lo = self._low_offs[l] + (j - 1) * w
        sh = lo & 63
        low_words = self._low_words
        low = low_words[lo >> 6] >> sh
        if sh + w > 64:
            low |= low_words[(lo >> 6) + 1] << (64 - sh)
        return ((p - j + 1) << w) | (low & ((1 << w) - 1))

    def _scan(self, i, j, l):
        """(rank(i, l), rank(j, l), access(j, l)) for 0 <= i <= j <
        universe in one bucket, from one select0 and one scan of it."""
        bounds = self.bounds
        first = bounds[l]
        m = bounds[l + 1] - first
        w = self.low_widths[l]
        hi = self._hi_offs[l]
        b = j >> w
        # the b-th zero of list l ends its values below b << w
        k = self._select0.select(hi - first + b) - hi - b + 1 if b else 0
        mask = (1 << w) - 1
        low_i, low_j = i & mask, j & mask
        high_words = self._high_words
        low_words = self._low_words
        pos, lo = hi + b + k, self._low_offs[l] + k * w
        rank_i = k
        while k < m and (high_words[pos >> 6] >> (pos & 63)) & 1:
            sh = lo & 63
            low = low_words[lo >> 6] >> sh
            if sh + w > 64:
                low |= low_words[(lo >> 6) + 1] << (64 - sh)
            low &= mask
            if low < low_i:
                rank_i = k + 1
            if low >= low_j:
                return rank_i, k, int(low == low_j)
            k, pos, lo = k + 1, pos + 1, lo + w
        return rank_i, k, 0

    def rank_access(self, i, l=0):
        """(rank(i, l), access(i, l)) from one scan of i's bucket."""
        i = int(i)
        if i < 0:
            return 0, 0
        if i >= self.universe:
            return self.bounds[l + 1] - self.bounds[l], 0
        return self._scan(i, i, l)[1:]

    def rank_pair(self, i, j, l=0):
        """(rank(i, l), rank(j, l)) for i <= j, from one scan when both
        fall in one bucket."""
        w = self.low_widths[l]
        if i < 0 or j >= self.universe or i >> w != j >> w:
            return self.rank_access(i, l)[0], self.rank_access(j, l)[0]
        return self._scan(i, j, l)[:2]

    def rank(self, i, l=0):
        """Number of values < i in list l."""
        return self.rank_access(i, l)[0]

    def access(self, i, l=0):
        """1 when list l holds the value i (conceptual bitvector read)."""
        return self.rank_access(i, l)[1]

    def to_values(self):
        """All values, list after list."""
        lid, j, w = self._per_value()
        ones = np.flatnonzero(self.high.bits.to_bool())
        buckets = ones - np.asarray(self._hi_offs[:-1], dtype=np.int64)[lid] - j
        lows = gather_fields(
            self.lows.words, np.asarray(self._low_offs[:-1])[lid] + j * w, w
        )
        return (buckets << w) | lows.astype(np.int64)

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_SD, 0, self.m, struct.pack("<Q", self.universe),
            [
                ("bounds", IntVector(self.bounds, width_for(max(self.m, 1)))),
                ("lows", self.lows),
                ("high", self.high),
            ],
        )

    @classmethod
    def deserialize(cls, f):
        _, _, _, m = serialize.read_header(f, serialize.MAGIC_SD)
        sd = cls.__new__(cls)
        (sd.universe,) = serialize.read_fields(f, "<Q")
        sd._layout(IntVector.deserialize(f).to_numpy().tolist(), m)
        sd.lows = IntVector.deserialize(f)
        sd.high = BackedBits.deserialize(f)
        if (sd.lows.n, len(sd.high), sd.high.count_ones()) != (
            sd._low_offs[-1], sd._hi_offs[-1], m
        ):
            raise serialize.FormatError("Elias-Fano payload does not match bounds")
        if sd.high.select1_support is None or sd.high.select0_support is None:
            raise serialize.FormatError("Elias-Fano high bits lack a select")
        sd._finish()
        return sd

