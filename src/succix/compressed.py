"""Compressed bitvector representations.

RRRVector stores fixed-size blocks as (popcount class, in-class offset)
pairs; offsets use the colexicographic combinatorial numbering, so a block
with one-bits at ascending positions p_1 < ... < p_c gets offset
sum(C(p_i, i)). Block size t is 15, 31 or 63 so offsets fit a word.

SDVector is an Elias-Fano encoding of a sorted integer multiset: each
value splits into a low part of fixed width and a high part stored in
unary in a plain bitvector with rank/select support.
"""

import bisect
import itertools
import math
import struct

import numpy as np

from . import serialize
from .bits import (
    BackedBits, BitVector, IntVector, gather_fields, pack_fields, read_field,
    width_for,
)
from .monitor import register_allocation

BLOCK_SIZES = (15, 31, 63)

_BINOM = [[math.comb(p, i) for i in range(64)] for p in range(64)]


def _offset_widths(t):
    return np.array(
        [max(0, (math.comb(t, c) - 1).bit_length()) for c in range(t + 1)],
        dtype=np.int64,
    )


_OFF_WIDTH = {t: _offset_widths(t) for t in BLOCK_SIZES}
# offset width by class as a bytes.translate table, so that a run of class
# bytes sums to its offset bits without numpy
_WIDTH_TABLE = {
    t: bytes(w.tolist()) + bytes(255 - t) for t, w in _OFF_WIDTH.items()
}
# zero bits of a block by class, as a bytes.translate table
_ZERO_TABLE = {t: bytes(range(t, -1, -1)) + bytes(255 - t) for t in BLOCK_SIZES}
# the widest class field of each block size; a vector stores its classes
# at the width of its largest class
_CLASS_BITS = {15: 4, 31: 5, 63: 6}

# per-class binomial columns for arithmetic decode: _COLS[t][i][p] = C(p, i)
_COLS = {
    t: [[_BINOM[p][i] for p in range(t + 1)] for i in range(t + 1)]
    for t in BLOCK_SIZES
}


def _build_tables15():
    vals = np.arange(1 << 15, dtype=np.uint32)
    cls = np.bitwise_count(vals).astype(np.uint8)
    off = np.zeros(1 << 15, dtype=np.uint32)
    cnt = np.zeros(1 << 15, dtype=np.intp)
    for p in range(15):
        bit = (vals >> np.uint32(p)) & 1
        col = np.array([_BINOM[p][i] for i in range(17)], dtype=np.uint32)
        off += np.where(bit == 1, col[cnt + 1], 0)
        cnt += bit
    order = np.lexsort((off, cls))
    dec = vals[order].astype(np.uint16)
    starts = np.zeros(17, dtype=np.int64)
    starts[1:] = np.cumsum(np.bincount(cls, minlength=16))
    # decode_block reads the block table item by item
    return cls, off, memoryview(dec), starts.tolist()


_CLS15, _OFF15, _DEC15, _DEC15_START = _build_tables15()


def encode_block(value, t):
    """(class, offset) of a t-bit block given as an int."""
    c = value.bit_count()
    off = 0
    i = 0
    v = value
    while v:
        p = (v & -v).bit_length() - 1
        i += 1
        off += _BINOM[p][i]
        v &= v - 1
    return c, off


def decode_block(c, off, t):
    """Inverse of encode_block."""
    if t == 15:
        return _DEC15[_DEC15_START[c] + off]
    v = 0
    for i in range(c, 0, -1):
        p = bisect.bisect_right(_COLS[t][i], off) - 1
        v |= 1 << p
        off -= _BINOM[p][i]
    return v


class RRRVector(serialize.Framed):
    """H0-compressed bitvector with rank and select.

    Blocks of `block_size` bits become class/offset pairs; superblocks of
    32 blocks store an absolute rank and a bit pointer into the offset
    stream, so queries scan at most 31 class entries.
    """

    SB_BLOCKS = 32
    _tag = "rrr"

    def __init__(self, bits, block_size=15):
        if block_size not in BLOCK_SIZES:
            raise ValueError(f"block_size must be one of {BLOCK_SIZES}")
        if isinstance(bits, BitVector):
            bits = bits.to_bool()
        bits = np.asarray(bits)
        if bits.dtype != np.bool_:
            bits = bits.astype(bool)
        self.t = block_size
        self.n = len(bits)
        self._encode(bits)
        self._finish()

    def _encode(self, bits):
        t = self.t
        nblocks = -(-self.n // t)
        padded = np.zeros(nblocks * t, dtype=bool)
        padded[: self.n] = bits
        blocks2d = padded.reshape(nblocks, t)
        if t == 15:
            powers = (np.uint32(1) << np.arange(15, dtype=np.uint32))
            vals = blocks2d.astype(np.uint32) @ powers
            classes = _CLS15[vals]
            offs = _OFF15[vals].astype(np.uint64)
        else:
            classes = np.zeros(nblocks, dtype=np.uint8)
            offs = np.zeros(nblocks, dtype=np.uint64)
            for b in range(nblocks):
                word = 0
                for j in np.flatnonzero(blocks2d[b]):
                    word |= 1 << int(j)
                c, o = encode_block(word, t)
                classes[b] = c
                offs[b] = o
        self.nblocks = nblocks
        self.classes = classes.tobytes()
        self.class_width = width_for(int(classes.max(initial=0)))
        widths = _OFF_WIDTH[t][classes]
        starts = np.zeros(nblocks + 1, dtype=np.int64)
        np.cumsum(widths, out=starts[1:])
        self.offsets = pack_fields(offs, widths)
        nsb = -(-nblocks // self.SB_BLOCKS)
        cum_rank = np.zeros(nblocks + 1, dtype=np.int64)
        np.cumsum(classes, out=cum_rank[1:])
        sb_idx = np.minimum(
            np.arange(nsb + 1, dtype=np.int64) * self.SB_BLOCKS, nblocks
        )
        self.sb_ranks = cum_rank[sb_idx]
        self.sb_ptrs = starts[sb_idx]
        self.total_ones = int(cum_rank[-1])

    def _finish(self):
        # superblock entries as uint32 where they fit, half of int64
        self.sb_ranks, self.sb_ptrs = (
            a.astype(np.uint32 if int(a.max(initial=0)) >> 32 == 0 else np.int64)
            for a in (self.sb_ranks, self.sb_ptrs)
        )
        nbytes = len(self.classes) + self.sb_ranks.nbytes + self.sb_ptrs.nbytes
        register_allocation(self, nbytes, "rrr_vector")
        sb_bits = np.arange(len(self.sb_ranks)) * (self.SB_BLOCKS * self.t)
        # memoryviews hand out single items as Python ints, several times
        # cheaper than numpy scalars, and bisect reads them directly
        self._ranks = memoryview(self.sb_ranks)
        # zeros before each superblock, for select0
        self._zeros = memoryview(np.minimum(sb_bits, self.n) - self.sb_ranks)
        self._ptrs = memoryview(self.sb_ptrs)
        self._words = self.offsets._words
        self._widths = _WIDTH_TABLE[self.t]
        self._zero_counts = _ZERO_TABLE[self.t]

    def __len__(self):
        return self.n

    def count_ones(self):
        return self.total_ones

    def _block_value(self, b):
        """Decode block b from its superblock pointer."""
        first = b - b % self.SB_BLOCKS
        cls = self.classes
        widths = self._widths
        ptr = self._ptrs[b // self.SB_BLOCKS] + sum(cls[first:b].translate(widths))
        c = cls[b]
        off = read_field(self._words, ptr, widths[c])
        return decode_block(c, off, self.t)

    def access(self, i):
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError("bit index out of range")
        b, r = divmod(i, self.t)
        return (self._block_value(b) >> r) & 1

    def __getitem__(self, i):
        return self.access(i)

    def rank(self, i):
        """Number of one-bits in [0, i)."""
        i = int(i)
        if i <= 0:
            return 0
        if i >= self.n:
            return self.total_ones
        b, r = divmod(i, self.t)
        first = b - b % self.SB_BLOCKS
        total = self._ranks[b // self.SB_BLOCKS] + sum(self.classes[first:b])
        if r:
            v = self._block_value(b)
            total += (v & ((1 << r) - 1)).bit_count()
        return total

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
            # t - c zeros per block; the padding of the last block counts
            # too, but the target lies before it
            row = row.translate(self._zero_counts)
        # block b + k holds the target: ends[k] < j <= ends[k + 1]
        ends = list(itertools.accumulate(row, initial=marks[s]))
        k = bisect.bisect_left(ends, j) - 1
        b += k
        v = self._block_value(b)
        t = self.t
        if not value:
            v = ~v & ((1 << t) - 1)
        remaining = j - ends[k]
        while remaining > 1:
            v &= v - 1
            remaining -= 1
        return b * t + (v & -v).bit_length() - 1

    def select(self, j):
        """Position of the j-th (1-based) one-bit."""
        return self._select_generic(j, 1)

    def select0(self, j):
        return self._select_generic(j, 0)

    def to_bool(self):
        out = np.zeros(self.n, dtype=bool)
        for b in range(self.nblocks):
            v = self._block_value(b)
            hi = min(self.t, self.n - b * self.t)
            for r in range(hi):
                out[b * self.t + r] = (v >> r) & 1
        return out

    def _frame(self):
        return serialize.Frame(serialize.MAGIC_RRR, self.t, self.n, b"", [
            ("classes", IntVector(
                np.frombuffer(self.classes, dtype=np.uint8), self.class_width
            )),
            ("offsets", self.offsets),
            ("pointers", IntVector(
                self.sb_ptrs, width_for(max(self.offsets.n, 1))
            )),
            ("ranks", IntVector(
                self.sb_ranks, width_for(max(self.total_ones, 1))
            )),
        ])

    @classmethod
    def deserialize(cls, f):
        _, _, t, n = serialize.read_header(f, serialize.MAGIC_RRR)
        if t not in BLOCK_SIZES:
            raise serialize.FormatError(f"bad block size {t}")
        rv = cls.__new__(cls)
        rv.t = t
        rv.n = n
        rv.nblocks = -(-n // t)
        cls_iv = IntVector.deserialize(f)
        off_iv = IntVector.deserialize(f)
        ptr_iv = IntVector.deserialize(f)
        rnk_iv = IntVector.deserialize(f)
        nsb = -(-rv.nblocks // cls.SB_BLOCKS)
        if (cls_iv.n, ptr_iv.n, rnk_iv.n) != (rv.nblocks, nsb + 1, nsb + 1):
            raise serialize.FormatError("RRR vectors do not match n and t")
        if cls_iv.width > _CLASS_BITS[t]:
            raise serialize.FormatError(f"RRR class width {cls_iv.width} over t")
        rv.class_width = cls_iv.width
        rv.classes = cls_iv.to_numpy().astype(np.uint8).tobytes()
        rv.offsets = off_iv
        rv.sb_ptrs = ptr_iv.to_numpy()
        rv.sb_ranks = rnk_iv.to_numpy()
        rv.total_ones = int(rv.sb_ranks[-1]) if len(rv.sb_ranks) else 0
        rv._finish()
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

    def rank_access(self, i, l=0):
        """(rank(i, l), access(i, l)) from one scan of i's bucket."""
        i = int(i)
        bounds = self.bounds
        first = bounds[l]
        m = bounds[l + 1] - first
        if i < 0 or m == 0:
            return 0, 0
        if i >= self.universe:
            return m, 0
        w = self.low_widths[l]
        hi = self._hi_offs[l]
        b = i >> w
        # the b-th zero of list l ends its values below b << w
        j = self._select0.select(hi - first + b) - hi - b + 1 if b else 0
        mask = (1 << w) - 1
        low_i = i & mask
        high_words = self._high_words
        low_words = self._low_words
        pos, lo = hi + b + j, self._low_offs[l] + j * w
        while j < m and (high_words[pos >> 6] >> (pos & 63)) & 1:
            sh = lo & 63
            low = low_words[lo >> 6] >> sh
            if sh + w > 64:
                low |= low_words[(lo >> 6) + 1] << (64 - sh)
            low &= mask
            if low >= low_i:
                return j, int(low == low_i)
            j, pos, lo = j + 1, pos + 1, lo + w
        return j, 0

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


def make_bits(bits, kind="plain", select1=False, select0=False):
    """Build a rank-capable bit structure of the requested kind.

    Both kinds share the query protocol (len, access, rank, rank0,
    select, select0, count_ones, serialize); RRR carries select built in.
    """
    if kind == "rrr":
        return RRRVector(bits)
    if kind == "plain":
        if not isinstance(bits, BitVector):
            bits = BitVector(bits)
        return BackedBits(bits, select1=select1, select0=select0)
    raise ValueError(f"unknown bits backend {kind!r}")


def read_bits(f):
    """Deserialize whatever make_bits wrote, dispatching on the magic."""
    magic = serialize.peek_magic(f)
    if magic == serialize.MAGIC_RRR:
        return RRRVector.deserialize(f)
    if magic == serialize.MAGIC_BITVEC:
        return BackedBits.deserialize(f)
    raise serialize.FormatError(f"unexpected magic {magic!r}")
