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
import math
import struct

import numpy as np

from . import serialize
from .bits import BackedBits, BitVector, IntVector, width_for
from .monitor import register_allocation

BLOCK_SIZES = (15, 31, 63)

_BINOM = [[math.comb(p, i) for i in range(64)] for p in range(64)]


def _offset_widths(t):
    return np.array(
        [max(0, (math.comb(t, c) - 1).bit_length()) for c in range(t + 1)],
        dtype=np.int64,
    )


_OFF_WIDTH = {t: _offset_widths(t) for t in BLOCK_SIZES}
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
    return cls, off, dec, starts


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
        return int(_DEC15[_DEC15_START[c] + off])
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
        self.classes = classes
        widths = _OFF_WIDTH[t][classes]
        starts = np.zeros(nblocks + 1, dtype=np.int64)
        np.cumsum(widths, out=starts[1:])
        self.offset_bits = int(starts[-1])
        nwords = (self.offset_bits + 63) // 64
        words = np.zeros(nwords + 1, dtype=np.uint64)
        if nblocks:
            wi = starts[:-1] >> 6
            sh = (starts[:-1] & 63).astype(np.uint64)
            np.bitwise_or.at(words, wi, offs << sh)
            spill = (starts[:-1] & 63) + widths > 64
            if spill.any():
                hi = offs[spill] >> (np.uint64(64) - sh[spill])
                np.bitwise_or.at(words, wi[spill] + 1, hi)
        self.offset_words = words[:nwords].copy()
        nsb = -(-nblocks // self.SB_BLOCKS)
        cum_rank = np.zeros(nblocks + 1, dtype=np.int64)
        np.cumsum(classes, out=cum_rank[1:])
        sb_idx = np.minimum(
            np.arange(nsb + 1, dtype=np.int64) * self.SB_BLOCKS, nblocks
        )
        self.sb_ranks = cum_rank[sb_idx]
        self.sb_ptrs = starts[sb_idx]
        self.total_ones = int(cum_rank[-1])
        self._zeros_sb = self._bits_before(sb_idx) - self.sb_ranks

    def _bits_before(self, block_idx):
        return np.minimum(np.asarray(block_idx, dtype=np.int64) * self.t, self.n)

    def _finish(self):
        nbytes = (
            self.classes.nbytes
            + self.offset_words.nbytes
            + self.sb_ranks.nbytes
            + self.sb_ptrs.nbytes
        )
        register_allocation(self, nbytes, "rrr_vector")

    def __len__(self):
        return self.n

    def count_ones(self):
        return self.total_ones

    def _read_offset(self, ptr, width):
        if width == 0:
            return 0
        wi, sh = ptr >> 6, ptr & 63
        v = int(self.offset_words[wi]) >> sh
        if sh + width > 64:
            v |= int(self.offset_words[wi + 1]) << (64 - sh)
        return v & ((1 << width) - 1)

    def _block_value(self, b):
        """Decode block b from its superblock pointer."""
        s = b // self.SB_BLOCKS
        ptr = int(self.sb_ptrs[s])
        first = s * self.SB_BLOCKS
        widths = _OFF_WIDTH[self.t]
        cls = self.classes[first:b]
        if len(cls):
            ptr += int(widths[cls].sum())
        c = int(self.classes[b])
        off = self._read_offset(ptr, int(widths[c]))
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
        s = b // self.SB_BLOCKS
        first = s * self.SB_BLOCKS
        total = int(self.sb_ranks[s])
        cls = self.classes[first:b]
        if len(cls):
            total += int(cls.sum())
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
        marks = self.sb_ranks if value else self._zeros_sb
        s = int(np.searchsorted(marks, j, side="left")) - 1
        b = s * self.SB_BLOCKS
        have = int(marks[s])
        while True:
            c = int(self.classes[b])
            nbits = min(self.t, self.n - b * self.t)
            inc = c if value else nbits - c
            if have + inc >= j:
                break
            have += inc
            b += 1
        v = self._block_value(b)
        if not value:
            v = ~v & ((1 << self.t) - 1)
        remaining = j - have
        while remaining > 1:
            v &= v - 1
            remaining -= 1
        return b * self.t + (v & -v).bit_length() - 1

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
            ("classes", IntVector(self.classes, _CLASS_BITS[self.t])),
            ("offsets", IntVector.from_words(
                self.offset_words.copy(), self.offset_bits, 1
            )),
            ("pointers", IntVector(
                self.sb_ptrs, width_for(max(self.offset_bits, 1))
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
        rv.classes = cls_iv.to_numpy().astype(np.uint8)
        rv.offset_bits = off_iv.n
        rv.offset_words = off_iv.words
        rv.sb_ptrs = ptr_iv.to_numpy().astype(np.int64)
        rv.sb_ranks = rnk_iv.to_numpy().astype(np.int64)
        rv.total_ones = int(rv.sb_ranks[-1]) if len(rv.sb_ranks) else 0
        nsb = -(-rv.nblocks // cls.SB_BLOCKS)
        sb_idx = np.minimum(
            np.arange(nsb + 1, dtype=np.int64) * cls.SB_BLOCKS, rv.nblocks
        )
        rv._zeros_sb = rv._bits_before(sb_idx) - rv.sb_ranks
        rv._finish()
        return rv


class SDVector(serialize.Framed):
    """Elias-Fano encoding of a sorted (non-decreasing) integer sequence.

    Supports select1 (the j-th stored value) and rank (how many stored
    values are < i) over a conceptual bitvector of length `universe` with
    a one at each stored value.
    """

    _tag = "sd"

    def __init__(self, values, universe):
        values = np.asarray(values, dtype=np.int64)
        m = len(values)
        n = int(universe)
        if m:
            if int(values.min()) < 0 or int(values.max()) >= n:
                raise ValueError("value outside universe")
            if (np.diff(values) < 0).any():
                raise ValueError("values must be non-decreasing")
        self.universe = n
        self.m = m
        self.low_width = self._width(n, m)
        w = self.low_width
        self.lows = IntVector(
            (values & ((1 << w) - 1)).astype(np.uint64), w
        )
        n_buckets = ((n - 1) >> w) + 1 if n else 1
        hi_pos = (values >> w) + np.arange(m, dtype=np.int64)
        high_bits = BitVector.from_positions(hi_pos, n_buckets + m)
        self.high = BackedBits(high_bits, select1=True, select0=True)

    @staticmethod
    def _width(n, m):
        if m == 0 or n // m < 2:
            return 1
        return (n // m).bit_length() - 1

    def __len__(self):
        return self.universe

    def count_ones(self):
        return self.m

    def select(self, j):
        """The j-th (1-based) stored value."""
        if not 1 <= j <= self.m:
            raise ValueError(f"select index {j} out of range (m={self.m})")
        p = self.high.select(j)
        return ((p - j + 1) << self.low_width) | self.lows[j - 1]

    def rank(self, i):
        """Number of stored values < i."""
        i = int(i)
        if i <= 0 or self.m == 0:
            return 0
        if i > self.universe:
            i = self.universe
        w = self.low_width
        b = i >> w
        j = self.high.select0(b) - b + 1 if b else 0
        low_i = i & ((1 << w) - 1)
        if low_i == 0:
            return j
        bits = self.high.bits
        hlen = bits.n
        while j < self.m and b + j < hlen and bits[b + j] == 1:
            if self.lows[j] >= low_i:
                break
            j += 1
        return j

    def access(self, i):
        """1 when some stored value equals i (conceptual bitvector read)."""
        return 1 if self.rank(i + 1) - self.rank(i) > 0 else 0

    def to_values(self):
        if self.m == 0:
            return np.empty(0, dtype=np.int64)
        ones = np.flatnonzero(self.high.bits.to_bool())
        j = np.arange(self.m, dtype=np.int64)
        return ((ones - j) << self.low_width) | self.lows.to_numpy().astype(
            np.int64
        )

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_SD, self.low_width, self.m,
            struct.pack("<Q", self.universe),
            [("lows", self.lows), ("high", self.high)],
        )

    @classmethod
    def deserialize(cls, f):
        _, _, w, m = serialize.read_header(f, serialize.MAGIC_SD)
        (universe,) = serialize.read_fields(f, "<Q")
        sd = cls.__new__(cls)
        sd.universe = universe
        sd.m = m
        sd.low_width = w
        sd.lows = IntVector.deserialize(f)
        sd.high = BackedBits.deserialize(f)
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
