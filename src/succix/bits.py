"""Bit-packed integer vectors, plain bitvectors, and rank/select support.

Layout notes that the rest of the library relies on:
  * IntVector packs fixed-width values (1..64 bits) little-endian into
    64-bit words; value i occupies bits [i*w, (i+1)*w).
  * RankSupport keeps a two-level directory per 2048-bit superblock: one
    word with the absolute rank at the superblock start, one word packing
    five relative counts at 384-bit offsets, as 11-bit lanes on file and
    12-bit lanes in memory. Overhead is 128 bits per 2048, i.e. 6.25% of
    n, which stays under the 8% budget.
  * SelectSupport samples the position of every 4096th target bit,
    narrows with a binary search over per-superblock target counts and
    finds the sub-block by one compare over all five 12-bit lanes.
  * rank(i) counts target bits in [0, i); select(j) is 1-indexed and
    returns a 0-based position, so select(rank(i)+1) >= i wherever defined.
"""

import math
from bisect import bisect_left

import numpy as np

from . import serialize
from .monitor import register_allocation

WORD = 64
_U64 = np.uint64
_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# Position of the k-th (1-based) set bit of byte b at index 8 * b + k - 1,
# 255 where absent.
_SELECT_IN_BYTE = bytes(
    ([j for j in range(8) if b >> j & 1] + [255] * 8)[k]
    for b in range(256)
    for k in range(8)
)

# The five sub-block counts of a superblock, lane k holding the count in
# its first k + 1 sub-blocks of 384 bits: at most 1920, so bit 11 of every
# 12-bit lane is clear and serves as a guard bit for lane-parallel compares.
_LANES = np.arange(5, dtype=np.uint64)
_LANE_GUARDS = sum(1 << 12 * k + 11 for k in range(5))
# r - 1 in every lane under its guard bit, for r in 1..2048 (0 is unused)
_LANE_TARGETS = tuple(
    (r - 1) * (_LANE_GUARDS >> 11) | _LANE_GUARDS for r in range(2049)
)
# the bits in the first k + 1 sub-blocks, lane by lane
_SUB_ENDS = sum(384 * (k + 1) << 12 * k for k in range(5))


def _relane(rel, src, dst):
    """Sub-block count words with their five lanes moved from src-bit to
    dst-bit spacing (11 on file, 12 in memory)."""
    lanes = (rel[:, None] >> (_LANES * np.uint64(src))) & np.uint64(0x7FF)
    return np.bitwise_or.reduce(lanes << (_LANES * np.uint64(dst)), axis=1)


def width_for(max_value):
    """Smallest width that can hold max_value (at least 1)."""
    mv = int(max_value)
    if mv < 0:
        raise ValueError("negative value in width computation")
    return max(1, mv.bit_length())


def mask_for(width):
    if width == 64:
        return _FULL64
    return np.uint64((1 << width) - 1)


def popcount_words(words):
    return np.bitwise_count(words)


def pack_ints(values, width):
    """Pack an integer array into little-endian 64-bit words."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(values)
    if not 1 <= width <= 64:
        raise ValueError("width must be between 1 and 64")
    if n and width < 64 and int(values.max()) >> width:
        raise ValueError(f"value does not fit in {width} bits")
    # whole groups of lcm(width, 64) bits, column j of every group at
    # once; the last group may be short, and its missing values are zeros
    group_bits = math.lcm(width, 64)
    per_group = group_bits // width
    words2d = np.zeros((-(-n // per_group), group_bits // 64), dtype=np.uint64)
    for j in range(min(per_group, n)):
        bit = j * width
        wi, sh = bit >> 6, bit & 63
        col = values[j::per_group]
        words2d[: len(col), wi] |= col << np.uint64(sh)
        if sh + width > 64:
            words2d[: len(col), wi + 1] |= col >> np.uint64(64 - sh)
    return words2d.reshape(-1)[: serialize.payload_words(n, width)]


def pack_fields(values, widths):
    """Bit stream (an IntVector of width 1) of values of per-value widths
    (0..64) packed back to back, value i at bit sum(widths[:i])."""
    values = np.asarray(values, dtype=np.uint64)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), values.shape)
    ends = np.cumsum(widths)
    nbits = int(ends[-1]) if len(ends) else 0
    nwords = serialize.payload_words(nbits, 1)
    # two spare words take the spill of fields that end on the last word
    words = np.zeros(nwords + 2, dtype=np.uint64)
    starts = ends - widths
    wi = starts >> 6
    sh = (starts & 63).astype(np.uint64)
    np.bitwise_or.at(words, wi, values << sh)
    # the bits past the word's end; (v >> 1) >> 63 keeps sh == 0 at zero
    np.bitwise_or.at(words, wi + 1, (values >> _U64(1)) >> (_U64(63) - sh))
    return IntVector.from_words(words[:nwords], nbits, 1)


def read_field(words, pos, width):
    """The width-bit (0..64) value stored at bit offset pos."""
    if not width:
        return 0
    wi, sh = pos >> 6, pos & 63
    v = int(words[wi]) >> sh
    if sh + width > 64:
        v |= int(words[wi + 1]) << (64 - sh)
    return v & ((1 << width) - 1)


def gather_fields(words, starts, widths):
    """Values of widths 1..64 at arbitrary bit offsets (vectorized)."""
    starts = np.asarray(starts, dtype=np.int64)
    if len(starts) == 0:
        return np.empty(0, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.uint64)
    wi = starts >> 6
    sh = (starts & 63).astype(np.uint64)
    last = len(words) - 1
    lo = words[wi] >> sh
    spill = (sh + widths) > 64
    hi_shift = (np.uint64(64) - sh) & np.uint64(63)
    hi = words[np.minimum(wi + 1, last)] << hi_shift
    out = np.where(spill, lo | hi, lo)
    return out & (_FULL64 >> (np.uint64(64) - widths))


def gather_ints(words, width, positions):
    """Extract packed values at arbitrary indices (vectorized)."""
    return gather_fields(
        words, np.asarray(positions, dtype=np.int64) * width, width
    )


# below this many whole groups of lcm(width, 64) bits, the per-column numpy
# calls cost more than gather_ints takes for the whole read
_COLUMN_GROUPS = 512


def unpack_ints(words, width, start, count):
    """Extract count packed values beginning at index start: the whole
    groups of a long read column by column, as pack_ints writes them, and
    everything else through gather_ints."""
    per_group = math.lcm(width, 64) // width
    g0, g1 = -(-start // per_group), (start + count) // per_group
    if g1 - g0 < _COLUMN_GROUPS:
        return gather_ints(words, width, np.arange(start, start + count))
    out = np.empty(count, dtype=np.uint64)
    head, tail = g0 * per_group - start, g1 * per_group - start
    out[:head] = unpack_ints(words, width, start, head)
    out[tail:] = unpack_ints(words, width, start + tail, count - tail)
    wpg = per_group * width // 64  # words per group
    words2d = words[g0 * wpg : g1 * wpg].reshape(g1 - g0, wpg)
    vals2d = out[head:tail].reshape(g1 - g0, per_group)
    for j in range(per_group):
        wi, sh = j * width >> 6, j * width & 63
        col = words2d[:, wi] >> np.uint64(sh)
        if sh + width > 64:
            col |= words2d[:, wi + 1] << np.uint64(64 - sh)
        np.bitwise_and(col, mask_for(width), out=vals2d[:, j])
    return out


class IntVector(serialize.Framed):
    """Immutable fixed-width packed integer vector."""

    _magic = serialize.MAGIC_INTVEC
    _tag = "int_vector"

    def __init__(self, values=(), width=None):
        values = np.asarray(values, dtype=np.uint64)
        if width is None:
            width = width_for(int(values.max())) if len(values) else 1
        self.width = int(width)
        self.n = len(values)
        self.words = pack_ints(values, self.width)
        self._finish()

    @classmethod
    def from_words(cls, words, n, width):
        iv = cls.__new__(cls)
        iv.width = int(width)
        iv.n = int(n)
        if not 1 <= iv.width <= 64:
            raise ValueError("width must be between 1 and 64")
        nwords = serialize.payload_words(iv.n, iv.width)
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if len(words) != nwords:
            raise ValueError("word count does not match n and width")
        tail = iv.n * iv.width & 63
        if nwords and tail:
            words[-1] &= (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
        iv.words = words
        iv._finish()
        return iv

    def _finish(self):
        # memoryviews hand out single items as Python ints, several times
        # cheaper than numpy scalars; the scalar readers built on this
        # vector's words share this one
        self._words = memoryview(self.words)
        self._mask = (1 << self.width) - 1
        register_allocation(self, self.words.nbytes, self._tag)

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self.n)
            vals = unpack_ints(self.words, self.width, start, max(0, stop - start))
            return vals[::step] if step != 1 else vals
        i = int(i)
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("index out of range")
        bit = i * self.width
        wi, sh = bit >> 6, bit & 63
        words = self._words
        v = words[wi] >> sh
        if sh + self.width > 64:
            v |= words[wi + 1] << (64 - sh)
        return v & self._mask

    def __iter__(self):
        return iter(self.to_numpy())

    def __eq__(self, other):
        if not isinstance(other, IntVector):
            return NotImplemented
        return (
            self.width == other.width
            and self.n == other.n
            and np.array_equal(self.words, other.words)
        )

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, width={self.width})"

    def to_numpy(self, start=0, stop=None):
        if stop is None:
            stop = self.n
        return unpack_ints(self.words, self.width, start, stop - start)

    def _frame(self):
        return serialize.Frame(
            self._magic, self.width, self.n, self.words.astype("<u8", copy=False)
        )

    @classmethod
    def deserialize(cls, f):
        magic, _, width, n = serialize.read_header(f, cls._magic)
        if not 1 <= width <= 64:
            raise serialize.FormatError(f"bad vector width {width}")
        raw = serialize.read_exact(f, 8 * serialize.payload_words(n, width))
        words = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        return cls.from_words(words, n, width)


class BitVector(IntVector):
    """Plain bitvector; an IntVector of width 1 with bit conveniences."""

    _magic = serialize.MAGIC_BITVEC
    _tag = "bit_vector"

    def __init__(self, bits=()):
        bits = np.asarray(bits)
        if bits.dtype != np.bool_:
            bits = bits.astype(bool)
        self.width = 1
        self.n = len(bits)
        packed = np.packbits(bits, bitorder="little")
        nwords = serialize.payload_words(self.n, 1)
        buf = np.zeros(nwords * 8, dtype=np.uint8)
        buf[: len(packed)] = packed
        self.words = buf.view("<u8").astype(np.uint64)
        self._finish()

    @classmethod
    def from_positions(cls, positions, length):
        bits = np.zeros(length, dtype=bool)
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions):
            if positions.min() < 0 or positions.max() >= length:
                raise ValueError("bit position out of range")
            bits[positions] = True
        return cls(bits)

    def to_bool(self):
        bytes_view = self.words.view(np.uint8)
        return np.unpackbits(bytes_view, bitorder="little", count=self.n).astype(bool)

    def count_ones(self):
        return int(popcount_words(self.words).sum())


class RankSupport(serialize.Framed):
    """Two-level rank directory over a BitVector (counts one-bits).

    Per 2048-bit superblock, `abs_counts` holds the ones before it and
    `rel_counts` one word with the ones in its first 1..5 sub-blocks of
    384 bits. In memory those five counts are 12-bit lanes (lane k at bit
    12k), so SelectSupport compares all of them at once; the stored
    directory packs them as 11-bit lanes, and the frame and the loader
    convert between the two.
    """

    _tag = "rank"
    SUPER_BITS = 2048
    SUB_BITS = 384

    def __init__(self, bv):
        self.bv = bv
        self._build()

    def _build(self):
        n = self.bv.n
        words = self.bv.words
        nsuper = -(-n // self.SUPER_BITS) if n else 0
        padded = np.zeros(32 * nsuper + 1, dtype=np.uint64)
        padded[: len(words)] = words
        cum = np.zeros(len(padded) + 1, dtype=np.int64)
        np.cumsum(popcount_words(padded), out=cum[1:])
        self.abs_counts = cum[::32][: nsuper + 1].copy()
        rel = np.zeros(nsuper + 1, dtype=np.uint64)
        for j in range(1, 6):
            counts = (cum[6 * j :: 32][:nsuper] - cum[::32][:nsuper]).astype(np.uint64)
            rel[:nsuper] |= counts << np.uint64(12 * (j - 1))
        self.rel_counts = rel
        self.total_ones = int(cum[len(words)])
        self._finish()

    def _finish(self):
        self._abs = memoryview(self.abs_counts)
        self._rel = memoryview(self.rel_counts)
        self._words = self.bv._words
        register_allocation(
            self, self.abs_counts.nbytes + self.rel_counts.nbytes, "rank_support"
        )

    def rank(self, i):
        """Number of one-bits in [0, i)."""
        i = int(i)
        if i <= 0:
            return 0
        if i >= self.bv.n:
            return self.total_ones
        s, r = i >> 11, i & 2047
        j = r // 384
        base = self._abs[s]
        if j:
            base += (self._rel[s] >> (12 * j - 12)) & 0xFFF
        words = self._words
        w0 = (s << 5) + 6 * j
        wlast = i >> 6
        for t in range(w0, wlast):
            base += words[t].bit_count()
        tail = i & 63
        if tail:
            base += (words[wlast] & ((1 << tail) - 1)).bit_count()
        return base

    def rank0(self, i):
        i = max(0, min(int(i), self.bv.n))
        return i - self.rank(i)

    def rank_many(self, positions):
        """Vectorized rank over an int array of positions in [0, n]."""
        i = np.clip(np.asarray(positions, dtype=np.int64), 0, self.bv.n)
        s = i >> 11
        r = i & 2047
        j = r // 384
        base = self.abs_counts[s].astype(np.int64)
        relshift = (12 * np.maximum(j - 1, 0)).astype(np.uint64)
        rel = (self.rel_counts[s] >> relshift) & np.uint64(0xFFF)
        base += np.where(j > 0, rel.astype(np.int64), 0)
        words = self.bv.words
        if len(words) == 0:
            return base
        last = len(words) - 1
        w0 = (s << 5) + 6 * j
        wlast = i >> 6
        idx = w0[:, None] + np.arange(6)
        valid = idx < wlast[:, None]
        gathered = words[np.minimum(idx, last)]
        base += popcount_words(np.where(valid, gathered, 0)).sum(axis=1).astype(np.int64)
        tail = (i & 63).astype(np.uint64)
        tw = words[np.minimum(wlast, last)]
        tmask = (np.uint64(1) << tail) - np.uint64(1)
        base += popcount_words(np.where(tail > 0, tw & tmask, 0)).astype(np.int64)
        return base

    def _frame(self):
        dir_words = np.empty(2 * len(self.abs_counts), dtype="<u8")
        dir_words[0::2] = self.abs_counts
        dir_words[1::2] = _relane(self.rel_counts, 12, 11)
        return serialize.Frame(
            serialize.MAGIC_RANK, 64, len(dir_words), dir_words
        )

    @classmethod
    def deserialize(cls, f, bv):
        _, _, _, length = serialize.read_header(f, serialize.MAGIC_RANK)
        raw = serialize.read_exact(f, 8 * length)
        dir_words = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        rs = cls.__new__(cls)
        rs.bv = bv
        rs.abs_counts = dir_words[0::2].astype(np.int64)
        rs.rel_counts = _relane(dir_words[1::2], 11, 12)
        expected = -(-bv.n // cls.SUPER_BITS) + 1 if bv.n else 1
        if len(rs.abs_counts) != expected:
            raise serialize.FormatError("rank directory does not match bitvector")
        rs.total_ones = int(rs.abs_counts[-1])
        rs._finish()
        return rs


class SelectSupport(serialize.Framed):
    """Sampled select over a BitVector for one bits or zero bits.

    Stores the position of every 4096th target bit. A query bisects the
    per-superblock target counts between the superblocks of its two
    neighbouring samples. It finds the sub-block in one step from the rank
    directory's in-memory 12-bit lanes (the stored directory's 11-bit lanes
    have no room for the guard bits), then steps through the words and the
    word's 32-, 16- and 8-bit halves to a byte table.
    """

    _tag = "select"
    SAMPLE = 4096

    def __init__(self, bv, rank, value=1):
        self.bv = bv
        self.rank_support = rank
        self.value = int(value)
        bits = bv.to_bool()
        pos = np.flatnonzero(bits if self.value else ~bits)
        self.count = len(pos)
        self.samples = pos[:: self.SAMPLE].astype(np.int64)
        self._finish()

    def _finish(self):
        counts = self.rank_support.abs_counts
        extra = 0
        if not self.value:
            # zeros before each superblock; the last one counts the padding
            counts = (np.arange(len(counts), dtype=np.int64) << 11) - counts
            extra = counts.nbytes
        # memoryviews hand out single items as Python ints, several times
        # cheaper than numpy scalars, and bisect reads them directly
        self._counts = memoryview(counts)
        self._samples = memoryview(self.samples)
        self._rel = self.rank_support._rel
        self._words = self.rank_support._words
        self._flip = 0 if self.value else 0xFFFFFFFFFFFFFFFF
        register_allocation(self, self.samples.nbytes + extra, "select_support")

    def select(self, j):
        """Position of the j-th (1-based) target bit."""
        j = int(j)
        if not 1 <= j <= self.count:
            raise ValueError(f"select index {j} out of range (m={self.count})")
        samples, counts = self._samples, self._counts
        t = (j - 1) >> 12  # the sample at or before j, one per SAMPLE
        hi = (samples[t + 1] >> 11) + 1 if t + 1 < len(samples) else len(counts)
        # superblock s holds the target: counts[s] < j <= counts[s + 1]
        s = bisect_left(counts, j, samples[t] >> 11, hi) - 1
        remaining = j - counts[s]
        # targets in the first 1..5 sub-blocks, one 12-bit lane each
        flip = self._flip
        lanes = _SUB_ENDS - self._rel[s] if flip else self._rel[s]
        # a lane below `remaining` keeps its guard bit through the subtraction
        sub = ((_LANE_TARGETS[remaining] - lanes) & _LANE_GUARDS).bit_count()
        if sub:
            remaining -= (lanes >> (12 * sub - 12)) & 0xFFF
        words = self._words
        # the target lies before n, so the scan stops inside the words
        w = (s << 5) + 6 * sub
        word = words[w] ^ flip
        c = word.bit_count()
        while c < remaining:
            remaining -= c
            w += 1
            word = words[w] ^ flip
            c = word.bit_count()
        base = w << 6
        c = (word & 0xFFFFFFFF).bit_count()
        if c < remaining:
            remaining -= c
            word >>= 32
            base += 32
        c = (word & 0xFFFF).bit_count()
        if c < remaining:
            remaining -= c
            word >>= 16
            base += 16
        c = (word & 0xFF).bit_count()
        if c < remaining:
            remaining -= c
            word >>= 8
            base += 8
        return base + _SELECT_IN_BYTE[((word & 0xFF) << 3) + remaining - 1]

    def _frame(self):
        width = width_for(max(self.bv.n - 1, 1))
        return serialize.Frame(
            serialize.MAGIC_SELECT, self.value, self.count, b"",
            [("samples", IntVector(self.samples, width))],
        )

    @classmethod
    def deserialize(cls, f, bv, rank, value):
        """Read a select directory for target bit `value` (1 or 0)."""
        _, _, kind, count = serialize.read_header(f, serialize.MAGIC_SELECT)
        ones = rank.total_ones
        if (kind, count) != (value, ones if value else bv.n - ones):
            raise serialize.FormatError("select header does not match its bits")
        iv = IntVector.deserialize(f)
        if iv.n != -(-count // cls.SAMPLE):
            raise serialize.FormatError("select samples do not match count")
        ss = cls.__new__(cls)
        ss.bv = bv
        ss.rank_support = rank
        ss.value = value
        ss.count = count
        ss.samples = iv.to_numpy().astype(np.int64)
        ss._finish()
        return ss


class BackedBits(serialize.Framed):
    """A BitVector bundled with rank (and optionally select) supports.

    This is the plain backend used by wavelet trees, Elias-Fano high parts
    and the RMQ parenthesis sequence; access/rank/select all in one place.
    """

    _tag = "bits"
    def __init__(self, bv, select1=False, select0=False):
        self.bits = bv
        self.rank_support = RankSupport(bv)
        self.select1_support = (
            SelectSupport(bv, self.rank_support, 1) if select1 else None
        )
        self.select0_support = (
            SelectSupport(bv, self.rank_support, 0) if select0 else None
        )

    def __len__(self):
        return self.bits.n

    def access(self, i):
        return self.bits[i]

    def rank(self, i):
        return self.rank_support.rank(i)

    def rank0(self, i):
        return self.rank_support.rank0(i)

    def select(self, j):
        return self.select1_support.select(j)

    def select0(self, j):
        return self.select0_support.select(j)

    def count_ones(self):
        return self.rank_support.total_ones

    def _frame(self):
        flags = (1 if self.select1_support else 0) | (
            2 if self.select0_support else 0
        )
        parts = [("payload", self.bits), ("rank", self.rank_support)]
        if self.select1_support:
            parts.append(("select1", self.select1_support))
        if self.select0_support:
            parts.append(("select0", self.select0_support))
        return serialize.Frame(serialize.MAGIC_BITVEC, flags, 0, b"", parts)

    @classmethod
    def deserialize(cls, f):
        _, _, flags, _ = serialize.read_header(f, serialize.MAGIC_BITVEC)
        bv = BitVector.deserialize(f)
        bb = cls.__new__(cls)
        bb.bits = bv
        bb.rank_support = RankSupport.deserialize(f, bv)
        bb.select1_support = (
            SelectSupport.deserialize(f, bv, bb.rank_support, 1)
            if flags & 1 else None
        )
        bb.select0_support = (
            SelectSupport.deserialize(f, bv, bb.rank_support, 0)
            if flags & 2 else None
        )
        return bb
