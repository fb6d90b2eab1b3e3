"""Succinct range-minimum queries in about 2.4 bits per element.

The values (integers in int64) are folded into Fischer and Heun's
parenthesis sequence: read left to right, each value closes one ')' for
every earlier value still open that is strictly greater, then opens its
own '('. A value j is closed by its next strictly smaller value nse(j),
so value i opens at position i + #{j : nse(j) <= i}, and equal runs keep
their left-to-right order. A query (l, r) becomes: take the '(' positions
a of l and b of r, find the rightmost position q in [a-1, b] minimizing
the parenthesis excess E(q), and count opens up to q+1. A virtual
E(-1) = 0 participates for l = 0 and wins only when strictly smaller.
Ties in the values resolve to the leftmost minimum.

The next-smaller pass makes a bounded number of whole-array rounds
(after Berkman, Schieber and Vishkin's all-nearest-smaller-values): 12
pointer-jumping rounds over the positions still open; then, for what is
left, a scan of the rest of the candidate's 64-value block (its 8-value
group, then the minima of the block's later groups), a binary-lifting
descent over a sparse table of block minima, and a scan of the group it
finds. The Python loops run over the 12 rounds, the 8 offsets of a scan
step and the log2(n/64) levels of the table, never over values. The
scratch arrays are O(n) words: n/8 group minima and a sparse table of
(n/64) log2(n/64) block minima, not n log2 n values.

Besides the bit sequence and its rank/select directories, each row of
_LEVELS keeps a relative min-prefix-excess summary per unit of its size,
folded from the level below. A query scans its end words bit by bit and
splits the rest into a head, a middle of whole next-level units and a
tail (_span); a scan takes the rightmost unit reaching the least excess
and descends to one word (_scan), as in Navarro and Sadakane's range
min-max tree.
"""

import numpy as np

from . import serialize
from .bits import BackedBits, BitVector, IntVector, RankSupport
from .monitor import register_allocation

_M64 = (1 << 64) - 1

# per byte: the minimum excess of its prefixes, the rightmost position
# reaching it, and its total excess; Python lists for the scalar queries
_MINPRE8, _ARGR8, _DELTA8 = [], [], []
for _b in range(256):
    _e, _mn, _arg = 0, 127, 0
    for _j in range(8):
        _e += 1 if (_b >> _j) & 1 else -1
        if _e <= _mn:
            _mn, _arg = _e, _j
    _MINPRE8.append(_mn)
    _ARGR8.append(_arg)
    _DELTA8.append(_e)
del _b, _j, _e, _mn, _arg

# the least prefix excess and the total excess of every 16-bit string,
# low byte first, for the directory build
_lo, _hi = np.arange(1 << 16) & 255, np.arange(1 << 16) >> 8
_m8, _d8 = np.array(_MINPRE8), np.array(_DELTA8)
_MINPRE16 = np.minimum(_m8[_lo], _d8[_lo] + _m8[_hi]).astype(np.int8)
_DELTA16 = (_d8[_lo] + _d8[_hi]).astype(np.int8)
del _lo, _hi, _m8, _d8

# The min-excess levels, finest first: frame part name, bits per unit,
# stored width and in-memory dtype. A unit's summary is the least excess
# of a prefix of it, relative to the excess before it; it is stored plus
# the unit's bits, so never negative. _FANS[k] = units of level k in one
# unit of level k + 1.
_LEVELS = (
    ("word_mins", 64, 8, np.int8),
    ("group_mins", 4096, 13, np.int16),
    ("super_mins", 262144, 19, np.int32),
)
_FANS = tuple(hi[1] // lo[1] for lo, hi in zip(_LEVELS, _LEVELS[1:]))

# pointer-jumping rounds before the block scans take over; each round
# costs a few passes over the positions still open
_JUMP_ROUNDS = 12


def _int64_values(values):
    """The values as a 1-d int64 array; ValueError for anything else."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("RMQ values must be a 1-d sequence")
    if arr.size == 0:
        raise ValueError("cannot build over an empty array")
    kind = arr.dtype.kind
    if kind not in "iu" or (kind == "u" and int(arr.max()) >= 1 << 63):
        raise ValueError(
            f"RMQ values must be integers in the int64 range, got {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


def _padded(values):
    """The values in the narrowest signed dtype that holds them, followed
    by their minimum up to a whole number of 64-value blocks (at least
    one padded slot), so that position n reads as 'no next smaller'."""
    lo, hi = int(values.min()), int(values.max())
    dtype = next(
        t for t in (np.int8, np.int16, np.int32, np.int64)
        if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max
    )
    n = len(values)
    vals = np.full((n // 64 + 1) * 64, lo, dtype=dtype)
    vals[:n] = values
    return vals


def _pointer_jump(vals, n):
    """The first _JUMP_ROUNDS rounds of the next-smaller pass.

    Returns (nse, act, q): nse[i] for every position, final except at the
    positions act still open, whose candidate q = nse[act] is a value not
    smaller than theirs with every value between them not smaller either.
    """
    nse = np.arange(1, n + 2, dtype=np.intp)
    nse[n] = n
    at_min = vals[:n] == vals[n]
    nse[:n][at_min] = n
    act = np.flatnonzero((vals[1 : n + 1] >= vals[:n]) & ~at_min)
    va = vals[act]
    q = act + 1
    for _ in range(_JUMP_ROUNDS):
        if not len(act):
            break
        q = nse[q]
        nse[act] = q
        keep = vals[q] >= va
        act, va, q = act[keep], va[keep], q[keep]
    return nse, act, q


def _first_below(arr, base, lo, va):
    """Per row, the smallest o in [lo, 8) with arr[base + o] < va, or 8."""
    found = np.full(len(base), 8, dtype=np.intp)
    for o in range(7, -1, -1):
        hit = arr[base + o] < va
        hit &= lo <= o
        found[hit] = o
    return found


def _next_smaller(values):
    """nse[i] = the first j > i with values[j] < values[i], or n."""
    n = len(values)
    vals = _padded(values)
    nse, act, q = _pointer_jump(vals, n)
    # An open position's answer is the first value below its own from
    # q + 1 on. Search the rest of that start's 8-value group, then the
    # rest of its 64-value block by group minima, then the later blocks
    # by a sparse table of block minima, then the group found. Position
    # n holds the padded minimum, below every open value, so each search
    # lands at n at the latest.
    va = vals[act]
    g = (q + 1) >> 3
    off = _first_below(vals, g << 3, (q + 1) & 7, va)
    hit = off < 8
    nse[act[hit]] = (g[hit] << 3) + off[hit]
    act, va, g = act[~hit], va[~hit], g[~hit]
    groups = vals.reshape(-1, 8).min(axis=1)
    off = _first_below(groups, g & ~7, (g & 7) + 1, va)
    g = (g & ~7) + off
    later = off == 8
    mins = [groups.reshape(-1, 8).min(axis=1)]
    nb = len(mins[0])
    while 1 << len(mins) <= nb:
        prev, h = mins[-1], 1 << (len(mins) - 1)
        nxt = prev.copy()
        np.minimum(prev[:-h], prev[h:], out=nxt[:-h])
        mins.append(nxt)
    blk, vb = g[later] >> 3, va[later]
    for k in range(len(mins) - 1, -1, -1):
        blk[mins[k][blk] >= vb] += 1 << k
    g[later] = (blk << 3) + _first_below(groups, blk << 3, 0, vb)
    nse[act] = (g << 3) + _first_below(vals, g << 3, 0, va)
    return nse


class RmqSct(serialize.Framed):
    """Range minimum (leftmost tie) over a fixed array of values.

    The values (integers in int64) are not stored; only their ordering
    structure. RmaxSct builds one over complemented values for maxima.
    """

    _tag = "rmq"

    def __init__(self, values):
        values = _int64_values(values)
        self.n = n = len(values)
        opens = np.bincount(_next_smaller(values)[:n], minlength=n + 1)
        np.cumsum(opens, out=opens)
        opens = opens[:n]
        opens += np.arange(n)
        bits = np.zeros(2 * n, dtype=bool)
        bits[opens] = True
        del opens
        self.bp = BackedBits(BitVector(bits), select1=True)
        self._build_dirs()
        self._finish()

    def _build_dirs(self):
        """Fold the 16-bit tables into each level of _LEVELS in turn.
        Bits past the end read as opens and a level's last unit is padded
        with zero summaries: neither goes below the excess of the whole
        prefix before it, so neither sets a minimum."""
        words = self.bp.bits.words.copy()
        tail = self.bp.bits.n & 63
        if tail:
            words[-1] |= np.uint64(_M64 ^ ((1 << tail) - 1))
        halves = words.view(np.uint16)
        mins, deltas, unit = _MINPRE16[halves], _DELTA16[halves], 16
        self._mins = []
        for _, bits, _, dtype in _LEVELS:
            # one unit per column, its parts down the rows
            fan = bits // unit
            m, d = (
                np.pad(a, (0, -len(a) % fan)).reshape(-1, fan).T
                for a in (mins, deltas)
            )
            mins = (np.cumsum(d, axis=0, dtype=np.int32) - d + m).min(axis=0)
            deltas = d.sum(axis=0, dtype=np.int32)
            unit = bits
            self._mins.append(mins.astype(dtype))

    def _finish(self):
        self._words = self.bp.bits._words
        register_allocation(self, sum(m.nbytes for m in self._mins), "rmq")

    def __len__(self):
        return self.n

    def _excess(self, q):
        """E(q) = opens minus closes in positions [0, q]."""
        return 2 * self.bp.rank(q + 1) - (q + 1)

    def _word_argmin(self, widx, lo, hi):
        """Rightmost argmin of E over bit positions [64w+lo, 64w+hi]."""
        base = self._excess((widx << 6) + lo - 1)
        w = self._words[widx] >> lo
        span = hi - lo + 1
        if span < 64:
            w |= _M64 ^ ((1 << span) - 1)
        cur = 0
        best_val = 1 << 30
        best_pos = 0
        for k in range(8):
            byte = (w >> (8 * k)) & 0xFF
            m = cur + _MINPRE8[byte]
            if m <= best_val:
                best_val = m
                best_pos = 8 * k + _ARGR8[byte]
            cur += _DELTA8[byte]
        return (widx << 6) + lo + best_pos, base + best_val

    def _scan(self, level, a, b):
        """Rightmost argmin of E over the whole units [a, b] of a level:
        the last unit whose summary reaches the least excess, then down
        through its parts to one word."""
        bits = _LEVELS[level][1]
        if level:
            # the excess before each unit, from the rank directory
            step = bits // RankSupport.SUPER_BITS
            ones = self.bp.rank_support.abs_counts[a * step : (b + 1) * step : step]
            ex = 2 * ones - np.arange(a * bits, (b + 1) * bits, bits)
        else:
            # the excess before each word, counted from word a
            words = self.bp.bits.words[a : b + 1]
            deltas = 2 * np.bitwise_count(words).astype(np.int64) - bits
            ex = np.zeros(len(words), dtype=np.int64)
            np.cumsum(deltas[:-1], out=ex[1:])
        cands = ex + self._mins[level][a : b + 1]
        k = a + int(np.flatnonzero(cands == cands.min())[-1])
        if not level:
            return self._word_argmin(k, 0, 63)
        fan = _FANS[level - 1]
        return self._scan(level - 1, k * fan, k * fan + fan - 1)

    @staticmethod
    def _rightmost(zones):
        best = None
        for pos, val in zones:
            if best is None or val <= best[1]:
                best = (pos, val)
        return best

    def _span(self, level, a, b):
        """Rightmost argmin of E over the whole units [a, b] of a level. A
        span of more than two next-level units splits into a head, the
        whole units of the next level, and a tail."""
        if level == len(_FANS) or b - a + 1 <= 2 * _FANS[level]:
            return self._scan(level, a, b)
        fan = _FANS[level]
        ua, ub = -(-a // fan), (b + 1) // fan - 1
        zones = []
        if a < ua * fan:
            zones.append(self._scan(level, a, ua * fan - 1))
        zones.append(self._span(level + 1, ua, ub))
        if (ub + 1) * fan <= b:
            zones.append(self._scan(level, (ub + 1) * fan, b))
        return self._rightmost(zones)

    def _argmin_excess(self, x, y):
        """Rightmost argmin of E over bit positions [x, y], 0 <= x <= y."""
        wx, wy = x >> 6, y >> 6
        if wx == wy:
            return self._word_argmin(wx, x & 63, y & 63)
        zones = []
        wa = wx
        if x & 63:
            zones.append(self._word_argmin(wx, x & 63, 63))
            wa = wx + 1
        tail = None
        wb = wy
        if (y & 63) != 63:
            tail = self._word_argmin(wy, 0, y & 63)
            wb = wy - 1
        if wa <= wb:
            zones.append(self._span(0, wa, wb))
        if tail is not None:
            zones.append(tail)
        return self._rightmost(zones)

    def query(self, l, r):
        """Index of the leftmost minimum value in [l, r] inclusive."""
        l, r = int(l), int(r)
        if not 0 <= l <= r < self.n:
            raise ValueError(f"bad query range ({l}, {r}) for n={self.n}")
        if l == r:
            return l
        a = self.bp.select(l + 1)
        b = self.bp.select(r + 1)
        if a == 0:
            pos, val = self._argmin_excess(0, b)
            if val > 0:
                return 0
        else:
            pos, val = self._argmin_excess(a - 1, b)
        return self.bp.rank(pos + 2) - 1

    def _frame(self):
        parts = [("parens", self.bp)] + [
            (name, IntVector(mins.astype(np.int64) + bits, width))
            for (name, bits, width, _), mins in zip(_LEVELS, self._mins)
        ]
        return serialize.Frame(serialize.MAGIC_RMQ, 0, self.n, b"", parts)

    @classmethod
    def deserialize(cls, f):
        _, _, _, n = serialize.read_header(f, serialize.MAGIC_RMQ)
        rm = cls.__new__(cls)
        rm.n = n
        rm.bp = bp = BackedBits.deserialize(f)
        if len(bp) != 2 * n or bp.count_ones() != n or bp.select1_support is None:
            raise serialize.FormatError("parenthesis vector does not match n")
        rm._mins = []
        for name, bits, _, dtype in _LEVELS:
            mins = IntVector.deserialize(f).to_numpy().astype(np.int64) - bits
            units = -(-2 * n // bits)
            if len(mins) != units:
                raise serialize.FormatError(
                    f"{name} holds {len(mins)} values, not one per unit ({units})"
                )
            rm._mins.append(mins.astype(dtype))
        rm._finish()
        return rm


class RmaxSct(serialize.Framed):
    """Range maximum (leftmost tie), as an RmqSct over the complemented
    values: ~v = -v - 1 reverses the order of int64 and keeps ties."""

    _tag = "rmax"

    def __init__(self, values):
        values = _int64_values(values)
        self._rmq = RmqSct(~values)
        self.n = len(values)

    def __len__(self):
        return self.n

    def query(self, l, r):
        return self._rmq.query(l, r)

    def _frame(self):
        return self._rmq._frame()

    @classmethod
    def deserialize(cls, f):
        rm = cls.__new__(cls)
        rm._rmq = RmqSct.deserialize(f)
        rm.n = rm._rmq.n
        return rm
