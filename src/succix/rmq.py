"""Succinct range-minimum queries in about 2.4 bits per element.

The values are folded into a parenthesis sequence by a left-to-right
stack pass (pop while the stack top is strictly greater, write ')' per
pop, then '(' for the element), so equal runs keep their left-to-right
order. A query (l, r) becomes: take the '(' positions a of l and b of r,
find the rightmost position q in [a-1, b] minimizing the parenthesis
excess E(q), and count opens up to q+1. A virtual E(-1) = 0 participates
for l = 0 and wins only when strictly smaller. Ties in the values resolve
to the leftmost minimum.

Besides the bit sequence and its rank/select directories, three levels of
relative min-prefix-excess summaries (per 64-bit word, per 4096 bits, per
262144 bits) bound every query to a few short scans.
"""

import numpy as np

from . import serialize
from .bits import BackedBits, BitVector, IntVector
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

# the same tables as arrays, for the directory build
_MINPRE16 = np.array(_MINPRE8, dtype=np.int32)
_DELTA16 = np.array(_DELTA8, dtype=np.int32)


class RmqSct(serialize.Framed):
    """Range minimum (leftmost tie) over a fixed array of values.

    The values themselves are not stored; only their ordering structure.
    Build over negated values to get a range-maximum structure.
    """

    _tag = "rmq"

    def __init__(self, values):
        values = list(values)
        n = len(values)
        if n == 0:
            raise ValueError("cannot build over an empty array")
        self.n = n
        bits = np.zeros(2 * n, dtype=bool)
        stack = []
        pos = 0
        for v in values:
            while stack and stack[-1] > v:
                stack.pop()
                pos += 1
            bits[pos] = True
            pos += 1
            stack.append(v)
        self.bp = BackedBits(BitVector(bits), select1=True)
        self._build_dirs()
        self._finish()

    def _build_dirs(self):
        words = self.bp.bits.words
        nwords = len(words)
        n_bp = self.bp.bits.n
        ngroups = -(-nwords // 64) if nwords else 1
        nsupers = -(-ngroups // 64)
        buf = np.full(nsupers * 64 * 64, _M64, dtype=np.uint64)
        buf[:nwords] = words
        tail = n_bp & 63
        if tail:
            buf[nwords - 1] |= np.uint64(_M64 ^ ((1 << tail) - 1))
        cols = buf.view(np.uint8).reshape(-1, 8)
        cur = np.zeros(len(buf), dtype=np.int32)
        wmin = np.full(len(buf), 127, dtype=np.int32)
        for k in range(8):
            col = cols[:, k]
            np.minimum(wmin, cur + _MINPRE16[col], out=wmin)
            cur += _DELTA16[col]
        wdelta = cur
        w2d_min = wmin.reshape(-1, 64)
        w2d_delta = wdelta.reshape(-1, 64)
        wcum = np.zeros_like(w2d_delta)
        np.cumsum(w2d_delta[:, :-1], axis=1, out=wcum[:, 1:])
        gmin = (wcum + w2d_min).min(axis=1)
        gdelta = w2d_delta.sum(axis=1)
        g2d_min = gmin.reshape(-1, 64)
        g2d_delta = gdelta.reshape(-1, 64)
        gcum = np.zeros_like(g2d_delta)
        np.cumsum(g2d_delta[:, :-1], axis=1, out=gcum[:, 1:])
        smin = (gcum + g2d_min).min(axis=1)
        self._wordmin = wmin[:nwords].astype(np.int8)
        self._l1min = gmin[: -(-nwords // 64)].astype(np.int16)
        self._l2min = smin.astype(np.int32)

    def _finish(self):
        self._words = self.bp.bits._words
        register_allocation(
            self,
            self._wordmin.nbytes + self._l1min.nbytes + self._l2min.nbytes,
            "rmq",
        )

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

    def _scan_words(self, wa, wb):
        """Rightmost argmin over full words [wa, wb]."""
        words = self.bp.bits.words[wa : wb + 1]
        deltas = 2 * np.bitwise_count(words).astype(np.int64) - 64
        se = np.zeros(len(words), dtype=np.int64)
        np.cumsum(deltas[:-1], out=se[1:])
        cands = se + self._wordmin[wa : wb + 1]
        k = int(np.flatnonzero(cands == cands.min())[-1])
        return self._word_argmin(wa + k, 0, 63)

    def _scan_groups(self, ga, gb):
        """Rightmost argmin over full 4096-bit groups [ga, gb]."""
        g = np.arange(ga, gb + 1, dtype=np.int64)
        abs_counts = self.bp.rank_support.abs_counts
        se = 2 * abs_counts[2 * g] - (g << 12)
        cands = se + self._l1min[ga : gb + 1]
        k = int(np.flatnonzero(cands == cands.min())[-1])
        group = ga + k
        return self._scan_words(group << 6, (group << 6) + 63)

    def _scan_supers(self, sa, sb):
        s = np.arange(sa, sb + 1, dtype=np.int64)
        abs_counts = self.bp.rank_support.abs_counts
        se = 2 * abs_counts[128 * s] - (s << 18)
        cands = se + self._l2min[sa : sb + 1]
        k = int(np.flatnonzero(cands == cands.min())[-1])
        sup = sa + k
        return self._scan_groups(sup << 6, (sup << 6) + 63)

    @staticmethod
    def _rightmost(zones):
        best = None
        for pos, val in zones:
            if best is None or val <= best[1]:
                best = (pos, val)
        return best

    def _middle_groups(self, ga, gb):
        if gb - ga + 1 <= 128:
            return self._scan_groups(ga, gb)
        sa = -(-ga // 64)
        sb = (gb + 1) // 64 - 1
        zones = []
        if ga < sa * 64:
            zones.append(self._scan_groups(ga, sa * 64 - 1))
        zones.append(self._scan_supers(sa, sb))
        if (sb + 1) * 64 <= gb:
            zones.append(self._scan_groups((sb + 1) * 64, gb))
        return self._rightmost(zones)

    def _middle_words(self, wa, wb):
        if wb - wa + 1 <= 128:
            return self._scan_words(wa, wb)
        ga = -(-wa // 64)
        gb = (wb + 1) // 64 - 1
        zones = []
        if wa < ga * 64:
            zones.append(self._scan_words(wa, ga * 64 - 1))
        zones.append(self._middle_groups(ga, gb))
        if (gb + 1) * 64 <= wb:
            zones.append(self._scan_words((gb + 1) * 64, wb))
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
            zones.append(self._middle_words(wa, wb))
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
        return serialize.Frame(serialize.MAGIC_RMQ, 0, self.n, b"", [
            ("parens", self.bp),
            ("word_mins", IntVector(self._wordmin.astype(np.int64) + 64, 8)),
            ("group_mins", IntVector(self._l1min.astype(np.int64) + 4096, 13)),
            ("super_mins", IntVector(
                self._l2min.astype(np.int64) + 262144, 19
            )),
        ])

    @classmethod
    def deserialize(cls, f):
        _, _, _, n = serialize.read_header(f, serialize.MAGIC_RMQ)
        rm = cls.__new__(cls)
        rm.n = n
        rm.bp = bp = BackedBits.deserialize(f)
        if len(bp) != 2 * n or bp.count_ones() != n or bp.select1_support is None:
            raise serialize.FormatError("parenthesis vector does not match n")
        w = IntVector.deserialize(f)
        g = IntVector.deserialize(f)
        s = IntVector.deserialize(f)
        rm._wordmin = (w.to_numpy().astype(np.int64) - 64).astype(np.int8)
        rm._l1min = (g.to_numpy().astype(np.int64) - 4096).astype(np.int16)
        rm._l2min = (s.to_numpy().astype(np.int64) - 262144).astype(np.int32)
        rm._finish()
        return rm


class RmaxSct(serialize.Framed):
    """Range maximum (leftmost tie), by negating values into an RmqSct."""

    _tag = "rmax"

    def __init__(self, values):
        values = np.asarray(values, dtype=np.int64)
        self._rmq = RmqSct((-values).tolist())
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
