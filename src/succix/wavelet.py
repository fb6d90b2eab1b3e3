"""Wavelet trees over integer sequences.

WaveletTree is the balanced shape: one bitvector per level, holding bit
(h-1-level) of every element with elements ordered by their higher bits.
Node spans therefore stay at the same positions across levels, and a node
at depth d with path prefix p covers symbols [p << (h-d), (p+1) << (h-d)).

WaveletTreeHuff is the Huffman-shaped byte variant: per-node bitvectors
along canonical Huffman codes, which makes the total bit count n*H0-ish
instead of n*ceil(log2 sigma).
"""

import heapq
import struct

import numpy as np

from . import serialize
from .compressed import make_bits, read_bits

_BACKEND_IDS = {"plain": 0, "rrr": 1}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_IDS.items()}


def _backend_name(kind):
    if kind not in _BACKEND_NAMES:
        raise serialize.FormatError(f"unknown bits backend id {kind}")
    return _BACKEND_NAMES[kind]


class _WaveletBase(serialize.Framed):
    """Queries both shapes answer the same way, on top of their rank."""

    def __len__(self):
        return self.n

    def select(self, j, c):
        """Position of the j-th (1-based) occurrence of symbol c."""
        j = int(j)
        total = self.rank(self.n, c)
        if not 1 <= j <= total:
            raise ValueError(f"select index {j} out of range (m={total})")
        lo, hi = 0, self.n
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rank(mid + 1, c) >= j:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def count(self, lo, hi, c):
        """Occurrences of c in [lo, hi)."""
        return self.rank(hi, c) - self.rank(lo, c)


class WaveletTree(_WaveletBase):
    """Balanced wavelet tree with rank/select/access and node expansion."""

    _tag = "wavelet"

    def __init__(self, seq, sigma=None, backend="plain"):
        seq = np.asarray(seq, dtype=np.int64)
        if len(seq) and int(seq.min()) < 0:
            raise ValueError("symbols must be non-negative")
        if sigma is None:
            sigma = int(seq.max()) + 1 if len(seq) else 1
        if len(seq) and int(seq.max()) >= sigma:
            raise ValueError("symbol out of range for sigma")
        self.n = len(seq)
        self.sigma = int(sigma)
        self.height = max(1, (self.sigma - 1).bit_length())
        self.backend = backend
        levels = []
        cur = seq.astype(np.min_scalar_type(self.sigma - 1))
        for level in range(self.height):
            shift = self.height - 1 - level
            bits = (cur >> shift) & 1
            levels.append(make_bits(bits.astype(bool), backend))
            if level + 1 < self.height:
                # level l + 1 is level l stably partitioned by the bits down
                # to this one; keys of up to 16 bits sort as one radix pass
                key_type = np.min_scalar_type((self.sigma - 1) >> shift)
                key = (cur >> shift).astype(key_type)
                cur = cur[np.argsort(key, kind="stable")]
        self.levels = levels

    def access(self, i):
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError("index out of range")
        lo, hi = 0, self.n
        value = 0
        for level in range(self.height):
            bv = self.levels[level]
            ones_before = bv.rank(lo)
            b = bv.access(lo + i)
            ones_total = bv.rank(hi) - ones_before
            zeros_total = (hi - lo) - ones_total
            value <<= 1
            if b:
                value |= 1
                i = bv.rank(lo + i) - ones_before
                lo = lo + zeros_total
            else:
                i = (lo + i) - bv.rank(lo + i) - (lo - ones_before)
                hi = lo + zeros_total
        return value

    def rank(self, i, c):
        """Occurrences of symbol c in positions [0, i)."""
        i = int(i)
        c = int(c)
        if i <= 0 or not 0 <= c < self.sigma:
            return 0
        i = min(i, self.n)
        lo, hi = 0, self.n
        for level in range(self.height):
            if i == 0:
                return 0
            bv = self.levels[level]
            b = (c >> (self.height - 1 - level)) & 1
            ones_before = bv.rank(lo)
            ones_at_i = bv.rank(lo + i) - ones_before
            ones_total = bv.rank(hi) - ones_before
            zeros_total = (hi - lo) - ones_total
            if b:
                i = ones_at_i
                lo = lo + zeros_total
                hi = lo + ones_total
            else:
                i = i - ones_at_i
                hi = lo + zeros_total
        return i

    def root(self):
        """(depth, prefix, node_lo, node_hi) tuple for the root node."""
        return (0, 0, 0, self.n)

    def is_leaf(self, node):
        return node[0] == self.height

    def node_symbol_range(self, node):
        depth, prefix = node[0], node[1]
        span = 1 << (self.height - depth)
        return prefix * span, (prefix + 1) * span

    def expand(self, node, qlo, qhi):
        """Split a query interval of a node into the two child intervals.

        Returns ((left_node, l_qlo, l_qhi), (right_node, r_qlo, r_qhi));
        child query intervals may be empty.
        """
        depth, prefix, nlo, nhi = node
        bv = self.levels[depth]
        ones_before = bv.rank(nlo)
        ones_total = bv.rank(nhi) - ones_before
        zeros_total = (nhi - nlo) - ones_total
        ones_lo = bv.rank(qlo) - ones_before
        ones_hi = bv.rank(qhi) - ones_before
        zeros_lo = (qlo - nlo) - ones_lo
        zeros_hi = (qhi - nlo) - ones_hi
        left = (
            (depth + 1, prefix << 1, nlo, nlo + zeros_total),
            nlo + zeros_lo,
            nlo + zeros_hi,
        )
        right = (
            (depth + 1, (prefix << 1) | 1, nlo + zeros_total, nhi),
            nlo + zeros_total + ones_lo,
            nlo + zeros_total + ones_hi,
        )
        return left, right

    def count_distinct(self, qlo, qhi):
        """Number of distinct symbols in positions [qlo, qhi)."""
        if qlo >= qhi:
            return 0
        total = 0
        stack = [(self.root(), qlo, qhi)]
        while stack:
            node, lo, hi = stack.pop()
            if lo >= hi:
                continue
            if self.is_leaf(node):
                total += 1
                continue
            left, right = self.expand(node, lo, hi)
            stack.append(left)
            stack.append(right)
        return total

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_WT, 0, self.n,
            struct.pack(
                "<BQQ", _BACKEND_IDS[self.backend], self.height, self.sigma
            ),
            [(f"level{i}", bv) for i, bv in enumerate(self.levels)],
        )

    @classmethod
    def deserialize(cls, f):
        _, _, shape, n = serialize.read_header(f, serialize.MAGIC_WT)
        if shape != 0:
            raise serialize.FormatError("not a balanced wavelet tree frame")
        kind, height, sigma = serialize.read_fields(f, "<BQQ")
        if height != max(1, (sigma - 1).bit_length()):
            raise serialize.FormatError("wavelet height does not match sigma")
        wt = cls.__new__(cls)
        wt.n = n
        wt.sigma = sigma
        wt.height = height
        wt.backend = _backend_name(kind)
        wt.levels = [read_bits(f) for _ in range(height)]
        if any(len(bv) != n for bv in wt.levels):
            raise serialize.FormatError("wavelet level length is not n")
        return wt


def huffman_lengths(freqs):
    """Code length per symbol from a {symbol: count} dict.

    Merge ties are broken by the smallest symbol in the subtree so the
    shape is deterministic across runs.
    """
    items = sorted((f, s) for s, f in freqs.items() if f > 0)
    if not items:
        return {}
    if len(items) == 1:
        return {items[0][1]: 1}
    heap = [(f, s, (s,)) for f, s in items]
    heapq.heapify(heap)
    lengths = {s: 0 for _, s in items}
    while len(heap) > 1:
        fa, ma, syms_a = heapq.heappop(heap)
        fb, mb, syms_b = heapq.heappop(heap)
        merged = syms_a + syms_b
        for s in merged:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, min(ma, mb), merged))
    return lengths


def canonical_codes(lengths):
    """Assign canonical codes: symbols sorted by (length, symbol).

    Returns {symbol: (code, length)}; shorter codes are numerically
    smaller when left-aligned, which fixes the tree shape.
    """
    order = sorted((l, s) for s, l in lengths.items())
    codes = {}
    code = 0
    prev_len = None
    for length, sym in order:
        if prev_len is not None:
            code = (code + 1) << (length - prev_len)
        codes[sym] = (code, length)
        prev_len = length
    return codes


class WaveletTreeHuff(_WaveletBase):
    """Huffman-shaped wavelet tree with one bitvector per internal node."""

    _tag = "wavelet_huff"

    def __init__(self, seq, backend="plain"):
        seq = np.asarray(seq, dtype=np.int64)
        if len(seq) == 0:
            raise ValueError("cannot build over an empty sequence")
        if int(seq.min()) < 0 or int(seq.max()) > 255:
            raise ValueError("symbols must be bytes (0..255)")
        self.n = len(seq)
        self.backend = backend
        syms, counts = np.unique(seq, return_counts=True)
        freqs = {int(s): int(c) for s, c in zip(syms, counts)}
        self.codes = canonical_codes(huffman_lengths(freqs))
        self._build_trie()
        self._build_nodes(seq)

    def _build_trie(self):
        # children[node] = [left, right]; leaves are ('leaf', symbol)
        children = [[None, None]]
        for sym in sorted(self.codes):
            code, length = self.codes[sym]
            node = 0
            for d in range(length):
                bit = (code >> (length - 1 - d)) & 1
                if d == length - 1:
                    children[node][bit] = ("leaf", sym)
                else:
                    nxt = children[node][bit]
                    if nxt is None:
                        children.append([None, None])
                        nxt = ("node", len(children) - 1)
                        children[node][bit] = nxt
                    node = nxt[1]
        self.children = children

    def _build_nodes(self, seq):
        # bit of symbol s at code depth d, per node walk
        max_len = max(l for _, l in self.codes.values())
        bit_table = np.zeros((max_len, 256), dtype=np.uint8)
        for sym, (code, length) in self.codes.items():
            for d in range(length):
                bit_table[d, sym] = (code >> (length - 1 - d)) & 1
        nodes = [None] * len(self.children)
        stack = [(0, 0, seq)]
        while stack:
            node, depth, sub = stack.pop()
            bits = bit_table[depth, sub]
            nodes[node] = make_bits(bits.astype(bool), self.backend)
            for bit in (1, 0):
                child = self.children[node][bit]
                if child is not None and child[0] == "node":
                    stack.append((child[1], depth + 1, sub[bits == bit]))
        self.nodes = nodes

    @property
    def sigma(self):
        return len(self.codes)

    def access(self, i):
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError("index out of range")
        node = 0
        while True:
            bv = self.nodes[node]
            b = bv.access(i)
            i = (bv.rank(i) if b else i - bv.rank(i))
            child = self.children[node][b]
            if child[0] == "leaf":
                return child[1]
            node = child[1]

    def rank(self, i, c):
        """Occurrences of symbol c in positions [0, i)."""
        i = int(i)
        c = int(c)
        if c not in self.codes:
            return 0
        i = max(0, min(i, self.n))
        code, length = self.codes[c]
        node = 0
        for d in range(length):
            if i == 0:
                return 0
            bit = (code >> (length - 1 - d)) & 1
            bv = self.nodes[node]
            i = bv.rank(i) if bit else i - bv.rank(i)
            if d < length - 1:
                node = self.children[node][bit][1]
        return i

    def _frame(self):
        syms = sorted(self.codes)
        head = struct.pack("<BH", _BACKEND_IDS[self.backend], len(syms))
        table = bytes(v for s in syms for v in (s, self.codes[s][1]))
        return serialize.Frame(
            serialize.MAGIC_WT, 1, self.n, head + table,
            [(f"node{node}", self.nodes[node]) for node in self._preorder()],
        )

    def _preorder(self):
        order = []
        stack = [0]
        while stack:
            node = stack.pop()
            order.append(node)
            for bit in (1, 0):
                child = self.children[node][bit]
                if child is not None and child[0] == "node":
                    stack.append(child[1])
        return order

    @classmethod
    def deserialize(cls, f):
        _, _, shape, n = serialize.read_header(f, serialize.MAGIC_WT)
        if shape != 1:
            raise serialize.FormatError("not a huffman wavelet tree frame")
        kind, nsym = serialize.read_fields(f, "<BH")
        raw = serialize.read_fields(f, f"<{2 * nsym}B")
        lengths = {raw[2 * k]: raw[2 * k + 1] for k in range(nsym)}
        wt = cls.__new__(cls)
        wt.n = n
        wt.backend = _backend_name(kind)
        wt.codes = canonical_codes(lengths)
        wt._build_trie()
        order = wt._preorder()
        nodes = [None] * len(wt.children)
        for node in order:
            nodes[node] = read_bits(f)
        if len(nodes[0]) != n:
            raise serialize.FormatError("wavelet root length is not n")
        wt.nodes = nodes
        return wt


def read_wavelet(f):
    """Deserialize either wavelet shape, dispatching on the header."""
    pos = f.tell()
    _, _, shape, _ = serialize.read_header(f, serialize.MAGIC_WT)
    f.seek(pos)
    return (WaveletTree if shape == 0 else WaveletTreeHuff).deserialize(f)
