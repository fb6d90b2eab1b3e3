"""Wavelet matrices over integer sequences, balanced or Huffman-shaped.

Both shapes are one wavelet matrix (Claude, Navarro & Ordonez, "The
wavelet matrix", 2015): level l, an RRRVector, holds bit l, counted from
the first, of every element's code that is longer than l. Level 0 is the
sequence in order; level l + 1 is level l's elements with bit 0 followed
by those with bit 1, each group in its order on level l, cut to the
elements whose code goes on. With z the zero count of level l, the
element at position i moves to i - rank1(i) or to z + rank1(i). Every
element of symbol c ends, after its last bit, in one run that starts at
c's leaf start, and the elements before position i land at the front of
that run: so rank(i, c) is one bit rank per level and a subtraction,
both ends of an interval walk together (rank_pair), and access(i) also
yields rank(i, access(i)).

The shapes differ only in the per-symbol table of codes and lengths.
WaveletTree gives every symbol of [0, sigma) its own value as a code of
ceil(log2 sigma) bits, so a node (the elements sharing a code prefix) is
one run on every level and `expand` walks the symbols in order.
WaveletTreeHuff gives each symbol a Huffman code length, for about n*H0
bits in place of n*ceil(log2 sigma), with codes assigned level by level
so that the elements whose code ends on a level are the tail of the next.
"""

import struct
from bisect import bisect_right

import numpy as np

from . import serialize
from .bits import IntVector, width_for
from .compressed import RRRVector

_MAX_CODE_BITS = 63


class _WaveletMatrix(serialize.Framed):
    """The levels and symbol table both shapes share, and their queries.

    A subclass gives `_shape` (the header's width byte), `_lengths(counts)`
    (the code length of each symbol at build) and `_codes(lengths)` (the
    codes, and the symbols in matrix order of their leaves, deepest
    first). The Huffman shape stores its lengths; the balanced shape
    derives them from sigma.
    """

    _shape = None

    def __init__(self, seq, sigma=None):
        seq = np.asarray(seq, dtype=np.int64)
        if len(seq) and int(seq.min()) < 0:
            raise ValueError("symbols must be non-negative")
        if sigma is None:
            sigma = int(seq.max()) + 1 if len(seq) else 1
        if sigma < 1:
            raise ValueError("sigma must be at least 1")
        if len(seq) and int(seq.max()) >= sigma:
            raise ValueError("symbol out of range for sigma")
        self.n = len(seq)
        self.sigma = int(sigma)
        counts = np.bincount(seq, minlength=self.sigma)
        self._set_table(self._lengths(counts), counts)
        # each element's code, left-aligned to the height: level l reads
        # bit (height-1-l)
        h = self.height
        keys = self.codes << (h - self.lengths).astype(np.uint64)
        cur = keys.astype(np.min_scalar_type((1 << h) - 1))[seq]
        levels = []
        for level in range(h):
            bits = ((cur >> (h - 1 - level)) & 1).astype(bool)
            levels.append(RRRVector(bits))
            if level + 1 < h:
                # compress runs several times faster than a boolean index;
                # the elements whose code ended here are the tail
                cur = np.concatenate((cur.compress(~bits), cur.compress(bits)))
                cur = cur[: self._level_n[level + 1]]
        self._finish(levels)

    def _set_table(self, lengths, counts):
        """Codes, leaf starts and level lengths from the code lengths and
        counts, one numpy step per depth."""
        if ((counts > 0) & (lengths == 0)).any():
            raise serialize.FormatError("a counted symbol has no code")
        self.counts, self.lengths = counts, lengths
        self.codes, order = self._codes(lengths)
        self.height = int(lengths.max())
        # the leaves of one depth follow the n_d elements whose code is
        # longer, in matrix order; deeper leaves come first
        ordered = counts[order]
        starts = np.zeros(len(counts), dtype=np.int64)
        starts[order] = np.cumsum(ordered) - ordered
        per_length = np.zeros(self.height + 1, dtype=np.int64)
        np.add.at(per_length, lengths, counts)
        self._level_n = np.cumsum(per_length[::-1])[::-1][1:].tolist()
        # memoryviews hand out single items as Python ints, several times
        # cheaper than numpy scalars, and bisect reads them directly
        self._code, self._length = memoryview(self.codes), memoryview(lengths)
        self._start = memoryview(starts)
        # the runs in order of their starts, for access to bisect
        runs = order[ordered > 0]
        self._run_starts = memoryview(starts[runs])
        self._run_syms = memoryview(runs)

    def _finish(self, levels):
        self.levels = levels
        self.zeros = [len(bv) - bv.count_ones() for bv in levels]
        # (level, its zero count, length of the level below it)
        self._walk = list(zip(levels, self.zeros, self._level_n[1:] + [0]))

    def __len__(self):
        return self.n

    def rank(self, i, c):
        """Occurrences of symbol c in positions [0, i)."""
        i = int(i)
        return self.rank_pair(i, i, int(c))[0]

    def rank_pair(self, i, j, c):
        """(rank(i, c), rank(j, c)) for i <= j: both ends walk c's code
        together, one paired bit rank per level."""
        n = self.n
        if not 0 <= i <= j <= n:
            i, j = min(max(i, 0), n), min(max(j, 0), n)
        length = self._length[c] if 0 <= c < self.sigma else 0
        if not length:
            return 0, 0
        code = self._code[c]
        for bv, z, _ in self._walk:
            length -= 1
            ones_i, ones_j = bv.rank_pair(i, j)
            if code >> length & 1:
                i, j = z + ones_i, z + ones_j
            else:
                i, j = i - ones_i, j - ones_j
            if not length:
                start = self._start[c]
                return i - start, j - start

    def access_rank(self, i):
        """(c, rank(i, c)) for the symbol c at position i, in one walk: the
        walk ends at i's place in c's run."""
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError("index out of range")
        return self.descend(0, i)

    def descend(self, level, i):
        """(c, the count of c before position i on `level`) for the element
        c at position i of `level`, walking one bit access_rank per level
        to the end of c's code. From level 0 this is access_rank(i); from
        a node's level, i anywhere in the node's run."""
        for bv, z, below in self._walk[level:]:
            bit, ones = bv.access_rank(i)
            i = z + ones if bit else i - ones
            if i >= below:
                k = bisect_right(self._run_starts, i) - 1
                return self._run_syms[k], i - self._run_starts[k]

    def access(self, i):
        return self.access_rank(i)[0]

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
        if lo >= hi:
            return 0
        below_lo, below_hi = self.rank_pair(int(lo), int(hi), int(c))
        return below_hi - below_lo

    def _frame(self):
        table = [("counts", IntVector(self.counts, width_for(max(self.n, 1))))]
        if self._shape:
            width = width_for(_MAX_CODE_BITS)
            table.insert(0, ("lengths", IntVector(self.lengths, width)))
        return serialize.Frame(
            serialize.MAGIC_WT, self._shape, self.n,
            struct.pack("<Q", self.sigma),
            table + [(f"level{i}", bv) for i, bv in enumerate(self.levels)],
        )

    @classmethod
    def deserialize(cls, f):
        _, _, shape, n = serialize.read_header(f, serialize.MAGIC_WT)
        if shape != cls._shape:
            raise serialize.FormatError(f"not a {cls.__name__} frame")
        (sigma,) = serialize.read_fields(f, "<Q")
        wt = cls.__new__(cls)
        wt.n, wt.sigma = n, sigma
        lengths = IntVector.deserialize(f).to_numpy() if shape else None
        counts = IntVector.deserialize(f).to_numpy()
        if not sigma or len(counts) != sigma or (shape and len(lengths) != sigma):
            raise serialize.FormatError("symbol table length is not sigma")
        if (counts > n).any() or int(counts.sum()) != n:
            raise serialize.FormatError("symbol counts do not sum to n")
        if shape and (lengths > _MAX_CODE_BITS).any():
            raise serialize.FormatError(f"code length over {_MAX_CODE_BITS}")
        counts = counts.astype(np.int64)
        lengths = lengths.astype(np.int64) if shape else cls._lengths(counts)
        wt._set_table(lengths, counts)
        levels = [RRRVector.deserialize(f) for _ in range(wt.height)]
        if [len(bv) for bv in levels] != wt._level_n:
            raise serialize.FormatError(
                "a wavelet level's length is not the number of codes longer "
                "than it"
            )
        wt._finish(levels)
        return wt


class WaveletTree(_WaveletMatrix):
    """Balanced wavelet matrix with node expansion in symbol order."""

    _tag = "wavelet"
    _shape = 0
    # the benchmark's tracer patches these in each class's own namespace
    rank = _WaveletMatrix.rank
    deserialize = _WaveletMatrix.__dict__["deserialize"]

    @staticmethod
    def _lengths(counts):
        height = max(1, (len(counts) - 1).bit_length())
        return np.full(len(counts), height, dtype=np.int64)

    @staticmethod
    def _codes(lengths):
        # every node above the leaves is internal, so the leaves in matrix
        # order are the children of all nodes, depth by depth
        codes = np.arange(len(lengths), dtype=np.uint64)
        order = np.zeros(1, dtype=np.uint64)  # the root
        for _ in range(int(lengths[0])):
            order = np.concatenate((order << 1, order << 1 | 1))
        return codes, order[order < len(codes)]

    def root(self):
        """(depth, prefix) of the root node."""
        return (0, 0)

    def is_leaf(self, node):
        return node[0] == self.height

    def node_symbol_range(self, node):
        depth, prefix = node
        span = 1 << (self.height - depth)
        return prefix * span, (prefix + 1) * span

    def expand(self, node, qlo, qhi):
        """Split a node's query interval [qlo, qhi) on its level into the
        two child intervals on the next level.

        Returns ((left_node, l_qlo, l_qhi), (right_node, r_qlo, r_qhi));
        child query intervals may be empty.
        """
        depth, prefix = node
        bv, z = self.levels[depth], self.zeros[depth]
        ones_lo, ones_hi = bv.rank_pair(qlo, qhi)
        return (
            ((depth + 1, prefix << 1), qlo - ones_lo, qhi - ones_hi),
            ((depth + 1, prefix << 1 | 1), z + ones_lo, z + ones_hi),
        )

    def count_distinct(self, qlo, qhi):
        """Number of distinct symbols in positions [qlo, qhi): the leaves
        the interval reaches. A node whose interval holds one row holds one
        symbol, so it counts one and is not expanded."""
        qlo, qhi = int(qlo), int(qhi)
        if qlo >= qhi:
            return 0
        total = 0
        stack = [(self.root(), qlo, qhi)]
        while stack:
            node, lo, hi = stack.pop()
            if lo >= hi:
                continue
            if hi - lo == 1 or self.is_leaf(node):
                total += 1
                continue
            left, right = self.expand(node, lo, hi)
            stack.append(left)
            stack.append(right)
        return total


def huffman_lengths(counts):
    """Code length of each symbol from its count; 0 where the count is 0.

    The two-queue method over the counts sorted once: leaves wait in one
    queue, merged nodes in another (made in non-decreasing weight), and
    each merge takes the two lightest heads, a leaf first on a tie.
    Counts are sorted stably, so the smaller symbol comes first on a tie
    and the shape is deterministic.
    """
    counts = np.asarray(counts, dtype=np.int64)
    lengths = np.zeros(len(counts), dtype=np.int64)
    coded = np.flatnonzero(counts > 0)
    order = coded[np.argsort(counts[coded], kind="stable")]
    m = len(order)
    if m <= 1:
        lengths[order] = 1
        return lengths
    weight = counts[order].tolist() + [0] * (m - 1)
    parent = [0] * (2 * m - 1)
    leaf, merged = 0, m
    for node in range(m, 2 * m - 1):
        if leaf < m and (merged == node or weight[leaf] <= weight[merged]):
            a, leaf = leaf, leaf + 1
        else:
            a, merged = merged, merged + 1
        if leaf < m and (merged == node or weight[leaf] <= weight[merged]):
            b, leaf = leaf, leaf + 1
        else:
            b, merged = merged, merged + 1
        parent[a] = parent[b] = node
        weight[node] = weight[a] + weight[b]
    depth = [0] * (2 * m - 1)
    for node in range(2 * m - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths[order] = depth[:m]
    return lengths


def _matrix_codes(lengths):
    """Codes of the given lengths (0: no code) such that at every depth the
    internal nodes come first in matrix order (by bit-reversed code), so
    the elements whose code ends on a level are the tail of the next one.
    Codes of one length go to the symbols in increasing order. Returns the
    codes and the coded symbols in matrix order of their leaves, deepest
    first.

    Raises FormatError unless the lengths make a complete prefix code; a
    single symbol of length 1 is allowed too.
    """
    height = int(lengths.max(initial=0))
    per_depth = np.bincount(lengths, minlength=height + 1).tolist()
    # a complete prefix code has a Kraft sum (of 2^-length) of exactly 1;
    # then no depth has more leaves than free nodes, and no more internal
    # nodes than longer codes
    kraft = sum(k << (height - d) for d, k in enumerate(per_depth) if d)
    if kraft != 1 << height and per_depth[1:] != [1]:
        raise serialize.FormatError("code lengths are not a complete prefix code")
    codes = np.zeros(len(lengths), dtype=np.uint64)
    # the symbols of length d are by_length[ends[d - 1]:ends[d]]; lengths
    # fit a byte, which numpy sorts stably by radix
    by_length = np.argsort(lengths.astype(np.uint8), kind="stable")
    ends = np.cumsum(per_depth)
    internal = np.zeros(1, dtype=np.uint64)  # the root
    deepest_first = []
    for depth in range(1, height + 1):
        # children of the internal nodes, in matrix order
        nodes = np.concatenate((internal << 1, internal << 1 | 1))
        leaves = by_length[ends[depth - 1] : ends[depth]]
        n_internal = len(nodes) - len(leaves)
        codes[leaves] = nodes[n_internal:]
        internal = nodes[:n_internal]
        deepest_first.insert(0, leaves)
    return codes, np.concatenate(deepest_first)


class WaveletTreeHuff(_WaveletMatrix):
    """Huffman-shaped wavelet matrix over any integer alphabet."""

    _tag = "wavelet_huff"
    _shape = 1
    # the benchmark's tracer patches rank in each class's own namespace
    rank = _WaveletMatrix.rank

    @staticmethod
    def _lengths(counts):
        if not counts.any():
            raise ValueError("cannot build over an empty sequence")
        return huffman_lengths(counts)

    _codes = staticmethod(_matrix_codes)
