"""Naive reference implementations used to pin expected values in tests.

Everything here is written for clarity over speed and is only run on
small inputs (or sampled positions of large ones).
"""

import math
from collections import Counter

import numpy as np


def rank(bits, i, value=1):
    """Count of positions p < i with bits[p] == value."""
    i = max(0, min(int(i), len(bits)))
    return sum(1 for p in range(i) if int(bits[p]) == value)


def select(bits, j, value=1):
    """0-based position of the j-th (1-based) occurrence of value."""
    seen = 0
    for p, b in enumerate(bits):
        if int(b) == value:
            seen += 1
            if seen == j:
                return p
    raise ValueError("not enough occurrences")


def suffix_array(text):
    """Suffix array by direct sorting; text is any sequence of ints."""
    text = list(text)
    return sorted(range(len(text)), key=lambda i: text[i:])


def inverse_permutation(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def bwt(text, sa=None):
    text = list(text)
    if sa is None:
        sa = suffix_array(text)
    n = len(text)
    return [text[(s - 1) % n] for s in sa]


def psi(text, sa=None):
    """psi[i] = position in SA of the suffix one step forward in the text."""
    text = list(text)
    if sa is None:
        sa = suffix_array(text)
    isa = inverse_permutation(sa)
    return [isa[(s + 1) % len(text)] for s in sa]


def lf(text, sa=None):
    text = list(text)
    if sa is None:
        sa = suffix_array(text)
    isa = inverse_permutation(sa)
    return [isa[(s - 1) % len(text)] for s in sa]


def pattern_interval(text, sa, pattern):
    """(sp, ep) interval of suffixes prefixed by pattern, or None."""
    lo, hi = None, None
    for r, s in enumerate(sa):
        if list(text[s : s + len(pattern)]) == list(pattern):
            if lo is None:
                lo = r
            hi = r
    if lo is None:
        return None
    return lo, hi


def occurrences(text, pattern):
    """Sorted text positions where pattern occurs."""
    n, m = len(text), len(pattern)
    return [
        i for i in range(n - m + 1) if list(text[i : i + m]) == list(pattern)
    ]


def rmq(values, l, r):
    """Position of the leftmost minimum in values[l..r] inclusive."""
    best = l
    for i in range(l + 1, r + 1):
        if values[i] < values[best]:
            best = i
    return best


def rmq_parentheses(values):
    """Fischer and Heun's parenthesis sequence by the left-to-right stack
    pass: pop while the stack top is strictly greater, writing ')' per
    pop, then '(' for the value. Returns 2n bools, True for '('."""
    values = [int(v) for v in values]
    bits = [False] * (2 * len(values))
    stack = []
    pos = 0
    for v in values:
        while stack and stack[-1] > v:
            stack.pop()
            pos += 1
        bits[pos] = True
        pos += 1
        stack.append(v)
    return bits


def next_smaller(values):
    """nse[i] = first j > i with values[j] < values[i], or len(values)."""
    values = [int(v) for v in values]
    n = len(values)
    nse = [n] * n
    stack = []
    for j, v in enumerate(values):
        while stack and values[stack[-1]] > v:
            nse[stack.pop()] = j
        stack.append(j)
    return nse


def rmaxq(values, l, r):
    """Position of the leftmost maximum in values[l..r] inclusive."""
    best = l
    for i in range(l + 1, r + 1):
        if values[i] > values[best]:
            best = i
    return best


def top_k_docs(doc_ids, k):
    """Ranked (doc, tf) list: tf descending, doc ascending, first k."""
    tf = Counter(int(d) for d in doc_ids)
    ranked = sorted(tf.items(), key=lambda it: (-it[1], it[0]))
    return ranked[:k]


def distinct_docs(doc_ids):
    return len(set(int(d) for d in doc_ids))


def tfidf(tf, df, n_docs):
    return tf * math.log(n_docs / df)


def binom(n, k):
    return math.comb(n, k)


def rrr_offset(block_bits):
    """Rank of a block among same-popcount blocks, colexicographic."""
    positions = [p for p, b in enumerate(block_bits) if b]
    return sum(math.comb(p, i + 1) for i, p in enumerate(positions))


def elias_fano_positions(values, universe):
    """(low_width, lows, high_bits) decomposition of a sorted value set."""
    m = len(values)
    if m == 0 or universe // m <= 1:
        w = 1
    else:
        w = max(1, int(math.floor(math.log2(universe / m))))
    lows = [v & ((1 << w) - 1) for v in values]
    n_buckets = ((universe - 1) >> w) + 1 if universe else 1
    high = [0] * (n_buckets + m)
    for j, v in enumerate(values):
        high[(v >> w) + j] = 1
    return w, lows, high


def huffman_code_lengths(freqs):
    """Map symbol -> code length from a frequency dict.

    Ties in the merge order are broken by smallest contained symbol so the
    result is deterministic.
    """
    import heapq

    heap = [(f, (sym,)) for sym, f in freqs.items() if f > 0]
    heapq.heapify(heap)
    if len(heap) == 1:
        return {heap[0][1][0]: 1}
    depth = {sym: 0 for _, (sym,) in heap}
    while len(heap) > 1:
        fa, a = heapq.heappop(heap)
        fb, b = heapq.heappop(heap)
        for sym in a + b:
            depth[sym] += 1
        heapq.heappush(heap, (fa + fb, tuple(sorted(a + b))))
    return depth


def wavelet_levels(seq, width):
    """Level-wise bit concatenation of a balanced wavelet tree.

    Returns a list of 0/1 lists, one per level, each of length len(seq).
    Level l stores bit (width-1-l) of each value, with values grouped by
    their higher bits (stable).
    """
    seq = list(seq)
    levels = []
    groups = [seq]
    for level in range(width):
        shift = width - 1 - level
        bits = []
        next_groups = []
        for g in groups:
            bits.extend((v >> shift) & 1 for v in g)
            next_groups.append([v for v in g if not (v >> shift) & 1])
            next_groups.append([v for v in g if (v >> shift) & 1])
        levels.append(bits)
        groups = [g for g in next_groups]
    return levels
