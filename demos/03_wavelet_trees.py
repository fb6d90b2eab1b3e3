"""
Wavelet trees: rank/select/access over any alphabet
===================================================

A wavelet tree decomposes a symbol sequence into one bitmap per level,
giving rank, select, access, interval symbol counting, and distinct
counting in O(log sigma) bitmap operations. Both shapes here are wavelet
matrices over any integer alphabet: WaveletTree gives every symbol
ceil(log2 sigma) levels, and the Huffman-shaped WaveletTreeHuff makes
frequent symbols shallow. Every level is an RRR-compressed bitmap, so
both shapes shrink further on skewed levels.
"""

import numpy as np

from succix import WaveletTree, WaveletTreeHuff

rng = np.random.default_rng(3)
n = 500_000

# a skewed byte sequence: low values dominate
seq = np.minimum(rng.geometric(0.08, n) - 1, 255).astype(np.uint8)

wt = WaveletTree(seq.astype(np.int64), sigma=256)
huff = WaveletTreeHuff(seq)

p = np.bincount(seq) / n
h0 = -(p[p > 0] * np.log2(p[p > 0])).sum()
print("sequence of", n, f"skewed bytes, H0 = {h0:.2f} bits/symbol")
for name, tree in (("balanced matrix", wt), ("huffman matrix ", huff)):
    size = tree.serialized_bytes()
    print(f"  {name}: {len(tree.levels):>2} levels,",
          f"{size:>9,}B = {8 * size / n:.2f} bits/symbol")
print("  raw bytes      :", f"{seq.nbytes:>9,}B")

# the query interface is identical across shapes
i, c = 123_456, 2
print(f"\naccess({i})      :", wt.access(i), huff.access(i), int(seq[i]))
true_rank = int((seq[:i] == c).sum())
print(f"rank({i}, c={c})   :", wt.rank(i, c), huff.rank(i, c), true_rank)
j = 1000
true_pos = int(np.flatnonzero(seq == c)[j - 1])
print(f"select({j}, c={c})  :", wt.select(j, c), huff.select(j, c), true_pos)
print(f"access_rank({i}) :", huff.access_rank(i),
      (int(seq[i]), int((seq[:i] == seq[i]).sum())))

# interval queries: occurrences of c and distinct symbols in a slice
lo, hi = 200_000, 210_000
print(f"\ncount(lo, hi, {c}) :", wt.count(lo, hi, c),
      "== numpy", int((seq[lo:hi] == c).sum()))
print("distinct in slice:", wt.count_distinct(lo, hi),
      "== numpy", len(np.unique(seq[lo:hi])))

# any integer alphabet: word ids well above 255, Huffman-shaped
words = np.minimum(rng.geometric(0.002, 50_000) + 300, 4_999)
huff_words = WaveletTreeHuff(words)
print(f"\n{len(np.unique(words))} word ids up to {words.max()}: deepest code",
      huff_words.height, "bits, bytes", f"{huff_words.serialized_bytes():,}")
print("rank(40000, 301) :", huff_words.rank(40_000, 301),
      "== numpy", int((words[:40_000] == 301).sum()))
