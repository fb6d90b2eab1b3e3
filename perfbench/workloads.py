"""Seeded corpora, pattern sets and the independent top-k oracle.

Everything here depends only on numpy and the seed. Nothing is taken
from `succix` (not its corpus or pattern generators, not `Collection`),
so a change to the library cannot change what a workload feeds it or
what the oracle expects back.

A corpus is held twice: as raw documents in the form the library takes
(bytes, or lists of token strings), and as one flat int32 array of
symbol ranks with -1 between documents, which the oracle scans.
"""

from dataclasses import dataclass

import numpy as np

# Byte corpora use printable bytes 33.. for symbol ranks 0..sigma-1.
_BYTE_BASE = 33


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "byte" or "word"
    n_docs: int
    mean_len: int  # symbols (bytes or tokens) per document
    sigma: int  # distinct symbols the generator may draw
    zipf_s: float
    pattern_len: int
    n_patterns: int
    k: int
    ranking: str
    max_occ: int | None = None  # leave out patterns occurring more often


WORKLOADS = {
    w.name: w
    for w in (
        # Few long documents and a steep law: nearly every pattern occurs
        # in every document, so query time is document listing. sada
        # lists a document in 1-2 ms, which caps the document count.
        Workload("byte-wide", "byte", 16, 12500, 64, 2.0, 4, 200, 10,
                 "freq"),
        # 10^6 symbols and long patterns that occur a few times each, so
        # query time is backward search and build time is suffix sorting.
        # The flatter law keeps the longest repeat well inside one prefix
        # doubling round on every seed.
        Workload("byte-narrow", "byte", 2000, 500, 64, 1.7, 12, 400, 10,
                 "freq"),
        # sigma > 256: balanced BWT wavelet tree, thousands of short Psi
        # lists, and tfidf makes greedy count distinct documents. Most
        # patterns occur once; the top tenth match tens of documents. The
        # ~1% of windows whose trigram occurs over 300 times would take
        # most of a sada round, so they are left out.
        Workload("word-tfidf", "word", 3000, 70, 5000, 1.1, 3, 400, 10,
                 "tfidf", max_occ=300),
    )
}


@dataclass
class Corpus:
    docs: list  # raw documents handed to the library
    flat: np.ndarray  # int32 symbol ranks, -1 after every document
    doc_of: np.ndarray  # int32 document id of every flat position
    freq: np.ndarray  # occurrences of each symbol rank
    n_docs: int


def _words(ranks):
    return [f"w{int(r):04d}" for r in ranks]


def _zipf(sigma, s):
    w = np.arange(1, sigma + 1, dtype=np.float64) ** -s
    return w / w.sum()


def make_corpus(wl, seed):
    """n_docs * mean_len symbols in all, whatever the seed; each document
    gets mean_len // 2 plus a uniform spacing of the rest. Symbols are
    drawn independently from a Zipf law over sigma ranks."""
    rng = np.random.default_rng([seed, 0])
    base = wl.mean_len // 2
    spare = wl.n_docs * (wl.mean_len - base)
    cuts = np.sort(rng.integers(0, spare + 1, size=wl.n_docs - 1))
    lengths = base + np.diff(np.concatenate(([0], cuts, [spare])))
    symbols = rng.choice(wl.sigma, size=int(lengths.sum()),
                         p=_zipf(wl.sigma, wl.zipf_s)).astype(np.int32)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    if wl.mode == "byte":
        raw = (symbols + _BYTE_BASE).astype(np.uint8).tobytes()
        docs = [raw[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    else:
        vocab = np.array(_words(range(wl.sigma)))
        tokens = vocab[symbols].tolist()
        docs = [tokens[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    flat = np.insert(symbols, ends, -1)
    doc_of = np.repeat(np.arange(wl.n_docs, dtype=np.int32), lengths + 1)
    freq = np.bincount(symbols, minlength=wl.sigma)
    return Corpus(docs, flat, doc_of, freq, wl.n_docs)


def make_patterns(wl, corpus, seed):
    """A stratified sample of the windows of pattern_len symbols that lie
    inside one document, so each pattern occurs at least once.

    The windows are sorted by how often their own pattern occurs (ties in
    random order), cut into n_patterns equal strata, and the middle
    window of each stratum is taken. Over the strata this is uniform
    over windows, as a plain draw would be, but every seed gets nearly
    the same mix of rare and frequent patterns, so latency percentiles
    vary little from seed to seed. The patterns are returned in random
    order.

    Returns (raw patterns for the library, symbol-rank arrays).
    """
    rng = np.random.default_rng([seed, 1])
    m = wl.pattern_len
    flat = corpus.flat
    # a window is valid when no separator lies in it
    sep = np.concatenate(([0], np.cumsum(flat < 0)))
    starts = np.flatnonzero(sep[m:] == sep[:-m])
    # 64-bit polynomial hash of each window, to count equal windows
    key = np.zeros(len(starts), dtype=np.uint64)
    for j in range(m):
        key = key * np.uint64(1_000_003) + flat[starts + j].astype(np.uint64)
    _, inverse, counts = np.unique(key, return_inverse=True,
                                   return_counts=True)
    occ = counts[inverse]
    if wl.max_occ is not None:
        starts, occ = starts[occ <= wl.max_occ], occ[occ <= wl.max_occ]
    order = starts[np.lexsort((rng.random(len(starts)), occ))]
    middles = (2 * np.arange(wl.n_patterns) + 1) * len(order) // (
        2 * wl.n_patterns)
    picks = rng.permutation(order[middles])
    ranks = [flat[p : p + m].copy() for p in picks.tolist()]
    if wl.mode == "byte":
        raw = [(r + _BYTE_BASE).astype(np.uint8).tobytes() for r in ranks]
    else:
        raw = [_words(r) for r in ranks]
    return raw, ranks


@dataclass
class Expected:
    pairs: list  # top-k (doc, tf), tf desc then doc asc
    df: int


def oracle(corpus, pattern_ranks, k):
    """Top-k (doc, tf) and df by scanning the raw symbol array: find the
    pattern's rarest symbol, then compare the window around each of its
    positions. Overlapping occurrences all count."""
    flat = corpus.flat
    m = len(pattern_ranks)
    a = int(np.argmin(corpus.freq[pattern_ranks]))
    pos = np.flatnonzero(flat == pattern_ranks[a]) - a
    pos = pos[(pos >= 0) & (pos <= len(flat) - m)]
    for j in range(m):
        if j != a:
            pos = pos[flat[pos + j] == pattern_ranks[j]]
    tf = np.bincount(corpus.doc_of[pos], minlength=corpus.n_docs)
    docs = np.flatnonzero(tf)
    order = np.lexsort((docs, -tf[docs]))[:k]
    pairs = [(int(docs[i]), int(tf[docs[i]])) for i in order]
    return Expected(pairs, len(docs))
