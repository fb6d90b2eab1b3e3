"""Top-k document retrieval over a document collection.

Three interchangeable index layouts answer the same query: the k
documents containing a pattern most often, ordered by descending match
count with document id breaking ties.

* SadaIndex lists each distinct document exactly once by recursing over
  range-minimum structures on the previous/next-occurrence arrays, then
  reads per-document counts from the stored per-document inverse suffix
  arrays. The two passes (leftmost and rightmost rows) share the text
  positions they walk, so each distinct row is walked once, and each
  pass stops as soon as its document set is complete: the first at every
  document, the second at the first one's count. Query time scales with
  the number of reported documents.
* GreedyIndex walks a wavelet tree over the document array with a
  max-heap on interval size, emitting documents best-first and stopping
  after k, without touching the rest.
* SortIndex keeps the document array packed verbatim and aggregates the
  query interval with a counting pass; simplest, fastest to build, and
  the baseline the other two are checked against.

Scores are either the raw count (freq) or count * ln(N/df) (tfidf).
The document frequency df is shared by every hit of one pattern, so both
rankings agree on order; when df = N the tfidf scores are exactly zero.
"""

import heapq
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from . import serialize
from .bits import BackedBits, BitVector, IntVector
from .construct import (
    DocIsaTable,
    SaSamples,
    build_suffix_array,
    bwt_from_sa,
    d_from_sa,
    prev_next_occurrence,
    psi_from_bwt,
    read_alphabet,
)
from .csa import CsaPsi, CsaWt
from .monitor import memory_monitor
from .rmq import RmaxSct, RmqSct
from .wavelet import WaveletTree

_U64 = struct.Struct("<Q")

ALGOS = ("sada", "greedy", "sort")
_ALGO_IDS = {"sada": 0, "greedy": 1, "sort": 2}


class Hit(NamedTuple):
    doc: int
    tf: int
    score: float


def _score_hits(pairs, k, ranking, n_docs, df):
    """Turn sorted (doc, tf) pairs into Hits with the requested score."""
    if ranking == "freq":
        return [Hit(d, tf, float(tf)) for d, tf in pairs[:k]]
    idf = math.log(n_docs / df) if df else 0.0
    return [Hit(d, tf, tf * idf) for d, tf in pairs[:k]]


class _IndexBase(serialize.Framed):
    algo = None
    _tag = "index"

    def __len__(self):
        return self.n

    @property
    def mode(self):
        return self.alphabet.kind

    def encode(self, pattern):
        return self.alphabet.encode_pattern(pattern)

    def query(self, pattern, k, ranking="freq"):
        """Top-k documents for a raw pattern, best first.

        Order is (count desc, doc asc). Unknown symbols, empty patterns
        and k <= 0 yield an empty list.
        """
        if ranking not in ("freq", "tfidf"):
            raise ValueError(f"unknown ranking {ranking!r}")
        k = int(k)
        symbols = self.encode(pattern)
        if symbols is None or len(symbols) == 0 or k <= 0:
            return []
        return self._query_symbols(symbols, k, ranking)

    def df(self, pattern):
        """Number of distinct documents containing the pattern."""
        symbols = self.encode(pattern)
        if symbols is None or len(symbols) == 0:
            return 0
        return self._df_symbols(symbols)

    def save(self, path):
        with open(path, "wb") as f:
            return self.serialize(f)


class SadaIndex(_IndexBase):
    algo = "sada"

    def __init__(self, csa, alphabet, border, doc_isa, rminq, rmaxq, n_docs):
        self.csa = csa
        self.alphabet = alphabet
        self.border = border
        self.doc_isa = doc_isa
        self.rminq = rminq
        self.rmaxq = rmaxq
        self.n_docs = n_docs
        self.n = csa.n

    def _doc_offset(self, d):
        # document d starts right after the (d)th separator
        return self.border.select(d) + 1 if d else 0

    def _list_edges(self, sp, ep, rmq, leftmost, limit, walked):
        """Distinct docs in rows [sp, ep] with one edge occurrence each,
        stopping once `limit` documents are listed.

        With the previous-occurrence minimum structure and left-first
        traversal this finds each document's leftmost row; the mirrored
        right-first traversal over next-occurrences finds the rightmost.
        A document already seen proves the whole subinterval is covered,
        so once every document is listed the rest of the stack only holds
        seen ones. `walked` maps rows to text positions: a row already
        walked is not walked again, and every new walk is stored.
        """
        seen = bytearray(self.n_docs + 1)
        edges = {}
        stack = [(sp, ep)]
        while stack and len(edges) < limit:
            lo, hi = stack.pop()
            if lo > hi:
                continue
            x = rmq.query(lo, hi)
            pos = walked.get(x)
            if pos is None:
                pos = walked[x] = self.csa.sa_access(x)
            d = self.border.rank(pos)
            if seen[d]:
                continue
            seen[d] = 1
            if d < self.n_docs:
                edges[d] = pos
            if leftmost:
                stack.append((x + 1, hi))
                stack.append((lo, x - 1))
            else:
                stack.append((lo, x - 1))
                stack.append((x + 1, hi))
        return edges

    def _ranked(self, symbols):
        hit = self.csa.backward_search(symbols)
        if hit is None:
            return []
        sp, ep = hit
        # both passes share one row -> position cache, and the first pass
        # gives the exact df, at which the second one can stop
        walked = {}
        first = self._list_edges(sp, ep, self.rminq, True, self.n_docs, walked)
        last = self._list_edges(sp, ep, self.rmaxq, False, len(first), walked)
        pairs = []
        for d, lpos in first.items():
            off = self._doc_offset(d)
            lo = self.doc_isa.get(d, lpos - off)
            hi = self.doc_isa.get(d, last[d] - off)
            pairs.append((d, hi - lo + 1))
        pairs.sort(key=lambda p: (-p[1], p[0]))
        return pairs

    def _query_symbols(self, symbols, k, ranking):
        pairs = self._ranked(symbols)
        return _score_hits(pairs, k, ranking, self.n_docs, len(pairs))

    def _df_symbols(self, symbols):
        hit = self.csa.backward_search(symbols)
        if hit is None:
            return 0
        return len(self._list_edges(*hit, self.rminq, True, self.n_docs, {}))

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_INDEX, 0, self.n, _U64.pack(self.n_docs),
            [
                ("alphabet", self.alphabet),
                ("csa_psi", self.csa),
                ("doc_borders", self.border),
                ("doc_isa", self.doc_isa),
                ("first_occ_rmq", self.rminq),
                ("last_occ_rmq", self.rmaxq),
            ],
        )

    @classmethod
    def deserialize(cls, f, n, n_docs):
        alphabet = read_alphabet(f)
        csa = CsaPsi.deserialize(f)
        border = BackedBits.deserialize(f)
        doc_isa = DocIsaTable.deserialize(f)
        rminq = RmqSct.deserialize(f)
        rmaxq = RmaxSct.deserialize(f)
        return cls(csa, alphabet, border, doc_isa, rminq, rmaxq, n_docs)


class GreedyIndex(_IndexBase):
    algo = "greedy"

    def __init__(self, csa, alphabet, doc_wt, n_docs):
        self.csa = csa
        self.alphabet = alphabet
        self.doc_wt = doc_wt
        self.n_docs = n_docs
        self.n = csa.n

    def _query_symbols(self, symbols, k, ranking):
        hit = self.csa.backward_search(symbols)
        if hit is None:
            return []
        sp, ep = hit
        wt = self.doc_wt
        root = wt.root()
        heap = [(-(ep + 1 - sp), 0, root, sp, ep + 1)]
        pairs = []
        while heap and len(pairs) < k:
            neg, _, node, qlo, qhi = heapq.heappop(heap)
            if wt.is_leaf(node):
                doc = wt.node_symbol_range(node)[0]
                if doc < self.n_docs:
                    pairs.append((doc, -neg))
                continue
            for child, clo, chi in wt.expand(node, qlo, qhi):
                if chi > clo:
                    lo_sym = wt.node_symbol_range(child)[0]
                    heapq.heappush(
                        heap, (-(chi - clo), lo_sym, child, clo, chi)
                    )
        df = self._df_interval(sp, ep) if ranking == "tfidf" else len(pairs)
        return _score_hits(pairs, k, ranking, self.n_docs, df)

    def _df_interval(self, sp, ep):
        distinct = self.doc_wt.count_distinct(sp, ep + 1)
        if self.doc_wt.count(sp, ep + 1, self.n_docs):
            distinct -= 1
        return distinct

    def _df_symbols(self, symbols):
        hit = self.csa.backward_search(symbols)
        if hit is None:
            return 0
        return self._df_interval(*hit)

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_INDEX, 1, self.n, _U64.pack(self.n_docs),
            [
                ("alphabet", self.alphabet),
                ("csa_wt", self.csa),
                ("doc_wavelet", self.doc_wt),
            ],
        )

    @classmethod
    def deserialize(cls, f, n, n_docs):
        alphabet = read_alphabet(f)
        csa = CsaWt.deserialize(f)
        doc_wt = WaveletTree.deserialize(f)
        return cls(csa, alphabet, doc_wt, n_docs)


class SortIndex(_IndexBase):
    algo = "sort"

    def __init__(self, csa, alphabet, doc_iv, n_docs):
        self.csa = csa
        self.alphabet = alphabet
        self.doc_iv = doc_iv
        self.n_docs = n_docs
        self.n = csa.n

    def _ranked(self, symbols):
        hit = self.csa.backward_search(symbols)
        if hit is None:
            return []
        sp, ep = hit
        ds = self.doc_iv.to_numpy(sp, ep + 1).astype(np.int64)
        counts = np.bincount(ds, minlength=self.n_docs + 1)[: self.n_docs]
        docs = np.flatnonzero(counts)
        tfs = counts[docs]
        order = np.lexsort((docs, -tfs))
        return [(int(docs[i]), int(tfs[i])) for i in order]

    def _query_symbols(self, symbols, k, ranking):
        pairs = self._ranked(symbols)
        return _score_hits(pairs, k, ranking, self.n_docs, len(pairs))

    def _df_symbols(self, symbols):
        return len(self._ranked(symbols))

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_INDEX, 2, self.n, _U64.pack(self.n_docs),
            [
                ("alphabet", self.alphabet),
                ("csa_wt", self.csa),
                ("doc_array", self.doc_iv),
            ],
        )

    @classmethod
    def deserialize(cls, f, n, n_docs):
        alphabet = read_alphabet(f)
        csa = CsaWt.deserialize(f)
        doc_iv = IntVector.deserialize(f)
        return cls(csa, alphabet, doc_iv, n_docs)


_INDEX_CLASSES = {0: SadaIndex, 1: GreedyIndex, 2: SortIndex}


def read_index(f):
    _, _, algo_id, n = serialize.read_header(f, serialize.MAGIC_INDEX)
    (n_docs,) = serialize.read_fields(f, _U64.format)
    try:
        cls = _INDEX_CLASSES[algo_id]
    except KeyError:
        raise serialize.FormatError(f"unknown index layout id {algo_id}")
    return cls.deserialize(f, n, n_docs)


def load_index(path):
    with open(path, "rb") as f:
        return read_index(f)


def _dump_temp(temp_dir, name, obj):
    if temp_dir is None:
        return
    os.makedirs(temp_dir, exist_ok=True)
    with open(os.path.join(temp_dir, name), "wb") as f:
        obj.serialize(f)


def build_sada(collection, sample_rate=32, temp_dir=None):
    """Build the document-listing index, in seven monitored phases.

    Phases land on the package-wide memory monitor; they are no-ops
    unless the caller has started a recording.
    """
    mm = memory_monitor
    text_iv = collection.packed_text()
    n = collection.n
    with mm.phase("sa"):
        _, sa_iv = build_suffix_array(collection.text)
        _dump_temp(temp_dir, "sa.iv", sa_iv)
    with mm.phase("bwt"):
        bwt_iv = bwt_from_sa(text_iv, sa_iv)
        _dump_temp(temp_dir, "bwt.iv", bwt_iv)
    with mm.phase("psi"):
        psi = psi_from_bwt(bwt_iv, collection.sigma_total)
        del bwt_iv
        samples = SaSamples.build(sa_iv, sample_rate)
        csa = CsaPsi(psi, samples, n)
    with mm.phase("doc_isa"):
        doc_isa = DocIsaTable.build(
            sa_iv, collection.offsets, collection.lengths
        )
    with mm.phase("d"):
        d_iv = d_from_sa(sa_iv, collection.sharp_positions, collection.n_docs)
        _dump_temp(temp_dir, "d.iv", d_iv)
        border = BackedBits(
            BitVector.from_positions(collection.sharp_positions, n),
            select1=True,
        )
        del sa_iv
    d_arr = d_iv.to_numpy().astype(np.int64)
    del d_iv
    prev_occ, next_occ = prev_next_occurrence(d_arr)
    del d_arr
    with mm.phase("rminq_c"):
        rminq = RmqSct(prev_occ.tolist())
        del prev_occ
    with mm.phase("rmaxq_cprime"):
        rmaxq = RmaxSct(next_occ)
        del next_occ
    return SadaIndex(
        csa, collection.alphabet, border, doc_isa, rminq, rmaxq,
        collection.n_docs,
    )


def _default_rate(n):
    return min(1 << 20, n)


def build_greedy(collection, sample_rate=None, temp_dir=None):
    mm = memory_monitor
    text_iv = collection.packed_text()
    n = collection.n
    rate = _default_rate(n) if sample_rate is None else sample_rate
    with mm.phase("sa"):
        _, sa_iv = build_suffix_array(collection.text)
        _dump_temp(temp_dir, "sa.iv", sa_iv)
    with mm.phase("bwt"):
        csa = CsaWt.build(text_iv, sa_iv, collection.sigma_total, rate)
    with mm.phase("d"):
        d_iv = d_from_sa(sa_iv, collection.sharp_positions, collection.n_docs)
        _dump_temp(temp_dir, "d.iv", d_iv)
        del sa_iv
        doc_wt = WaveletTree(
            d_iv.to_numpy().astype(np.int64),
            sigma=collection.n_docs + 1,
            backend="rrr",
        )
        del d_iv
    return GreedyIndex(csa, collection.alphabet, doc_wt, collection.n_docs)


def build_sort(collection, sample_rate=None, temp_dir=None):
    mm = memory_monitor
    text_iv = collection.packed_text()
    rate = _default_rate(collection.n) if sample_rate is None else sample_rate
    with mm.phase("sa"):
        _, sa_iv = build_suffix_array(collection.text)
        _dump_temp(temp_dir, "sa.iv", sa_iv)
    with mm.phase("bwt"):
        csa = CsaWt.build(text_iv, sa_iv, collection.sigma_total, rate)
    with mm.phase("d"):
        d_iv = d_from_sa(sa_iv, collection.sharp_positions, collection.n_docs)
        _dump_temp(temp_dir, "d.iv", d_iv)
        del sa_iv
    return SortIndex(csa, collection.alphabet, d_iv, collection.n_docs)


_BUILDERS = {"sada": build_sada, "greedy": build_greedy, "sort": build_sort}


def build_index(algo, collection, **kwargs):
    try:
        builder = _BUILDERS[algo]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo!r}; pick from {ALGOS}")
    return builder(collection, **kwargs)
