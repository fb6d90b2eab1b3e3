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

Each layout takes its CSA as an argument and runs over either CsaPsi or
CsaWt; the file names the CSA's kind, so any composition saves and loads.
The builders keep one default each: CsaPsi for sada, CsaWt for the rest.

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
from .csa import CsaPsi, CsaWt, read_csa
from .monitor import memory_monitor
from .rmq import RmaxSct, RmqSct
from .wavelet import WaveletTree

_U64 = struct.Struct("<Q")

ALGOS = ("sada", "greedy", "sort")


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
    """The alphabet, the CSA that finds a pattern's suffix array interval
    (sp, ep), and the frame; each layout answers from (sp, ep)."""

    algo = None
    _tag = "index"
    # (frame part name, attribute) of each document structure, in the
    # order the constructor takes them after n_docs and the file holds them
    _doc_parts = ()

    def __init__(self, csa, alphabet, n_docs, *docs):
        self.csa = csa
        self.alphabet = alphabet
        self.n_docs = n_docs
        self.n = csa.n
        for (_, attr), part in zip(self._doc_parts, docs, strict=True):
            setattr(self, attr, part)

    def __len__(self):
        return self.n

    @property
    def mode(self):
        return self.alphabet.kind

    def encode(self, pattern):
        return self.alphabet.encode_pattern(pattern)

    def _interval(self, pattern):
        """Suffix array interval (sp, ep) of a raw pattern, or None."""
        symbols = self.encode(pattern)
        if symbols is None or len(symbols) == 0:
            return None
        return self.csa.backward_search(symbols)

    def query(self, pattern, k, ranking="freq"):
        """Top-k documents for a raw pattern, best first.

        Order is (count desc, doc asc). Unknown symbols, empty patterns
        and k <= 0 yield an empty list.
        """
        if ranking not in ("freq", "tfidf"):
            raise ValueError(f"unknown ranking {ranking!r}")
        k = int(k)
        hit = self._interval(pattern) if k > 0 else None
        if hit is None:
            return []
        return self._query_interval(*hit, k, ranking)

    def df(self, pattern):
        """Number of distinct documents containing the pattern."""
        hit = self._interval(pattern)
        return 0 if hit is None else self._df_interval(*hit)

    def _query_interval(self, sp, ep, k, ranking):
        pairs = self._ranked(sp, ep)
        return _score_hits(pairs, k, ranking, self.n_docs, len(pairs))

    def _df_interval(self, sp, ep):
        return len(self._ranked(sp, ep))

    def _frame(self):
        parts = [("alphabet", self.alphabet), (self.csa._tag, self.csa)]
        parts += [(name, getattr(self, attr)) for name, attr in self._doc_parts]
        return serialize.Frame(
            serialize.MAGIC_INDEX, ALGOS.index(self.algo), self.n,
            _U64.pack(self.n_docs), parts,
        )

    def save(self, path):
        with open(path, "wb") as f:
            return self.serialize(f)


def _expect(ok, what):
    if not ok:
        raise serialize.FormatError(f"{what} does not match the index header")


class SadaIndex(_IndexBase):
    algo = "sada"
    _doc_parts = (
        ("doc_borders", "border"),
        ("doc_isa", "doc_isa"),
        ("first_occ_rmq", "rminq"),
        ("last_occ_rmq", "rmaxq"),
    )

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

    def _ranked(self, sp, ep):
        # both passes share one row -> position cache, and the first pass
        # gives the exact df, at which the second one can stop
        walked = {}
        first = self._list_edges(sp, ep, self.rminq, True, self.n_docs, walked)
        last = self._list_edges(sp, ep, self.rmaxq, False, len(first), walked)
        pairs = []
        for d, lpos in first.items():
            # document d starts right after the (d)th separator
            off = self.border.select(d) + 1 if d else 0
            lo = self.doc_isa.get(d, lpos - off)
            hi = self.doc_isa.get(d, last[d] - off)
            pairs.append((d, hi - lo + 1))
        pairs.sort(key=lambda p: (-p[1], p[0]))
        return pairs

    def _df_interval(self, sp, ep):
        return len(self._list_edges(sp, ep, self.rminq, True, self.n_docs, {}))

    @classmethod
    def deserialize(cls, f, n, n_docs):
        alphabet, csa = read_alphabet(f), read_csa(f)
        border = BackedBits.deserialize(f)
        doc_isa = DocIsaTable.deserialize(f)
        rminq = RmqSct.deserialize(f)
        rmaxq = RmaxSct.deserialize(f)
        _expect(
            len(doc_isa) == border.count_ones() == n_docs
            and len(border) == rminq.n == rmaxq.n == n,
            "document borders, ISA tables or RMQs",
        )
        return cls(csa, alphabet, n_docs, border, doc_isa, rminq, rmaxq)


class GreedyIndex(_IndexBase):
    algo = "greedy"
    _doc_parts = (("doc_wavelet", "doc_wt"),)

    def _query_interval(self, sp, ep, k, ranking):
        wt = self.doc_wt
        heap = [(-(ep + 1 - sp), 0, wt.root(), sp, ep + 1)]
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

    @classmethod
    def deserialize(cls, f, n, n_docs):
        alphabet, csa = read_alphabet(f), read_csa(f)
        doc_wt = WaveletTree.deserialize(f)
        # row 0 is the global terminator's suffix, in no document
        _expect(
            doc_wt.n == n > 0 and doc_wt.sigma == n_docs + 1
            and doc_wt.access(0) == n_docs,
            "document wavelet tree",
        )
        return cls(csa, alphabet, n_docs, doc_wt)


class SortIndex(_IndexBase):
    algo = "sort"
    _doc_parts = (("doc_array", "doc_iv"),)

    def _ranked(self, sp, ep):
        ds = self.doc_iv.to_numpy(sp, ep + 1).astype(np.int64)
        counts = np.bincount(ds, minlength=self.n_docs + 1)[: self.n_docs]
        docs = np.flatnonzero(counts)
        tfs = counts[docs]
        order = np.lexsort((docs, -tfs))
        return [(int(docs[i]), int(tfs[i])) for i in order]

    @classmethod
    def deserialize(cls, f, n, n_docs):
        alphabet, csa = read_alphabet(f), read_csa(f)
        doc_iv = IntVector.deserialize(f)
        # row 0 is the global terminator's suffix, in no document
        _expect(doc_iv.n == n > 0 and doc_iv[0] == n_docs, "document array")
        return cls(csa, alphabet, n_docs, doc_iv)


_INDEX_CLASSES = {0: SadaIndex, 1: GreedyIndex, 2: SortIndex}


def read_index(f):
    _, _, algo_id, n = serialize.read_header(f, serialize.MAGIC_INDEX)
    (n_docs,) = serialize.read_fields(f, _U64.format)
    try:
        cls = _INDEX_CLASSES[algo_id]
    except KeyError:
        raise serialize.FormatError(f"unknown index layout id {algo_id}")
    index = cls.deserialize(f, n, n_docs)
    _expect(index.csa.n == n, "suffix array length")
    return index


def load_index(path):
    with open(path, "rb") as f:
        return read_index(f)


def _dump_temp(temp_dir, name, obj):
    if temp_dir is None:
        return
    os.makedirs(temp_dir, exist_ok=True)
    with open(os.path.join(temp_dir, name), "wb") as f:
        obj.serialize(f)


def _sa_phase(collection, temp_dir):
    """The monitored `sa` phase: the packed suffix array."""
    with memory_monitor.phase("sa"):
        _, sa_iv = build_suffix_array(collection.text)
        _dump_temp(temp_dir, "sa.iv", sa_iv)
    return sa_iv


def _doc_array(collection, sa_iv, temp_dir):
    """The packed document array D, D[i] = document of suffix SA[i]."""
    d_iv = d_from_sa(sa_iv, collection.sharp_positions, collection.n_docs)
    _dump_temp(temp_dir, "d.iv", d_iv)
    return d_iv


def build_sada(collection, sample_rate=32, temp_dir=None):
    """Build the document-listing index, in seven monitored phases.

    Phases land on the package-wide memory monitor; they are no-ops
    unless the caller has started a recording.
    """
    mm = memory_monitor
    text_iv = collection.packed_text()
    n = collection.n
    sa_iv = _sa_phase(collection, temp_dir)
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
        d_iv = _doc_array(collection, sa_iv, temp_dir)
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
        rminq = RmqSct(prev_occ)
        del prev_occ
    with mm.phase("rmaxq_cprime"):
        rmaxq = RmaxSct(next_occ)
        del next_occ
    return SadaIndex(
        csa, collection.alphabet, collection.n_docs, border, doc_isa, rminq,
        rmaxq,
    )


def _build_over_bwt_wavelet(cls, collection, sample_rate, temp_dir, doc_part):
    """The `sa`, `bwt` and `d` phases of greedy and sort; `doc_part` makes
    the layout's document structure from D. By default one SA sample per
    2^20 rows."""
    mm = memory_monitor
    text_iv = collection.packed_text()
    rate = min(1 << 20, collection.n) if sample_rate is None else sample_rate
    sa_iv = _sa_phase(collection, temp_dir)
    with mm.phase("bwt"):
        csa = CsaWt.build(text_iv, sa_iv, collection.sigma_total, rate)
    with mm.phase("d"):
        d_iv = _doc_array(collection, sa_iv, temp_dir)
        del sa_iv
        docs = doc_part(d_iv)
        del d_iv
    return cls(csa, collection.alphabet, collection.n_docs, docs)


def build_greedy(collection, sample_rate=None, temp_dir=None):
    return _build_over_bwt_wavelet(
        GreedyIndex, collection, sample_rate, temp_dir,
        lambda d_iv: WaveletTree(
            d_iv.to_numpy().astype(np.int64),
            sigma=collection.n_docs + 1,
            backend="rrr",
        ),
    )


def build_sort(collection, sample_rate=None, temp_dir=None):
    return _build_over_bwt_wavelet(
        SortIndex, collection, sample_rate, temp_dir, lambda d_iv: d_iv
    )


_BUILDERS = {"sada": build_sada, "greedy": build_greedy, "sort": build_sort}


def build_index(algo, collection, **kwargs):
    try:
        builder = _BUILDERS[algo]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo!r}; pick from {ALGOS}")
    return builder(collection, **kwargs)
