"""Compressed suffix arrays over a packed text.

Two interchangeable flavors, both answering backward search, suffix
array access through sampled values, and text extraction:

* CsaPsi keeps one Elias-Fano list per symbol holding that symbol's
  slice of the Psi permutation, all lists in one SDVector. A pattern
  step is one paired rank; text walks forward through Psi.
* CsaWt keeps a Huffman-shaped wavelet matrix over the BWT, whose
  symbol counts give the CNT table. A pattern step is one wavelet walk
  that carries both interval ends; text walks backward through LF, one
  wavelet walk per step.

Suffix array samples are text-order marks (rows whose value is a
multiple of the rate), so a walk meets a mark within `rate` steps. The
marks are an RRR vector of 15-bit blocks, and most steps learn from one
class byte that their row is not sampled. A walk that passes `rate`
steps without a mark can only come from a corrupt file, and raises
FormatError.
"""

import struct
from bisect import bisect_right

import numpy as np

from . import serialize
from .compressed import SDVector
from .construct import SaSamples, bwt_from_sa, psi_from_bwt
from .wavelet import WaveletTreeHuff

_U32 = struct.Struct("<I")


class _CsaBase(serialize.Framed):
    """Shared pattern-matching driver; subclasses provide the steps."""

    def __len__(self):
        return self.n

    @property
    def sigma_total(self):
        return len(self.cnt) - 1

    def _interval_step(self, c, sp, ep):
        raise NotImplementedError

    def backward_search(self, pattern):
        """Suffix array interval [sp, ep] of the pattern, or None."""
        sp, ep = 0, self.n - 1
        sigma = self.sigma_total
        for c in reversed(list(pattern)):
            c = int(c)
            if not 0 <= c < sigma:
                return None
            sp, ep = self._interval_step(c, sp, ep)
            if sp > ep:
                return None
        return sp, ep

    def count(self, pattern):
        hit = self.backward_search(pattern)
        return 0 if hit is None else hit[1] - hit[0] + 1

    def locate(self, pattern):
        """Text positions of all occurrences, in suffix array order."""
        hit = self.backward_search(pattern)
        if hit is None:
            return np.empty(0, dtype=np.int64)
        sp, ep = hit
        return np.fromiter(
            (self.sa_access(i) for i in range(sp, ep + 1)),
            dtype=np.int64,
            count=ep - sp + 1,
        )

    def _row_error(self, i):
        return ValueError(f"row {i} outside [0, {self.n})")

    def _check_extract(self, start, length):
        if length < 0 or start < 0 or start + length > self.n:
            raise ValueError(
                f"extract({start}, {length}) outside text of length {self.n}"
            )


class CsaPsi(_CsaBase):
    """Compressed suffix array backed by the per-symbol Psi lists, held as
    one SDVector whose list bounds are the CNT table."""

    _tag = "csa_psi"

    def __init__(self, psi, samples, n):
        self.psi_lists = psi
        self.cnt = np.asarray(psi.bounds, dtype=np.int64)
        self.samples = samples
        self.n = n

    @classmethod
    def build(cls, text_iv, sa_iv, sigma_total, sample_rate):
        bwt_iv = bwt_from_sa(text_iv, sa_iv)
        psi = psi_from_bwt(bwt_iv, sigma_total)
        samples = SaSamples.build(sa_iv, sample_rate)
        return cls(psi, samples, text_iv.n)

    def _symbol_at_row(self, row):
        """First symbol of the suffix at this row, from the list bounds."""
        return bisect_right(self.psi_lists.bounds, row) - 1

    def psi(self, i):
        """Row of the suffix one position later in the text."""
        if not 0 <= i < self.n:
            raise self._row_error(i)
        psi_lists = self.psi_lists
        bounds = psi_lists.bounds
        c = bisect_right(bounds, i) - 1
        return psi_lists.select(i - bounds[c] + 1, c)

    def _interval_step(self, c, sp, ep):
        base = int(self.cnt[c])
        lo, hi = self.psi_lists.rank_pair(sp, ep + 1, c)
        return base + lo, base + hi - 1

    def sa_access(self, i):
        """SA[i], by walking Psi forward to a sampled row."""
        j = int(i)
        if not 0 <= j < self.n:
            raise self._row_error(j)
        lookup, psi = self.samples.lookup, self.psi
        for t in range(self.samples.rate):
            v = lookup(j)
            if v is not None:
                return (v - t) % self.n
            j = psi(j)
        raise serialize.FormatError("no sampled row within rate Psi steps")

    def extract(self, start, length):
        """Text symbols in [start, start+length), walking Psi forward."""
        self._check_extract(start, length)
        out = np.empty(length, dtype=np.int64)
        if length == 0:
            return out
        t0 = start // self.samples.rate
        j = self.samples.isa_sample(t0)
        for _ in range(start - t0 * self.samples.rate):
            j = self.psi(j)
        for k in range(length):
            out[k] = self._symbol_at_row(j)
            j = self.psi(j)
        return out

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_CSA_PSI, 0, self.n, b"",
            [("psi_lists", self.psi_lists), ("sa_samples", self.samples)],
        )

    @classmethod
    def deserialize(cls, f):
        _, _, _, n = serialize.read_header(f, serialize.MAGIC_CSA_PSI)
        psi = SDVector.deserialize(f)
        if (psi.m, len(psi)) != (n, n):
            raise serialize.FormatError("Psi lists do not cover the text")
        return cls(psi, _read_samples(f, n), n)


class CsaWt(_CsaBase):
    """Compressed suffix array backed by a wavelet matrix over the BWT."""

    _tag = "csa_wt"

    def __init__(self, wt, samples, n):
        self.wt = wt
        self.cnt = np.zeros(wt.sigma + 1, dtype=np.int64)
        np.cumsum(wt.counts, out=self.cnt[1:])
        self.samples = samples
        self.n = n

    @classmethod
    def build(cls, text_iv, sa_iv, sigma_total, sample_rate):
        bwt_iv = bwt_from_sa(text_iv, sa_iv)
        bwt = bwt_iv.to_numpy()
        del bwt_iv
        wt = WaveletTreeHuff(bwt, sigma=sigma_total)
        samples = SaSamples.build(sa_iv, sample_rate)
        return cls(wt, samples, text_iv.n)

    def lf(self, i):
        """Row of the suffix one position earlier in the text."""
        if not 0 <= i < self.n:
            raise self._row_error(i)
        c, rank = self.wt.access_rank(i)
        return int(self.cnt[c]) + rank

    def _interval_step(self, c, sp, ep):
        base = int(self.cnt[c])
        lo, hi = self.wt.rank_pair(sp, ep + 1, c)
        return base + lo, base + hi - 1

    def sa_access(self, i):
        """SA[i], by walking LF backward to a sampled row."""
        j = int(i)
        if not 0 <= j < self.n:
            raise self._row_error(j)
        lookup, lf = self.samples.lookup, self.lf
        for t in range(self.samples.rate):
            v = lookup(j)
            if v is not None:
                return (v + t) % self.n
            j = lf(j)
        raise serialize.FormatError("no sampled row within rate LF steps")

    def extract(self, start, length):
        """Text symbols in [start, start+length), walking LF backward."""
        self._check_extract(start, length)
        out = np.empty(length, dtype=np.int64)
        if length == 0:
            return out
        end = start + length
        rate = self.samples.rate
        t1 = -(-end // rate)
        if t1 * rate < self.n:
            j = self.samples.isa_sample(t1)
            steps = t1 * rate - end
        else:
            j = self.samples.isa_sample(0)
            steps = self.n - end
        for _ in range(steps):
            j = self.lf(j)
        for k in range(length - 1, -1, -1):
            c, rank = self.wt.access_rank(j)
            out[k] = c
            j = int(self.cnt[c]) + rank
        return out

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_CSA_WT, 0, self.n, _U32.pack(self.sigma_total),
            [("bwt_wavelet", self.wt), ("sa_samples", self.samples)],
        )

    @classmethod
    def deserialize(cls, f):
        _, _, _, n = serialize.read_header(f, serialize.MAGIC_CSA_WT)
        (sigma,) = serialize.read_fields(f, _U32.format)
        wt = WaveletTreeHuff.deserialize(f)
        if wt.n != n:
            raise serialize.FormatError("BWT wavelet length is not n")
        if wt.sigma != sigma:
            raise serialize.FormatError("BWT symbol counts do not match sigma")
        return cls(wt, _read_samples(f, n), n)


def _read_samples(f, n):
    samples = SaSamples.deserialize(f)
    if samples.n != n:
        raise serialize.FormatError("SA samples do not cover the text")
    return samples


def read_csa(f):
    """Load whichever CSA flavor the stream holds."""
    magic = serialize.peek_magic(f)
    if magic == serialize.MAGIC_CSA_PSI:
        return CsaPsi.deserialize(f)
    if magic == serialize.MAGIC_CSA_WT:
        return CsaWt.deserialize(f)
    raise serialize.FormatError(f"not a suffix array stream: {magic!r}")
