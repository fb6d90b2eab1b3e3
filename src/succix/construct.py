"""Collection model and index construction kernels.

A collection of N documents becomes one dense symbol string T: each
document's symbols (remapped to 2..) followed by a document terminator
(symbol 1), with a single global terminator (symbol 0) at the very end.
T therefore has length sum(doc lengths) + N + 1 and the terminator makes
all suffixes distinct.

Construction kernels here hand packed structures (tracked by the memory
monitor) from one to the next; vectorized numpy scratch inside a kernel
is transient and intentionally untracked.
"""

import itertools
import struct
from pathlib import Path

import numpy as np

from . import serialize
from .bits import IntVector, gather_ints, pack_fields, pack_ints, read_field, width_for
from .compressed import RRRVector, SDVector

GLOBAL_TERMINATOR = 0
DOC_TERMINATOR = 1
FIRST_SYMBOL = 2

_CHUNK = 1 << 20


class ByteAlphabet(serialize.Framed):
    """Dense remap of the byte values that actually occur."""

    kind = "byte"
    _tag = "alphabet"

    def __init__(self, present):
        self.comp2char = np.asarray(sorted(present), dtype=np.uint8)
        if len(self.comp2char) != len(set(self.comp2char.tolist())):
            raise ValueError("duplicate byte in alphabet")
        self.char2comp = np.full(256, -1, dtype=np.int64)
        self.char2comp[self.comp2char] = FIRST_SYMBOL + np.arange(
            len(self.comp2char), dtype=np.int64
        )

    @classmethod
    def from_docs(cls, docs):
        present = set()
        for doc in docs:
            present.update(doc)
        return cls(present)

    @property
    def sigma(self):
        """Number of distinct document symbols (terminators excluded)."""
        return len(self.comp2char)

    def encode_doc(self, doc):
        arr = np.frombuffer(bytes(doc), dtype=np.uint8)
        return self.char2comp[arr]

    def encode_pattern(self, pattern):
        """Comp ids for a query pattern, or None if a symbol is unknown."""
        if isinstance(pattern, str):
            pattern = pattern.encode()
        ids = self.char2comp[np.frombuffer(bytes(pattern), dtype=np.uint8)]
        if len(ids) and ids.min() < 0:
            return None
        return ids

    def decode(self, comps):
        comps = np.asarray(comps, dtype=np.int64)
        return bytes(self.comp2char[comps - FIRST_SYMBOL])

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_ALPHABET, 0, self.sigma, self.comp2char
        )


class WordAlphabet(serialize.Framed):
    """Token vocabulary; ids are assigned in lexicographic token order."""

    kind = "word"
    _tag = "alphabet"

    def __init__(self, tokens):
        self.tokens = sorted(tokens)
        self.token2id = {
            t: FIRST_SYMBOL + k for k, t in enumerate(self.tokens)
        }

    @classmethod
    def from_docs(cls, docs):
        vocab = set()
        for doc in docs:
            vocab.update(doc)
        return cls(vocab)

    @property
    def sigma(self):
        return len(self.tokens)

    def encode_doc(self, doc):
        return np.array([self.token2id[t] for t in doc], dtype=np.int64)

    def encode_pattern(self, pattern):
        if isinstance(pattern, str):
            pattern = pattern.split()
        ids = [self.token2id.get(t, -1) for t in pattern]
        if any(i < 0 for i in ids):
            return None
        return np.array(ids, dtype=np.int64)

    def decode(self, comps):
        comps = np.asarray(comps, dtype=np.int64)
        return [self.tokens[c - FIRST_SYMBOL] for c in comps]

    def write_sidecar(self, path):
        """token\tid mapping next to the index for external tooling."""
        with open(path, "w", encoding="utf-8") as f:
            for t in self.tokens:
                f.write(f"{t}\t{self.token2id[t]}\n")

    def _frame(self):
        blob = "\n".join(self.tokens).encode("utf-8")
        return serialize.Frame(
            serialize.MAGIC_ALPHABET, 1, self.sigma,
            struct.pack("<Q", len(blob)) + blob,
        )


def read_alphabet(f):
    _, _, kind, count = serialize.read_header(f, serialize.MAGIC_ALPHABET)
    if kind == 0:
        raw = serialize.read_exact(f, count)
        if len(set(raw)) != count:
            raise serialize.FormatError("duplicate byte in alphabet")
        return ByteAlphabet(list(raw))
    (nbytes,) = serialize.read_fields(f, "<Q")
    blob = serialize.read_exact(f, nbytes).decode("utf-8")
    tokens = blob.split("\n") if blob else []
    if len(tokens) != count:
        raise serialize.FormatError("token count mismatch")
    return WordAlphabet(tokens)


def read_byte_docs(path, sep=10):
    """Documents from a file of sep-separated byte strings."""
    data = Path(path).read_bytes()
    sep_b = bytes([sep])
    if data.endswith(sep_b):
        data = data[:-1]
    if not data:
        return []
    return data.split(sep_b)


def read_word_docs(path):
    """Documents from a file with one whitespace-tokenized doc per line."""
    text = Path(path).read_text(encoding="utf-8")
    return [line.split() for line in text.splitlines()]


def load_docs(path, mode, sep=10):
    if mode == "byte":
        return read_byte_docs(path, sep)
    if mode == "word":
        return read_word_docs(path)
    raise ValueError(f"unknown mode {mode!r}")


class Collection:
    """Concatenated symbol string plus document geometry."""

    def __init__(self, docs, alphabet):
        if not docs:
            raise ValueError("collection needs at least one document")
        self.alphabet = alphabet
        self.n_docs = len(docs)
        encoded = [alphabet.encode_doc(d) for d in docs]
        lengths = np.array([len(e) for e in encoded], dtype=np.int64)
        sep, end = np.array([DOC_TERMINATOR]), np.array([GLOBAL_TERMINATOR])
        self.text = np.concatenate(
            [part for ids in encoded for part in (ids, sep)] + [end],
            dtype=np.int64,
        )
        self.n = len(self.text)
        self.sharp_positions = np.cumsum(lengths + 1) - 1
        self.offsets = self.sharp_positions - lengths
        self.lengths = lengths
        self.sigma_total = alphabet.sigma + FIRST_SYMBOL

    @classmethod
    def from_file(cls, path, mode, sep=10):
        docs = load_docs(path, mode, sep)
        alphabet = (
            ByteAlphabet.from_docs(docs)
            if mode == "byte"
            else WordAlphabet.from_docs(docs)
        )
        return cls(docs, alphabet)

    def packed_text(self):
        return IntVector(self.text, width_for(self.sigma_total - 1))


def _sort_groups(key, key_bits):
    """Sorts an int64 key array of values in [0, 2**key_bits), which it
    consumes. Returns the order that sorts it and m + 1 flags: flag j is
    set where sorted key j starts a run of equal keys, and flag m is set.

    Where a key and a position fit in 63 bits together, (key << b) |
    position is sorted in place with np.sort, several times faster than
    argsort; otherwise argsort. Equal keys may come out in any order.
    """
    m = len(key)
    b = width_for(max(m - 1, 1))
    if key_bits + b > 63:
        order = np.argsort(key)
        key = key[order]
    else:
        key <<= b
        key |= np.arange(m, dtype=np.int32)
        key.sort()
        order = key & ((1 << b) - 1)
        key >>= b
    starts = np.empty(m + 1, dtype=bool)
    starts[0] = starts[m] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:m])
    return order, starts


def _regroup(starts, slots, members, rank):
    """Splits the groups that fill `slots`, now holding `members` in
    sorted order, at the `_sort_groups` flags: every member's rank becomes
    the slot where its new group starts. Returns the slots of the groups
    still tied."""
    m = len(slots)
    head = np.where(starts[:m], slots, 0)
    np.maximum.accumulate(head, out=head)
    rank[members] = head
    return slots[~(starts[:m] & starts[1:])]


def build_suffix_array(T):
    """Suffix array by prefix doubling over the groups still tied
    (Larsson & Sadakane, "Faster suffix sorting", TCS 2007).

    Returns (sa int64 ndarray, sa_packed IntVector of width
    width_for(n - 1)).

    The first round keys suffix i by its first h symbols packed into one
    int64, bits = width_for(max(T) + 1) each, and sorts all n keys. h is
    max(1, (63 - width_for(n - 1)) // bits), which leaves room for a
    position beside the key, so that the sort can take `_sort_groups`'
    np.sort path. Each symbol is packed as T + 1 so that a position past
    the end reads 0 and sorts below every symbol: a suffix then sorts
    before every longer suffix it is a prefix of.

    A group is a run of SA slots whose suffixes share their first k
    symbols, and every suffix's rank is the slot where its group starts.
    Each later round gathers only the slots of groups larger than one,
    sorts them by (rank[i], rank[i + k] + 1), past the end 0, writes them
    back into the same slots and gives every new group its head; k
    doubles. A group of one is final. Every suffix has its own length, and
    so its own padding, once k reaches n, so the rounds end.

    No sort needs to be stable: tied keys get equal ranks whatever their
    order, and a group stays tied until its keys tell it apart.
    """
    T = np.asarray(T)
    if T.ndim != 1:
        raise ValueError("text must be a 1-d sequence of symbols")
    n = len(T)
    if n == 0:
        return np.empty(0, dtype=np.int64), None
    if n >= 1 << 31:
        raise ValueError("text too long for 32-bit doubling keys")
    # h = 1 packs T + 1 alone, which must stay below 2**63
    if T.dtype.kind not in "iu" or T.min() < 0 or T.max() >= (1 << 63) - 1:
        raise ValueError("symbols must be integers in [0, 2**63 - 1)")
    T = T.astype(np.int64, copy=False)
    bits = width_for(int(T.max()) + 1)
    sym = T + 1
    key = sym.copy()
    rank_width = width_for(max(n - 1, 1))
    # past n every key would only be shifted, which keeps their order
    k = min(max(1, (63 - rank_width) // bits), n)
    for j in range(1, k):
        key <<= bits
        key[: n - j] |= sym[j:]
    del sym
    order, starts = _sort_groups(key, k * bits)
    del key
    # positions and ranks are below n < 2**31
    sa = order.astype(np.int32)
    del order
    # rank[n] is the position past the end, which reads 0 as rank + 1
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1
    tied = _regroup(starts, np.arange(n, dtype=np.int32), sa, rank)
    del starts
    next_width = width_for(n)
    while len(tied):
        # a suffix shorter than k is alone in its group, so i + k <= n
        idx = sa[tied]
        key = rank[idx].astype(np.int64)
        key <<= next_width
        key |= rank[idx + k] + 1
        order, starts = _sort_groups(key, rank_width + next_width)
        del key
        members = idx[order]
        del idx, order
        sa[tied] = members
        tied = _regroup(starts, tied, members, rank)
        del members, starts
        k <<= 1
    # rank is now the inverse suffix array. It is packed only to be held
    # while the SA is packed: a recording monitor then sees the two
    # n-value vectors a doubling round carries.
    isa_iv = IntVector(rank[:n], rank_width)
    del rank
    sa_iv = IntVector(sa, rank_width)
    del isa_iv
    return sa.astype(np.int64), sa_iv


def _map_sa(sa_iv, width, fn):
    """Packed vector of fn(SA[i]) at the given width, computed _CHUNK
    rows at a time so that only one chunk of the packed SA is unpacked at
    a time."""
    n = sa_iv.n
    out_words = np.zeros(serialize.payload_words(n, width), dtype=np.uint64)
    chunk = _CHUNK
    assert chunk % 64 == 0
    for start in range(0, n, chunk):
        sa_chunk = sa_iv.to_numpy(start, min(start + chunk, n)).astype(np.int64)
        packed = pack_ints(fn(sa_chunk), width)
        woff = start * width // 64
        out_words[woff : woff + len(packed)] = packed
    return IntVector.from_words(out_words, n, width)


def bwt_from_sa(text_iv, sa_iv):
    """Packed BWT streamed from the packed SA."""
    w, n = text_iv.width, sa_iv.n
    return _map_sa(sa_iv, w, lambda sa: gather_ints(text_iv.words, w, (sa - 1) % n))


def psi_from_bwt(bwt_iv, sigma_total):
    """The Psi permutation as one SDVector of per-symbol lists, whose
    bounds are the CNT table.

    Psi as a permutation is the stable argsort of the BWT; the slice of
    rows belonging to symbol c is strictly increasing, which is exactly
    what Elias-Fano wants. The BWT is sorted in the narrowest dtype that
    holds sigma_total - 1, so up to 65,536 symbols it is one radix pass.
    """
    bwt = bwt_iv.to_numpy().astype(np.min_scalar_type(sigma_total - 1))
    psi = np.argsort(bwt, kind="stable")
    hist = np.bincount(bwt, minlength=sigma_total)
    del bwt
    cnt = np.zeros(sigma_total + 1, dtype=np.int64)
    np.cumsum(hist, out=cnt[1:])
    return SDVector(psi, bwt_iv.n, cnt)


def doc_of_positions(sharp_positions, n):
    """Document of each of the n text positions, the first whose terminator
    is at or after it; ids take the narrowest dtype, so that a stable sort
    of up to 65,536 documents' ids is one radix pass."""
    ids = np.arange(len(sharp_positions) + 1)
    return np.repeat(
        ids.astype(np.min_scalar_type(ids[-1])),
        np.diff(sharp_positions, prepend=-1, append=n - 1),
    )


def d_from_sa(sa_iv, sharp_positions, n_docs):
    """Packed document array: D[i] = document containing position SA[i]."""
    doc_of = doc_of_positions(sharp_positions, sa_iv.n)
    return _map_sa(sa_iv, width_for(max(n_docs, 1)), doc_of.__getitem__)


def prev_next_occurrence(d):
    """For each i: previous and next position with the same value.

    prev is -1 where none exists, next is len(d) where none exists. The
    values sort in their narrowest dtype, by radix for ids up to 65,535.
    """
    d = np.asarray(d, dtype=np.int64)
    n = len(d)
    lo, hi = int(d.min(initial=0)), int(d.max(initial=0))
    d = d.astype(np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi)))
    order = np.argsort(d, kind="stable")
    sorted_d = d[order]
    same = sorted_d[1:] == sorted_d[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    nxt[order[:-1][same]] = order[1:][same]
    return prev, nxt


class DocIsaTable(serialize.Framed):
    """Per-document inverse suffix arrays over doc + local terminator.

    One field stream holds them all, document after document: the ln+1
    values of a document of length ln at width width_for(ln). Widths and
    offsets are derived from the lengths vector.
    """

    _tag = "doc_isa"

    def __init__(self, lengths, stream):
        self.lengths = lengths
        self.stream = stream
        self._lens = lengths.to_numpy().tolist()
        self._widths = [width_for(ln) for ln in self._lens]
        self._offs = list(itertools.accumulate(
            ((ln + 1) * w for ln, w in zip(self._lens, self._widths)),
            initial=0,
        ))

    @classmethod
    def build(cls, sa_iv, offsets, lengths):
        """Local inverse suffix arrays read off the global suffix array.

        DOC_TERMINATOR sorts below every body symbol, so a document's
        suffixes (its terminator included) keep their local order in the
        global SA: a row's rank among its document's rows is the local
        ISA value at its local position.
        """
        n_docs = len(offsets)
        lengths = np.asarray(lengths, dtype=np.int64)
        doc_of = doc_of_positions(np.asarray(offsets) + lengths, sa_iv.n)
        sa = sa_iv.to_numpy().astype(np.int64)
        doc = doc_of[sa]
        by_doc = np.argsort(doc, kind="stable")
        sizes = np.bincount(doc, minlength=n_docs + 1)
        first = np.cumsum(sizes) - sizes
        local_rank = np.empty(len(sa), dtype=np.int64)
        local_rank[sa[by_doc]] = np.arange(len(sa)) - np.repeat(first, sizes)
        del sa, doc_of, doc, by_doc
        # documents sit back to back in the text, the global terminator last
        widths = np.repeat([width_for(ln) for ln in lengths.tolist()], lengths + 1)
        return cls(
            IntVector(lengths, width_for(int(lengths.max(initial=0)))),
            pack_fields(local_rank[:-1], widths),
        )

    def __len__(self):
        return len(self._lens)

    def get(self, d, local_pos):
        local_pos = int(local_pos)
        if not 0 <= local_pos <= self._lens[d]:
            raise IndexError("local position out of range")
        w = self._widths[d]
        return read_field(self.stream._words, self._offs[d] + local_pos * w, w)

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_DOCISA, 0, len(self), b"",
            [("lengths", self.lengths), ("tables", self.stream)],
        )

    @classmethod
    def deserialize(cls, f):
        _, _, _, count = serialize.read_header(f, serialize.MAGIC_DOCISA)
        lengths = IntVector.deserialize(f)
        table = cls(lengths, IntVector.deserialize(f))
        if (lengths.n, table.stream.n) != (count, table._offs[-1]):
            raise serialize.FormatError("ISA stream does not match lengths")
        return table


class SaSamples(serialize.Framed):
    """Sampled suffix array values plus inverse samples.

    Marks rows whose SA value is a multiple of the rate, so any Psi/LF walk
    reaches a mark within `rate` steps. The mark is an RRR vector of
    15-bit blocks, so that most rows learn from one class byte that they
    are not sampled.
    """

    _tag = "sa_samples"

    def __init__(self, rate, marked, values, isa_rows, n):
        self.rate = rate
        self.marked = marked
        self.values = values
        self.isa_rows = isa_rows
        self.n = n

    @classmethod
    def build(cls, sa_iv, rate):
        n = sa_iv.n
        chunk = _CHUNK
        rate = max(1, min(int(rate), n))
        n_text = (n + rate - 1) // rate
        isa_rows = np.zeros(n_text, dtype=np.int64)
        row_width = width_for(max(n - 1, 1))
        marks = np.zeros(n, dtype=bool)
        val_chunks = []
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            sa_chunk = sa_iv.to_numpy(start, stop).astype(np.int64)
            hit = sa_chunk % rate == 0
            marks[start:stop] = hit
            t = sa_chunk[hit] // rate
            isa_rows[t] = start + np.flatnonzero(hit)
            val_chunks.append(t)
        marked = RRRVector(marks)
        del marks
        values = IntVector(
            np.concatenate(val_chunks), width_for(max((n - 1) // rate, 1))
        )
        return cls(
            rate, marked, values,
            IntVector(isa_rows, row_width), n,
        )

    def lookup(self, row):
        """SA value at this row if the row is sampled, else None.

        The mark answers whether the row is sampled and, only on a hit,
        the rank that finds its value. A row whose block has class 0 holds
        no sample (at rate 32 that is (31/32)^15, about 62% of rows) and
        costs one class byte.
        """
        r = self.marked.rank_if_set(row)
        return None if r is None else self.values[r] * self.rate

    def isa_sample(self, t):
        """Row of the suffix starting at text position t*rate."""
        return self.isa_rows[t]

    def _frame(self):
        return serialize.Frame(
            serialize.MAGIC_SAMPLES, 0, self.n, struct.pack("<Q", self.rate),
            [
                ("marked", self.marked),
                ("values", self.values),
                ("isa_rows", self.isa_rows),
            ],
        )

    @classmethod
    def deserialize(cls, f):
        """Read a samples frame. Everything a walk or `extract` trusts is
        checked: a rate in [1, n], a mark over the n rows with one sample
        per rate text positions, values and ISA rows in range, and ISA rows
        that rise strictly when read in the order of the values."""
        _, _, kind, n = serialize.read_header(f, serialize.MAGIC_SAMPLES)
        if kind != 0:
            raise serialize.FormatError(f"unknown sampling kind {kind}")
        (rate,) = serialize.read_fields(f, "<Q")
        if not 1 <= rate <= n:
            raise serialize.FormatError(f"sample rate {rate} outside [1, {n}]")
        marked = RRRVector.deserialize(f)
        values = IntVector.deserialize(f)
        isa_rows = IntVector.deserialize(f)
        m = -(-n // rate)
        if (len(marked), marked.count_ones(), values.n, isa_rows.n) != (n, m, m, m):
            raise serialize.FormatError("samples do not match n and the rate")
        vals, isa = values.to_numpy(), isa_rows.to_numpy()
        if int(vals.max()) >= m or int(isa.max()) >= n:
            raise serialize.FormatError("a sampled value or ISA row out of range")
        # the j-th sampled row is isa[values[j]]; rows that rise strictly
        # also make the values distinct, so a permutation of [0, m)
        if (np.diff(isa[vals].astype(np.int64)) <= 0).any():
            raise serialize.FormatError("sampled values and ISA rows disagree")
        return cls(rate, marked, values, isa_rows, n)
