import hashlib
import io

import numpy as np
import pytest

from succix import serialize
from succix.bits import BackedBits, BitVector, IntVector, RankSupport, SelectSupport
from succix.compressed import RRRVector, SDVector
from succix.construct import (
    ByteAlphabet,
    Collection,
    DocIsaTable,
    SaSamples,
    WordAlphabet,
    build_suffix_array,
    read_alphabet,
)
from succix.csa import CsaPsi, CsaWt
from succix.docindex import build_index, read_index
from succix.rmq import RmaxSct, RmqSct
from succix.sizereport import measure_serialized
from succix.wavelet import WaveletTree, WaveletTreeHuff

from example_data import DOCS


ALL_MAGICS = [
    serialize.MAGIC_INTVEC,
    serialize.MAGIC_BITVEC,
    serialize.MAGIC_RANK,
    serialize.MAGIC_SELECT,
    serialize.MAGIC_RRR,
    serialize.MAGIC_SD,
    serialize.MAGIC_WT,
    serialize.MAGIC_CSA_PSI,
    serialize.MAGIC_CSA_WT,
    serialize.MAGIC_SAMPLES,
    serialize.MAGIC_ALPHABET,
    serialize.MAGIC_DOCISA,
    serialize.MAGIC_RMQ,
    serialize.MAGIC_INDEX,
]


def test_magics_are_distinct_eight_byte_tags():
    assert len(set(ALL_MAGICS)) == len(ALL_MAGICS)
    assert all(len(m) == 8 for m in ALL_MAGICS)


def test_header_roundtrip():
    buf = io.BytesIO()
    n = serialize.write_header(buf, serialize.MAGIC_RMQ, 7, 123456789)
    assert n == serialize.HEADER_BYTES == len(buf.getvalue())
    buf.seek(0)
    magic, version, width, length = serialize.read_header(buf)
    assert magic == serialize.MAGIC_RMQ
    assert version == serialize.FORMAT_VERSION
    assert width == 7
    assert length == 123456789


def test_read_header_checks_expected_magic():
    buf = io.BytesIO()
    serialize.write_header(buf, serialize.MAGIC_RANK, 0, 5)
    buf.seek(0)
    with pytest.raises(serialize.FormatError):
        serialize.read_header(buf, serialize.MAGIC_SELECT)


def test_read_header_rejects_short_stream():
    with pytest.raises(serialize.FormatError):
        serialize.read_header(io.BytesIO(b"short"))


def test_peek_does_not_consume():
    buf = io.BytesIO()
    serialize.write_header(buf, serialize.MAGIC_SD, 3, 9)
    buf.seek(0)
    assert serialize.peek_magic(buf) == serialize.MAGIC_SD
    magic, _, _, _ = serialize.read_header(buf)
    assert magic == serialize.MAGIC_SD


def test_size_formulas():
    assert serialize.payload_words(0, 1) == 0
    assert serialize.payload_words(64, 1) == 1
    assert serialize.payload_words(65, 1) == 2
    assert serialize.payload_words(100, 7) == (100 * 7 + 63) // 64
    assert serialize.serialized_bytes(0, 1) == 18
    assert serialize.serialized_bytes(64, 1) == 26
    assert serialize.serialized_bytes(3, 64) == 18 + 24


def test_format_error_is_a_value_error():
    assert issubclass(serialize.FormatError, ValueError)


# ------------------------------------------------ frames of every structure

def _small_structures():
    """(name, structure, reader) for one small instance of every
    persistent class; reader(stream, structure) loads a copy back."""
    rng = np.random.default_rng(11)
    bits = rng.random(5000) < 0.2
    bv = BitVector(bits)
    rank = RankSupport(bv)
    ones = np.flatnonzero(bits)
    half = int(np.searchsorted(ones, 2500))
    docs = [bytes(rng.integers(97, 101, int(rng.integers(5, 30)))) for _ in range(9)]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    _, sa_iv = build_suffix_array(coll.text)
    text_iv = coll.packed_text()

    def own(cls):
        return lambda f, _: cls.deserialize(f)

    cases = [
        ("IntVector", IntVector(rng.integers(0, 1000, 300)), own(IntVector)),
        ("BitVector", bv, own(BitVector)),
        ("RankSupport", rank, lambda f, s: RankSupport.deserialize(f, s.bv)),
        (
            "SelectSupport",
            SelectSupport(bv, rank, 0),
            lambda f, s: SelectSupport.deserialize(f, s.bv, s.rank_support, s.value),
        ),
        ("BackedBits", BackedBits(bv, select1=True, select0=True), own(BackedBits)),
        ("RRRVector", RRRVector(bits, block_size=31), own(RRRVector)),
        ("SDVector", SDVector(ones, 5000), own(SDVector)),
        # four lists: empty, the ones below 2500, the single value 7, the rest
        (
            "SDVector-lists",
            SDVector(
                np.insert(ones, half, 7), 5000, [0, 0, half, half + 1, len(ones) + 1]
            ),
            own(SDVector),
        ),
        (
            "WaveletTree",
            WaveletTree(rng.integers(0, 300, 2000), backend="rrr"),
            own(WaveletTree),
        ),
        (
            "WaveletTreeHuff",
            WaveletTreeHuff(rng.integers(0, 40, 2000)),
            own(WaveletTreeHuff),
        ),
        ("ByteAlphabet", coll.alphabet, lambda f, _: read_alphabet(f)),
        (
            "WordAlphabet",
            WordAlphabet(["éte", "a", "zz", "b"]),
            lambda f, _: read_alphabet(f),
        ),
        (
            "DocIsaTable",
            DocIsaTable.build(sa_iv, coll.offsets, coll.lengths),
            own(DocIsaTable),
        ),
        ("SaSamples", SaSamples.build(sa_iv, 4), own(SaSamples)),
        (
            "CsaPsi",
            CsaPsi.build(text_iv, sa_iv, coll.sigma_total, 4),
            own(CsaPsi),
        ),
        ("CsaWt", CsaWt.build(text_iv, sa_iv, coll.sigma_total, 4), own(CsaWt)),
        ("RmqSct", RmqSct(rng.integers(0, 50, 3000)), own(RmqSct)),
        ("RmaxSct", RmaxSct(rng.integers(0, 50, 3000)), own(RmaxSct)),
    ]
    for algo in ("sada", "greedy", "sort"):
        cases.append(
            (algo, build_index(algo, coll, sample_rate=4), lambda f, _: read_index(f))
        )
    return cases


_STRUCTURES = _small_structures()


@pytest.mark.parametrize(
    "obj, reader", [c[1:] for c in _STRUCTURES], ids=[c[0] for c in _STRUCTURES]
)
def test_frame_sizes_agree_and_reload_is_byte_identical(obj, reader):
    buf = io.BytesIO()
    written = obj.serialize(buf)
    data = buf.getvalue()
    assert written == len(data)
    assert obj.serialized_bytes() == len(data)
    assert obj.size_tree().total_bytes == len(data)
    assert measure_serialized(obj) == len(data)
    stream = io.BytesIO(data)
    back = reader(stream, obj)
    assert stream.tell() == len(data)
    again = io.BytesIO()
    back.serialize(again)
    assert again.getvalue() == data


# Files written by version 2 of this format for the worked example
# (default build options); a layout change must bump FORMAT_VERSION.
EXAMPLE_INDEX_SHA256 = {
    "sada": "31c59c95dd2842882834f86f98bda77394113d749509e5481e51b09048fce5c0",
    "greedy": "e27c1fb1ae08bc79e4d2dd67bb19618c2c107450309fd8a48504607a9d5d91ec",
    "sort": "0790fa4a4f3255ed5e3ac6ce39a76ac7325c900167ca700c139de84e4e66c7a5",
}


@pytest.mark.parametrize("algo", sorted(EXAMPLE_INDEX_SHA256))
def test_example_index_bytes_are_pinned(algo):
    coll = Collection(DOCS, ByteAlphabet.from_docs(DOCS))
    buf = io.BytesIO()
    build_index(algo, coll).serialize(buf)
    digest = hashlib.sha256(buf.getvalue()).hexdigest()
    assert digest == EXAMPLE_INDEX_SHA256[algo]


def _small_indexes(rng):
    """(mode, algo, index, its bytes) for small byte and word collections."""
    vocab = [f"w{i}" for i in range(40)]
    corpora = {
        "byte": [bytes(rng.integers(97, 103, int(rng.integers(10, 60)))) for _ in range(12)],
        "word": [
            [vocab[i] for i in rng.integers(0, 40, int(rng.integers(5, 25)))]
            for _ in range(12)
        ],
    }
    for mode, docs in corpora.items():
        alphabet = (ByteAlphabet if mode == "byte" else WordAlphabet).from_docs(docs)
        coll = Collection(docs, alphabet)
        for algo in ("sada", "greedy", "sort"):
            index = build_index(algo, coll)
            buf = io.BytesIO()
            index.serialize(buf)
            yield mode, algo, index, buf.getvalue()


def test_truncated_indexes_raise_format_error():
    rng = np.random.default_rng(2024)
    for _, _, _, data in _small_indexes(rng):
        cuts = rng.choice(len(data), size=min(len(data), 300), replace=False)
        for cut in cuts:
            with pytest.raises(serialize.FormatError):
                read_index(io.BytesIO(data[:cut]))


def _header_offsets(obj, at=0):
    """Offset of every frame header in obj's serialization, walking the
    frame declarations."""
    frame = obj._frame()
    offsets = [at]
    at += serialize.HEADER_BYTES + memoryview(frame.fixed).nbytes
    for _, part in frame.parts:
        offsets += _header_offsets(part, at)
        at += part.serialized_bytes()
    return offsets


def test_header_mutations_load_or_raise_format_error():
    """A width or length byte of any frame header set to 0, 0x41 or 0xFF
    either loads or raises FormatError."""
    rng = np.random.default_rng(2025)
    for _, _, index, data in _small_indexes(rng):
        offsets = _header_offsets(index)
        assert all(
            data[p : p + 8] in ALL_MAGICS and data[p + 8] == serialize.FORMAT_VERSION
            for p in offsets
        )
        # byte 9 of a header is its width, bytes 10..17 its length
        sites = [
            (p + k, v) for p in offsets for k in range(9, 18) for v in (0, 0x41, 0xFF)
        ]
        for i in rng.choice(len(sites), size=min(len(sites), 200), replace=False):
            pos, value = sites[i]
            bad = bytearray(data)
            bad[pos] = value
            try:
                read_index(io.BytesIO(bytes(bad)))
            except serialize.FormatError:
                pass


def test_index_header_counts_must_match_the_parts():
    """The index header's n and n_docs, set to 0, 3, true +- 1 or 2^40,
    raise FormatError for every layout, whatever the CSA checks."""
    rng = np.random.default_rng(2026)
    for _, _, index, data in _small_indexes(rng):
        assert read_index(io.BytesIO(data)).n_docs == index.n_docs
        # bytes 10..17 of the header hold n; n_docs follows the header
        for at, true in ((10, index.n), (serialize.HEADER_BYTES, index.n_docs)):
            for value in {0, 3, true - 1, true + 1, 1 << 40} - {true}:
                bad = bytearray(data)
                bad[at : at + 8] = value.to_bytes(8, "little")
                with pytest.raises(serialize.FormatError):
                    read_index(io.BytesIO(bytes(bad)))
