import hashlib
import io
import time

import numpy as np
import pytest

from succix import serialize
from succix.bits import (
    BackedBits, BitVector, IntVector, RankSupport, SelectSupport, width_for,
)
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
from succix.csa import CsaPsi, CsaWt, read_csa
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
        ("RRRVector", RRRVector(bits), own(RRRVector)),
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
            WaveletTree(rng.integers(0, 300, 2000)),
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


# Files written by version 7 of this format for the worked example
# (default build options); a layout change must bump FORMAT_VERSION.
EXAMPLE_INDEX_SHA256 = {
    "sada": "47afe290df4d513c5c1d45829d28fcd010686cd137f3751f969fb8f481f0f9e0",
    "greedy": "3f02ca9e5496811115ac80e72d21d861196907a8137903d645aa41e8d4883dc5",
    "sort": "481b8a856835fc4e9fc397f14ce65a67383d07c3396f83158cb41858fd92864e",
}


@pytest.mark.parametrize("algo", sorted(EXAMPLE_INDEX_SHA256))
def test_example_index_bytes_are_pinned(algo):
    coll = Collection(DOCS, ByteAlphabet.from_docs(DOCS))
    buf = io.BytesIO()
    build_index(algo, coll).serialize(buf)
    digest = hashlib.sha256(buf.getvalue()).hexdigest()
    assert digest == EXAMPLE_INDEX_SHA256[algo]


def _with_version(algo, version):
    """The worked example's index file with every header's version byte
    set to `version`."""
    coll = Collection(DOCS, ByteAlphabet.from_docs(DOCS))
    index = build_index(algo, coll)
    buf = io.BytesIO()
    index.serialize(buf)
    data = bytearray(buf.getvalue())
    for p in _header_offsets(index):
        data[p + 8] = version
    return bytes(data)


@pytest.mark.parametrize("algo", ["sada", "greedy"])
def test_format_2_files_raise_format_error(algo):
    """Format 2 kept the balanced wavelet tree's levels in prefix order, so
    a file with its version bytes must not load."""
    with pytest.raises(serialize.FormatError, match="version 2"):
        read_index(io.BytesIO(_with_version(algo, 2)))


@pytest.mark.parametrize("algo", ["sada", "greedy", "sort"])
def test_format_3_files_raise_format_error(algo):
    """Format 3 had no symbol table in the wavelet frames and a pointer
    Huffman tree under CsaWt, so a file with its version bytes must not
    load."""
    with pytest.raises(serialize.FormatError, match="version 3"):
        read_index(io.BytesIO(_with_version(algo, 3)))


@pytest.mark.parametrize("algo", ["sada", "greedy", "sort"])
def test_format_4_files_raise_format_error(algo):
    """Format 4 marked the SA samples in an Elias-Fano vector and stored
    RRR classes at a fixed width, so a file with its version bytes must
    not load."""
    with pytest.raises(serialize.FormatError, match="version 4"):
        read_index(io.BytesIO(_with_version(algo, 4)))


@pytest.mark.parametrize("algo", ["sada", "greedy"])
def test_format_5_files_raise_format_error(algo):
    """Format 5 stored each RRR vector's superblock ranks and pointers
    and allowed blocks of 31 and 63 bits, so a file with its version
    bytes must not load."""
    with pytest.raises(serialize.FormatError, match="version 5"):
        read_index(io.BytesIO(_with_version(algo, 5)))


@pytest.mark.parametrize("algo", ["sada", "greedy", "sort"])
def test_format_6_files_raise_format_error(algo):
    """Format 6 stored a backend byte in every wavelet frame and the rank
    directory's sub-block counts as 11-bit lanes, so a file with its
    version bytes must not load."""
    with pytest.raises(serialize.FormatError, match="version 6"):
        read_index(io.BytesIO(_with_version(algo, 6)))


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


# ------------------------------------------------ hostile SA samples

_N, _RATE = 2000, 8


def _hostile_samples():
    """(name, SaSamples) pairs that break one thing a walk or `extract`
    trusts, for a text of _N symbols sampled at _RATE."""
    rng = np.random.default_rng(2027)
    text = rng.integers(2, 6, _N).astype(np.int64)
    text[-1] = 0
    _, sa_iv = build_suffix_array(text)
    good = SaSamples.build(sa_iv, _RATE)
    m = -(-_N // _RATE)
    bits = good.marked.to_bool()
    values = good.values.to_numpy()
    isa = good.isa_rows.to_numpy()

    def samples(rate=_RATE, bits=bits, values=values, isa=isa, n=_N):
        return SaSamples(
            rate, RRRVector(bits), IntVector(values, width_for(m)),
            IntVector(isa, width_for(_N)), n,
        )

    extra = bits.copy()
    extra[np.flatnonzero(~bits)[0]] = True
    # two of the stored values, and two of the ISA rows, traded places
    i, j = rng.choice(m, size=2, replace=False)
    swapped_values, swapped_isa = values.copy(), isa.copy()
    swapped_values[[i, j]] = values[[j, i]]
    swapped_isa[[i, j]] = isa[[j, i]]
    _, other_sa = build_suffix_array(text[1:])
    return text, sa_iv, [
        ("no marks", samples(bits=np.zeros(_N, dtype=bool))),
        ("rate 0", samples(rate=0)),
        ("rate above n", samples(rate=_N + 1)),
        ("short mark", samples(bits=bits[:-1])),
        ("one mark too many", samples(bits=extra)),
        ("short values", samples(values=values[:-1])),
        ("short ISA rows", samples(isa=isa[:-1])),
        ("value out of range", samples(values=np.where(values == 0, m, values))),
        ("ISA row out of range", samples(isa=np.where(isa == isa[0], _N, isa))),
        ("two values swapped", samples(values=swapped_values)),
        ("two ISA rows swapped", samples(isa=swapped_isa)),
        ("samples of another text", SaSamples.build(other_sa, _RATE)),
    ]


_TEXT, _SA_IV, _HOSTILE = _hostile_samples()


def _csa_with_samples(kind, samples):
    """The bytes of a CSA of `kind` over _TEXT whose samples are replaced."""
    csa_cls = CsaPsi if kind == "psi" else CsaWt
    csa = csa_cls.build(IntVector(_TEXT, 3), _SA_IV, 6, _RATE)
    csa.samples = samples
    buf = io.BytesIO()
    csa.serialize(buf)
    return buf.getvalue()


@pytest.mark.parametrize("kind", ["psi", "wt"])
@pytest.mark.parametrize(
    "samples", [h[1] for h in _HOSTILE], ids=[h[0] for h in _HOSTILE]
)
def test_hostile_samples_raise_format_error_at_load(kind, samples):
    data = _csa_with_samples(kind, samples)
    t0 = time.perf_counter()
    with pytest.raises(serialize.FormatError):
        read_csa(io.BytesIO(data))
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("kind", ["psi", "wt"])
def test_marks_at_wrong_rows_end_every_walk_within_rate_steps(kind):
    """A mark with the right count at the wrong rows loads; every walk
    then returns or raises FormatError, and none runs on."""
    good = SaSamples.build(_SA_IV, _RATE)
    bits = np.roll(good.marked.to_bool(), 1)
    moved = SaSamples(_RATE, RRRVector(bits), good.values, good.isa_rows, _N)
    csa = read_csa(io.BytesIO(_csa_with_samples(kind, moved)))
    failed = 0
    t0 = time.perf_counter()
    for row in range(_N):
        try:
            csa.sa_access(row)
        except serialize.FormatError:
            failed += 1
    assert time.perf_counter() - t0 < 10
    assert failed > 0
