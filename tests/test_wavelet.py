import io

import numpy as np
import pytest

import oracles
from succix.compressed import make_bits
from succix.serialize import HEADER_BYTES, FormatError
from succix.wavelet import (
    WaveletTree,
    WaveletTreeHuff,
    canonical_codes,
    huffman_lengths,
    read_wavelet,
)


def reload(wt, patch=None):
    """Read back wt's serialization, with bytes {offset: value} patched."""
    buf = io.BytesIO()
    wt.serialize(buf)
    data = bytearray(buf.getvalue())
    for pos, value in (patch or {}).items():
        data[pos] = value
    return read_wavelet(io.BytesIO(bytes(data)))


def wt_level_bits(wt, level):
    bv = wt.levels[level]
    return [bv.access(i) for i in range(len(bv))]


class TestBalanced:
    def test_worked_example_levels(self):
        # doc array of the two-document walkthrough
        seq = [2, 1, 0, 0, 1, 0, 1, 0]
        wt = WaveletTree(seq)
        assert wt.height == 2
        assert wt_level_bits(wt, 0) == [1, 0, 0, 0, 0, 0, 0, 0]
        assert wt_level_bits(wt, 1) == [1, 0, 0, 1, 0, 1, 0, 0]
        assert wt.rank(8, 0) == 4
        assert wt.select(1, 2) == 0
        assert wt.select(4, 0) == 7
        assert [wt.access(i) for i in range(8)] == seq
        assert wt.count(0, 8, 1) == 3
        assert wt.count_distinct(0, 8) == 3
        assert wt.count_distinct(1, 4) == 2

    def test_levels_match_oracle(self):
        rng = np.random.default_rng(31)
        seq = rng.integers(0, 11, size=200)
        wt = WaveletTree(seq)
        expect = oracles.wavelet_levels(seq.tolist(), wt.height)
        for level in range(wt.height):
            assert wt_level_bits(wt, level) == expect[level]

    @pytest.mark.parametrize("backend", ["plain", "rrr"])
    @pytest.mark.parametrize("sigma", [1, 2, 256, 257, 65536, 65537])
    def test_levels_at_key_dtype_boundaries(self, backend, sigma):
        # level keys narrow to 8 or 16 bits where the symbols allow; runs of
        # the top symbols tie on every level's key
        rng = np.random.default_rng(sigma)
        top = sigma - 1 - rng.integers(0, min(sigma, 3), size=150)
        seq = rng.permutation(np.concatenate([
            rng.integers(0, sigma, size=150), top, [0, sigma - 1],
        ]))
        wt = WaveletTree(seq, sigma=sigma, backend=backend)
        expect = oracles.wavelet_levels(seq.tolist(), wt.height)
        for level in range(wt.height):
            assert wt_level_bits(wt, level) == expect[level]
        assert [wt.access(i) for i in range(len(seq))] == seq.tolist()

    @pytest.mark.parametrize("backend", ["plain", "rrr"])
    @pytest.mark.parametrize("sigma", [1, 2, 3, 16, 100])
    def test_randomized_ops(self, backend, sigma):
        rng = np.random.default_rng(sigma)
        seq = rng.integers(0, sigma, size=800)
        wt = WaveletTree(seq, backend=backend)
        assert wt.sigma >= int(seq.max()) + 1
        for i in rng.integers(0, 800, size=60):
            assert wt.access(int(i)) == int(seq[i])
        for c in range(min(sigma, 8)):
            positions = np.flatnonzero(seq == c)
            for i in rng.integers(0, 801, size=25):
                assert wt.rank(int(i), c) == int(
                    np.count_nonzero(seq[: int(i)] == c)
                )
            for j in (1, len(positions)):
                if j >= 1 and len(positions):
                    assert wt.select(j, c) == int(positions[j - 1])

    def test_count_distinct_matches_sets(self):
        rng = np.random.default_rng(32)
        seq = rng.integers(0, 9, size=300)
        wt = WaveletTree(seq)
        for _ in range(50):
            lo, hi = sorted(rng.integers(0, 301, size=2))
            assert wt.count_distinct(int(lo), int(hi)) == len(
                set(seq[lo:hi].tolist())
            )

    def test_expand_partitions_interval(self):
        rng = np.random.default_rng(33)
        seq = rng.integers(0, 6, size=120)
        wt = WaveletTree(seq)
        root = wt.root()
        (lnode, llo, lhi), (rnode, rlo, rhi) = wt.expand(root, 10, 90)
        assert (lhi - llo) + (rhi - rlo) == 80
        lo_sym, hi_sym = wt.node_symbol_range(lnode)
        assert (lo_sym, hi_sym) == (0, 4)
        assert wt.node_symbol_range(rnode) == (4, 8)
        small = int(np.count_nonzero(seq[10:90] < 4))
        assert lhi - llo == small

    def test_select_out_of_range(self):
        wt = WaveletTree([0, 1, 0])
        with pytest.raises(ValueError):
            wt.select(3, 0)
        with pytest.raises(ValueError):
            wt.select(0, 0)

    def test_explicit_sigma_and_validation(self):
        wt = WaveletTree([0, 1], sigma=8)
        assert wt.height == 3
        assert wt.rank(2, 7) == 0
        with pytest.raises(ValueError):
            WaveletTree([9], sigma=8)
        with pytest.raises(ValueError):
            WaveletTree([-1])

    @pytest.mark.parametrize("backend", ["plain", "rrr"])
    def test_round_trip(self, backend):
        rng = np.random.default_rng(34)
        seq = rng.integers(0, 23, size=500)
        wt = WaveletTree(seq, backend=backend)
        buf = io.BytesIO()
        written = wt.serialize(buf)
        assert written == wt.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        wt2 = read_wavelet(buf)
        assert isinstance(wt2, WaveletTree)
        assert wt2.sigma == wt.sigma and wt2.backend == backend
        assert [wt2.access(i) for i in range(0, 500, 17)] == [
            wt.access(i) for i in range(0, 500, 17)
        ]
        assert wt2.rank(400, 5) == wt.rank(400, 5)

    def test_rejects_unknown_backend_byte(self):
        wt = WaveletTree(np.arange(40) % 6)
        # the backend id is the first fixed byte after the header
        with pytest.raises(FormatError):
            reload(wt, {HEADER_BYTES: 7})

    def test_rejects_height_not_matching_sigma(self):
        wt = WaveletTree(np.arange(40) % 6, sigma=8)
        assert wt.height == 3
        wt.sigma = 200
        with pytest.raises(FormatError):
            reload(wt)

    @pytest.mark.parametrize("backend", ["plain", "rrr"])
    def test_rejects_level_not_n(self, backend):
        wt = WaveletTree(np.arange(40) % 6, backend=backend)
        wt.levels[-1] = make_bits(np.zeros(39, dtype=bool), backend)
        with pytest.raises(FormatError):
            reload(wt)

    def test_size_tree_matches_stream(self):
        wt = WaveletTree(np.arange(64) % 5)
        buf = io.BytesIO()
        wt.serialize(buf)
        assert wt.size_tree().total_bytes == len(buf.getvalue())


class TestHuffmanCodes:
    def test_lengths_are_optimal(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            nsym = int(rng.integers(1, 12))
            freqs = {s: int(rng.integers(1, 50)) for s in range(nsym)}
            lengths = huffman_lengths(freqs)
            expect = oracles.huffman_code_lengths(freqs)
            cost = sum(freqs[s] * lengths[s] for s in freqs)
            expect_cost = sum(freqs[s] * expect[s] for s in freqs)
            assert cost == expect_cost

    def test_canonical_codes_prefix_free(self):
        lengths = {7: 2, 3: 1, 9: 3, 12: 3}
        codes = canonical_codes(lengths)
        assert codes[3] == (0, 1)
        assert codes[7] == (2, 2)
        assert codes[9] == (6, 3)
        assert codes[12] == (7, 3)
        strings = {
            format(c, f"0{l}b") for c, l in codes.values()
        }
        for a in strings:
            for b in strings:
                if a != b:
                    assert not b.startswith(a)

    def test_single_symbol(self):
        assert huffman_lengths({5: 10}) == {5: 1}
        assert canonical_codes({5: 1}) == {5: (0, 1)}


class TestHuffShaped:
    @pytest.mark.parametrize("backend", ["plain", "rrr"])
    def test_matches_plain_counting(self, backend):
        rng = np.random.default_rng(36)
        # skewed byte distribution
        seq = rng.choice([65, 66, 67, 100, 200], size=900, p=[0.5, 0.25, 0.12, 0.08, 0.05])
        wt = WaveletTreeHuff(seq, backend=backend)
        assert wt.sigma == 5
        for i in rng.integers(0, 900, size=60):
            assert wt.access(int(i)) == int(seq[i])
        for c in (65, 66, 200, 7):
            for i in rng.integers(0, 901, size=30):
                assert wt.rank(int(i), c) == int(
                    np.count_nonzero(seq[: int(i)] == c)
                )
        positions = np.flatnonzero(seq == 66)
        assert wt.select(1, 66) == int(positions[0])
        assert wt.select(len(positions), 66) == int(positions[-1])
        assert wt.rank(wt.n, 65) == int(np.count_nonzero(seq == 65))

    def test_single_symbol_sequence(self):
        wt = WaveletTreeHuff([9] * 40)
        assert wt.rank(25, 9) == 25
        assert wt.access(13) == 9
        assert wt.select(40, 9) == 39

    def test_compresses_skewed_input(self):
        rng = np.random.default_rng(37)
        n = 60_000
        seq = rng.choice(
            np.arange(32), size=n, p=_zipf_probs(32)
        )
        huff = WaveletTreeHuff(seq)
        balanced = WaveletTree(seq, sigma=32)
        assert huff.serialized_bytes() < balanced.serialized_bytes()

    def test_round_trip_identical_bytes(self):
        rng = np.random.default_rng(38)
        seq = rng.integers(0, 40, size=700)
        wt = WaveletTreeHuff(seq)
        buf = io.BytesIO()
        written = wt.serialize(buf)
        assert written == wt.serialized_bytes() == len(buf.getvalue())
        buf.seek(0)
        wt2 = read_wavelet(buf)
        assert isinstance(wt2, WaveletTreeHuff)
        assert wt2.codes == wt.codes
        for i in range(0, 700, 31):
            assert wt2.access(i) == wt.access(i)
        # same content must re-serialize to the same bytes
        buf2 = io.BytesIO()
        wt2.serialize(buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_rejects_unknown_backend_byte(self):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        with pytest.raises(FormatError):
            reload(wt, {HEADER_BYTES: 7})

    def test_rejects_root_not_n(self):
        wt = WaveletTreeHuff(np.arange(40) % 6)
        wt.n += 1
        with pytest.raises(FormatError):
            reload(wt)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            WaveletTreeHuff([])
        with pytest.raises(ValueError):
            WaveletTreeHuff([300])


def _zipf_probs(k, s=1.3):
    p = 1.0 / np.arange(1, k + 1) ** s
    return p / p.sum()
