import io

import numpy as np
import pytest

from succix.bits import IntVector, width_for
from succix.construct import build_suffix_array
from succix.csa import CsaPsi, CsaWt, read_csa
from succix.serialize import HEADER_BYTES, FormatError
from succix.wavelet import WaveletTree, WaveletTreeHuff

import oracles
from example_data import CNT, INTERVALS, PSI, SA, TEXT

PATTERN_SYMBOLS = {
    b"a": [2],
    b"b": [3],
    b"ab": [2, 3],
    b"ba": [3, 2],
    b"aba": [2, 3, 2],
}


def example_csas(rate=2):
    text_iv = IntVector(TEXT, width_for(3))
    sa_iv = IntVector(SA, width_for(7))
    return (
        CsaPsi.build(text_iv, sa_iv, 4, rate),
        CsaWt.build(text_iv, sa_iv, 4, rate),
    )


def test_example_intervals():
    for csa in example_csas():
        assert (csa.cnt == CNT).all()
        for raw, symbols in PATTERN_SYMBOLS.items():
            assert csa.backward_search(symbols) == INTERVALS[raw], raw
        assert csa.backward_search([]) == (0, 7)
        assert csa.backward_search([3, 3]) is None
        assert csa.backward_search([9]) is None
        assert csa.count([2]) == 3


def test_example_psi_steps():
    csa, _ = example_csas()
    assert [csa.psi(i) for i in range(8)] == PSI


def test_example_lf_steps():
    _, csa = example_csas()
    assert [csa.lf(i) for i in range(8)] == oracles.lf(TEXT, SA)


def test_example_sa_access_and_extract():
    for rate in (1, 2, 4, 8):
        for csa in example_csas(rate):
            assert [csa.sa_access(i) for i in range(8)] == SA
            for start in range(8):
                for length in range(8 - start + 1):
                    got = csa.extract(start, length)
                    assert got.tolist() == TEXT[start : start + length]


def test_extract_rejects_out_of_range():
    for csa in example_csas():
        with pytest.raises(ValueError):
            csa.extract(5, 4)
        with pytest.raises(ValueError):
            csa.extract(-1, 2)


def test_rows_outside_the_text_rejected():
    psi_csa, wt_csa = example_csas()
    n = len(TEXT)
    for row in (-1, n, n + 5):
        message = rf"row {row} outside \[0, {n}\)"
        for step in (psi_csa.sa_access, psi_csa.psi, wt_csa.sa_access, wt_csa.lf):
            with pytest.raises(ValueError, match=message):
                step(row)


def test_two_symbol_text():
    # "ab" plus terminator: SA=[2,0,1], Psi=[1,2,0]
    text = [2, 3, 0]
    sa, _ = build_suffix_array(np.array(text, dtype=np.int64))
    assert sa.tolist() == [2, 0, 1]
    text_iv = IntVector(text, 2)
    sa_iv = IntVector(sa, 2)
    csa = CsaPsi.build(text_iv, sa_iv, 4, 2)
    assert [csa.psi(i) for i in range(3)] == [1, 2, 0]
    assert csa.sa_access(2) == 1
    assert [csa.sa_access(i) for i in range(3)] == [2, 0, 1]


def random_text(rng, n, sigma):
    text = rng.integers(2, sigma + 2, size=n - 1).tolist() + [0]
    return text


@pytest.mark.parametrize("sigma", [1, 3, 28])
def test_randomized_against_oracles(sigma):
    rng = np.random.default_rng(900 + sigma)
    for n in (2, 5, 40, 300):
        text = random_text(rng, n, sigma)
        sa = oracles.suffix_array(text)
        text_iv = IntVector(text, width_for(sigma + 1))
        sa_iv = IntVector(sa, width_for(max(n - 1, 1)))
        rate = int(rng.choice([1, 3, 8, n]))
        for csa in (
            CsaPsi.build(text_iv, sa_iv, sigma + 2, rate),
            CsaWt.build(text_iv, sa_iv, sigma + 2, rate),
        ):
            for i in range(0, n, max(1, n // 17)):
                assert csa.sa_access(i) == sa[i]
            for _ in range(10):
                m = int(rng.integers(1, 6))
                start = int(rng.integers(0, n))
                pattern = text[start : start + m]
                got = sorted(csa.locate(pattern).tolist())
                assert got == oracles.occurrences(text, pattern)
            junk = rng.integers(2, sigma + 2, size=4).tolist()
            assert sorted(csa.locate(junk).tolist()) == oracles.occurrences(
                text, junk
            )
            start = int(rng.integers(0, n))
            length = int(rng.integers(0, n - start + 1))
            assert csa.extract(start, length).tolist() == text[
                start : start + length
            ]


def test_wide_alphabet_uses_pointerless_tree():
    rng = np.random.default_rng(77)
    n = 500
    text = rng.integers(2, 300, size=n - 1).tolist() + [0]
    sa = oracles.suffix_array(text)
    text_iv = IntVector(text, width_for(301))
    sa_iv = IntVector(sa, width_for(n - 1))
    csa = CsaWt.build(text_iv, sa_iv, 302, 4)
    assert isinstance(csa.wt, WaveletTreeHuff) and csa.wt.sigma == 302
    narrow = CsaWt.build(
        IntVector(TEXT, 2), IntVector(SA, 3), 4, 2
    )
    assert isinstance(narrow.wt, WaveletTreeHuff)
    for i in range(0, n, 37):
        assert csa.sa_access(i) == sa[i]
    pattern = text[10:13]
    assert sorted(csa.locate(pattern).tolist()) == oracles.occurrences(
        text, pattern
    )


def test_roundtrip_both_flavors():
    for csa in example_csas():
        buf = io.BytesIO()
        n_written = csa.serialize(buf)
        data = buf.getvalue()
        assert n_written == len(data) == csa.serialized_bytes()
        assert csa.size_tree().total_bytes == len(data)
        buf.seek(0)
        back = read_csa(buf)
        assert type(back) is type(csa)
        assert back.backward_search([2, 3]) == INTERVALS[b"ab"]
        assert [back.sa_access(i) for i in range(8)] == SA
        assert back.extract(0, 8).tolist() == TEXT
        again = io.BytesIO()
        back.serialize(again)
        assert again.getvalue() == data


def test_read_csa_rejects_other_streams():
    buf = io.BytesIO(b"\x00" * 40)
    with pytest.raises(FormatError):
        read_csa(buf)


def _reload_csa_wt(csa, patch=None):
    """Read back csa's serialization, with bytes {offset: value} patched."""
    buf = io.BytesIO()
    csa.serialize(buf)
    data = bytearray(buf.getvalue())
    for pos, value in (patch or {}).items():
        data[pos] = value
    return CsaWt.deserialize(io.BytesIO(bytes(data)))


def test_csa_wt_rejects_wavelet_not_n():
    _, csa = example_csas()
    # a well-formed wavelet tree over one symbol fewer than the text
    csa.wt = WaveletTreeHuff(TEXT[:-1])
    with pytest.raises(FormatError, match="wavelet"):
        _reload_csa_wt(csa)


def test_csa_wt_rejects_counts_not_sigma():
    _, csa = example_csas()
    assert _reload_csa_wt(csa).n == csa.n
    # the u32 sigma is the first fixed field after the header
    with pytest.raises(FormatError, match="counts"):
        _reload_csa_wt(csa, {HEADER_BYTES: csa.sigma_total + 1})


def test_csa_wt_rejects_counts_not_n():
    _, csa = example_csas()
    # CNT is read from the BWT wavelet's symbol counts
    csa.wt.counts = csa.wt.counts.copy()
    csa.wt.counts[-1] -= 1
    with pytest.raises(FormatError, match="counts"):
        _reload_csa_wt(csa)


@pytest.mark.parametrize("shape", [WaveletTree, WaveletTreeHuff])
def test_lf_is_one_access_rank_walk(shape):
    """lf(i) = cnt[c] + rank(i, c) for c = BWT[i], and it is the row of the
    suffix one position earlier, on every row."""
    rng = np.random.default_rng(78)
    n = 400
    text = rng.choice(np.arange(2, 40), size=n - 1, p=_skewed(38)).tolist() + [0]
    sa = oracles.suffix_array(text)
    isa = oracles.inverse_permutation(sa)
    bwt = [text[p - 1] for p in sa]
    sa_iv = IntVector(sa, width_for(n - 1))
    samples = CsaWt.build(IntVector(text, width_for(39)), sa_iv, 40, 8).samples
    csa = CsaWt(shape(bwt, sigma=40), samples, n)
    for i in range(n):
        c = csa.wt.access(i)
        assert c == bwt[i]
        assert csa.wt.access_rank(i) == (c, csa.wt.rank(i, c))
        assert csa.lf(i) == csa.cnt[c] + csa.wt.rank(i, c) == isa[sa[i] - 1]
    assert [csa.sa_access(i) for i in range(n)] == sa
    assert csa.extract(0, n).tolist() == text


def _skewed(k):
    p = 1.0 / np.arange(1, k + 1) ** 1.5
    return p / p.sum()


def _naive_interval(text, sa, pattern):
    m = len(pattern)
    rows = [r for r, p in enumerate(sa) if text[p : p + m] == pattern]
    return (rows[0], rows[-1]) if rows else None


@pytest.mark.parametrize("sigma", [2, 5, 40])
def test_backward_search_matches_naive_interval(sigma):
    """Both CSAs' paired steps give the suffix array interval of every
    pattern read off the text and of random, mostly absent, ones; numpy
    integer patterns give the same answers as Python ints."""
    rng = np.random.default_rng(950 + sigma)
    n = 600
    text = rng.choice(np.arange(2, sigma + 2), size=n - 1, p=_skewed(sigma)).tolist()
    text.append(0)
    sa = oracles.suffix_array(text)
    text_iv = IntVector(text, width_for(sigma + 1))
    sa_iv = IntVector(sa, width_for(n - 1))
    patterns = []
    for m in (1, 2, 3, 6, 12):
        for start in rng.integers(0, n - m, size=8).tolist():
            patterns.append(text[start : start + m])
        patterns += rng.integers(2, sigma + 2, size=(4, m)).tolist()
    patterns += [[0], [1], [sigma + 1] * 3, [2, 0]]
    present = 0
    for csa in (
        CsaPsi.build(text_iv, sa_iv, sigma + 2, 8),
        CsaWt.build(text_iv, sa_iv, sigma + 2, 8),
    ):
        for pattern in patterns:
            expect = _naive_interval(text, sa, pattern)
            present += expect is not None
            assert csa.backward_search(pattern) == expect, pattern
            for t in (np.int64, np.uint8):
                assert csa.backward_search(np.asarray(pattern, dtype=t)) == expect
                assert csa.backward_search([t(c) for c in pattern]) == expect
    assert len(patterns) * 2 > present > len(patterns)
