import io
import itertools

import numpy as np
import pytest

from succix import serialize
from succix.rmq import RmaxSct, RmqSct

from oracles import rmaxq as naive_rmaxq, rmq as naive_rmq


def test_three_element_example():
    rm = RmqSct([2, 1, 3])
    assert rm.query(0, 2) == 1
    assert rm.query(0, 1) == 1
    assert rm.query(1, 2) == 1
    assert rm.query(0, 0) == 0
    assert rm.query(2, 2) == 2


def test_ties_resolve_leftmost():
    rm = RmqSct([1, 1])
    assert rm.query(0, 1) == 0
    rm = RmqSct([3, 1, 1])
    assert rm.query(0, 2) == 1
    assert rm.query(1, 2) == 1
    rm = RmqSct([1, 2, 1])
    assert rm.query(0, 2) == 0
    assert rm.query(1, 2) == 2


def test_single_element():
    rm = RmqSct([7])
    assert rm.query(0, 0) == 0


def test_rejects_empty_and_bad_ranges():
    with pytest.raises(ValueError):
        RmqSct([])
    rm = RmqSct([1, 2, 3])
    with pytest.raises(ValueError):
        rm.query(2, 1)
    with pytest.raises(ValueError):
        rm.query(0, 3)
    with pytest.raises(ValueError):
        rm.query(-1, 1)


def test_exhaustive_small_arrays():
    for n in range(1, 8):
        for values in itertools.product(range(3), repeat=n):
            rm = RmqSct(values)
            for l in range(n):
                for r in range(l, n):
                    expect = naive_rmq(values, l, r)
                    assert rm.query(l, r) == expect, (values, l, r)


def test_exhaustive_small_maximum():
    for n in range(1, 7):
        for values in itertools.product(range(3), repeat=n):
            rm = RmaxSct(values)
            for l in range(n):
                for r in range(l, n):
                    assert rm.query(l, r) == naive_rmaxq(values, l, r)


def test_randomized_large():
    rng = np.random.default_rng(20240817)
    n = 100_000
    values = rng.integers(0, 50, size=n)
    rm = RmqSct(values.tolist())
    vlist = values.tolist()
    for _ in range(400):
        l = int(rng.integers(0, n))
        r = int(rng.integers(l, n))
        assert rm.query(l, r) == naive_rmq(vlist, l, r)
    # wide ranges stress the upper directory levels
    for _ in range(40):
        l = int(rng.integers(0, n // 10))
        r = int(rng.integers(n - n // 10, n))
        assert rm.query(l, r) == naive_rmq(vlist, l, r)


def test_monotone_and_constant_inputs():
    n = 5000
    for values in (list(range(n)), list(range(n, 0, -1)), [4] * n):
        rm = RmqSct(values)
        for l, r in [(0, n - 1), (1, n - 2), (n // 2, n - 1), (17, 17)]:
            assert rm.query(l, r) == naive_rmq(values, l, r)


def test_roundtrip():
    rng = np.random.default_rng(5)
    values = rng.integers(0, 1000, size=3000).tolist()
    rm = RmqSct(values)
    buf = io.BytesIO()
    n_written = rm.serialize(buf)
    assert n_written == len(buf.getvalue()) == rm.serialized_bytes()
    buf.seek(0)
    back = RmqSct.deserialize(buf)
    for l, r in [(0, 2999), (100, 200), (0, 0), (1500, 2500)]:
        assert back.query(l, r) == rm.query(l, r)
    assert rm.size_tree().total_bytes == rm.serialized_bytes()


def _saved(n=2000):
    rm = RmqSct(np.random.default_rng(6).integers(0, 50, size=n).tolist())
    buf = io.BytesIO()
    rm.serialize(buf)
    return rm, buf.getvalue()


def test_load_rejects_flipped_select_kind():
    """The parenthesis vector has as many zeros as ones, so a select1
    directory relabelled as select0 matches its count."""
    rm, data = _saved()
    bp = rm.bp
    at = 2 * serialize.HEADER_BYTES + (
        bp.bits.serialized_bytes() + bp.rank_support.serialized_bytes()
    )
    assert data[at : at + 8] == serialize.MAGIC_SELECT and data[at + 9] == 1
    bad = bytearray(data)
    bad[at + 9] = 0
    with pytest.raises(serialize.FormatError):
        RmqSct.deserialize(io.BytesIO(bytes(bad)))


def test_load_rejects_mutated_n():
    _, data = _saved()
    # bytes 10..17 of the first header hold n, little-endian
    assert int.from_bytes(data[10:18], "little") == 2000
    for bad_n in (1999, 2001, 1000, 4000):
        bad = bytearray(data)
        bad[10:18] = bad_n.to_bytes(8, "little")
        with pytest.raises(serialize.FormatError):
            RmqSct.deserialize(io.BytesIO(bytes(bad)))


def test_rmax_roundtrip():
    values = [5, 1, 5, 2, 9, 9, 0]
    rm = RmaxSct(values)
    buf = io.BytesIO()
    rm.serialize(buf)
    buf.seek(0)
    back = RmaxSct.deserialize(buf)
    for l in range(7):
        for r in range(l, 7):
            assert back.query(l, r) == naive_rmaxq(values, l, r)


def test_space_within_budget():
    n = 1_000_000
    rng = np.random.default_rng(11)
    rm = RmqSct(rng.integers(0, 1 << 40, size=n).tolist())
    bits_per_element = rm.serialized_bytes() * 8 / n
    assert bits_per_element <= 3.2
