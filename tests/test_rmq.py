import io
import itertools

import numpy as np
import pytest

from succix import rmq, serialize
from succix.bits import IntVector
from succix.rmq import RmaxSct, RmqSct

from oracles import (
    next_smaller,
    rmaxq as naive_rmaxq,
    rmq as naive_rmq,
    rmq_parentheses,
)


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
            assert rm.bp.bits.to_bool().tolist() == rmq_parentheses(values)
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


def _frame_bytes(frame):
    buf = io.BytesIO()
    serialize.write_header(buf, frame.magic, frame.width, frame.length)
    for _, part in frame.parts:
        part.serialize(buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", ["word_mins", "group_mins", "super_mins"])
@pytest.mark.parametrize("change", [-1, 1])
def test_load_rejects_summary_of_wrong_length(name, change):
    """The loader checks one summary value per unit: a summary one value
    short or long would load, then fail queries with a broadcast error."""
    rm = RmqSct(np.random.default_rng(8).integers(0, 50, size=20_000))
    frame = rm._frame()
    saved = io.BytesIO()
    rm.serialize(saved)
    assert _frame_bytes(frame) == saved.getvalue()
    parts = []
    for pname, part in frame.parts:
        if pname == name:
            values = part.to_numpy()
            values = values[:-1] if change < 0 else np.append(values, values[-1])
            part = IntVector(values, part.width)
        parts.append((pname, part))
    with pytest.raises(serialize.FormatError, match=name):
        RmqSct.deserialize(io.BytesIO(_frame_bytes(frame._replace(parts=parts))))


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


I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def _assert_parentheses(values):
    """The next-smaller construction writes the stack pass's bits."""
    bits = RmqSct(np.asarray(values, dtype=np.int64)).bp.bits.to_bool()
    assert bits.tolist() == rmq_parentheses(values), values[:16]


def _shapes(n, rng):
    i = np.arange(n, dtype=np.int64)
    return {
        "increasing": i,
        "decreasing": i[::-1].copy(),
        "constant": np.full(n, 7, dtype=np.int64),
        "sawtooth": i % 64,
        "sawtooth_down": (-i) % 100,
        "zigzag": np.where(i % 2, n - i, i),
        "v_shape": np.abs(i - n // 2),
        "peak": -np.abs(i - n // 2),
        "ties": rng.integers(0, 3, n),
        "extremes": rng.choice([I64_MIN, I64_MIN + 1, -1, 0, I64_MAX], n),
        "random_int64": rng.integers(I64_MIN, I64_MAX, n, endpoint=True),
    }


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4095, 4097, 262_145])
def test_parentheses_match_stack_pass(n):
    rng = np.random.default_rng(n)
    for values in _shapes(n, rng).values():
        _assert_parentheses(values.tolist())


def _staircase(steps, tie=False):
    """Steps that fall by one, each a value c followed by the run c + L,
    c + L - 1, ..., c + 1: the pointer of c walks that run one value per
    round, so it stays open for L rounds. With tie, the middle of each
    run equals c, so some blocks before the answer hold c's value."""
    out = []
    c = 1 << 40
    for length in steps:
        run = list(range(c + length, c, -1))
        if tie:
            run[length // 2] = c
        out += [c] + run
        c -= 1
    return out + [c]


@pytest.mark.parametrize("tie", [False, True])
def test_staircase_beyond_the_jumping_rounds(tie):
    steps = [20, 40, 3, 900, 30, 5000, 2, 300, 13, 14, 15, 16]
    values = _staircase(steps, tie)
    arr = np.asarray(values, dtype=np.int64)
    n = len(arr)
    expect = next_smaller(values)
    assert rmq._next_smaller(arr)[:n].tolist() == expect
    _assert_parentheses(values)
    # the case is only useful if every step of the pass runs: some open
    # positions resolve in the 8-value group where their search starts,
    # some later in that 64-value block, the others by lifting
    _, act, q = rmq._pointer_jump(rmq._padded(arr), n)
    answers = np.asarray(expect)[act]
    in_group = (answers >> 3) == ((q + 1) >> 3)
    in_block = (answers >> 6) == ((q + 1) >> 6)
    assert in_group.any()
    assert (in_block & ~in_group).any()
    assert (~in_block).any()


def test_rmax_complements_int64_extremes():
    """-(-2**63) overflows back to -2**63; ~v keeps the order reversed."""
    rm = RmaxSct([0, I64_MIN, 5])
    assert rm.query(0, 2) == 2
    assert rm.query(0, 1) == 0
    values = [I64_MIN, I64_MAX, I64_MIN, 3, I64_MAX, -1]
    rm = RmaxSct(values)
    for l in range(6):
        for r in range(l, 6):
            assert rm.query(l, r) == naive_rmaxq(values, l, r)


@pytest.mark.parametrize("cls", [RmqSct, RmaxSct])
def test_rejects_values_outside_int64(cls):
    for bad in (
        [1.0, 2.0],
        [1, 2.5],
        np.array([0.5, 1.5]),
        [True, False],
        [1 << 63],
        [0, 1 << 64],
        np.array([1 << 63], dtype=np.uint64),
        [[1, 2], [3, 4]],
    ):
        with pytest.raises(ValueError):
            cls(bad)


def test_accepts_unsigned_values_within_int64():
    values = np.array([I64_MAX, 0, 5], dtype=np.uint64)
    assert RmqSct(values).query(0, 2) == 1
    assert RmaxSct(values).query(0, 2) == 0


def _boundary_values(rm, n, bits):
    """Values whose '(' is the first at or past a multiple of bits in the
    parenthesis sequence, and their neighbours."""
    ones = [rm.bp.rank(k * bits) for k in range(len(rm.bp) // bits + 1)]
    return sorted({v for o in ones for v in (o - 1, o, o + 1) if 0 <= v < n})


@pytest.mark.parametrize("shape", ["random", "increasing", "constant"])
def test_spans_reaching_the_super_level(shape, monkeypatch):
    """Ranges over more than 128 groups split into groups and whole
    supers; their ends sit on word, group and super boundaries."""
    n = 800_000
    rng = np.random.default_rng(21)
    values = {
        "random": rng.integers(0, 1 << 40, size=n),
        "increasing": np.arange(n),
        "constant": np.full(n, 9),
    }[shape]
    rm = RmqSct(values)
    levels = []
    scan = RmqSct._scan
    monkeypatch.setattr(
        RmqSct, "_scan",
        lambda self, level, a, b: levels.append(level) or scan(self, level, a, b),
    )
    ends = {0, n - 1}
    for _, bits, _, _ in rmq._LEVELS:
        found = _boundary_values(rm, n, bits)
        ends.update(found[:: max(1, len(found) // 8)])
    ends = sorted(ends)
    group_bits = rmq._LEVELS[1][1]
    opens = {v: rm.bp.select(v + 1) for v in ends}
    pairs = [
        (l, r) for l in ends for r in ends
        if opens[r] - opens[l] > 130 * group_bits
    ]
    assert len(pairs) >= 20
    for l, r in pairs:
        assert rm.query(l, r) == l + int(np.argmin(values[l : r + 1]))
    assert levels.count(len(rmq._LEVELS) - 1) >= len(pairs)
