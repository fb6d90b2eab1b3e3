import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from succix.bench import bench_index, write_tsv
from succix.construct import ByteAlphabet, Collection, load_docs
from succix.corpus import (
    byte_pool,
    make_docs,
    synth_symbol_docs,
    write_corpus,
    zipf_weights,
)
from succix.docindex import ALGOS, build_index, build_sort, load_index
from succix.patterns import (
    gen_patterns,
    read_patterns,
    valid_windows,
    write_patterns,
)

from example_data import DOCS, TEXT


def test_zipf_weights():
    w = zipf_weights(10, 1.3)
    assert w.sum() == pytest.approx(1.0)
    assert (np.diff(w) < 0).all()
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)


def test_byte_pool_excludes_control_bytes():
    pool = byte_pool(sep=10)
    assert 10 not in pool
    assert 0 not in pool
    assert 13 not in pool
    assert len(pool) == 253
    assert len(set(pool)) == len(pool)
    # printable region is preferred for small alphabets
    assert all(32 <= b < 127 for b in pool[:95])


def test_synth_docs_seeded_and_nonempty():
    a = synth_symbol_docs(50, 12, seed=9, mean_len=20)
    b = synth_symbol_docs(50, 12, seed=9, mean_len=20)
    c = synth_symbol_docs(50, 12, seed=10, mean_len=20)
    assert all((x == y).all() for x, y in zip(a, b))
    assert any(len(x) != len(y) or (x != y).any() for x, y in zip(a, c))
    assert min(len(d) for d in a) >= 1
    assert max(int(d.max()) for d in a) < 12


def test_docs_override_renders_exact_symbols():
    docs = make_docs(
        2, 3, seed=0, mode="byte", docs_override=[[0, 1, 0], [2]]
    )
    pool = byte_pool(10)
    assert docs[0] == bytes([pool[0], pool[1], pool[0]])
    assert docs[1] == bytes([pool[2]])
    words = make_docs(
        2, 3, seed=0, mode="word", docs_override=[[0, 1], [2]]
    )
    assert words == [["w0000", "w0001"], ["w0002"]]


def test_byte_sigma_cap():
    with pytest.raises(ValueError):
        make_docs(1, 254, seed=0, mode="byte", docs_override=[[253]])


def test_corpus_file_roundtrip(tmp_path):
    docs = make_docs(30, 9, seed=4, mean_len=15, mode="byte")
    path = tmp_path / "corpus.bin"
    write_corpus(docs, path, "byte")
    assert load_docs(path, "byte") == docs

    words = make_docs(12, 40, seed=4, mean_len=6, mode="word")
    wpath = tmp_path / "corpus.txt"
    write_corpus(words, wpath, "word")
    assert load_docs(wpath, "word") == words


def test_valid_windows_on_example():
    assert valid_windows(TEXT, 2).tolist() == [0, 1, 4]
    assert valid_windows(TEXT, 3).tolist() == [0]
    assert valid_windows(TEXT, 4).tolist() == []
    assert valid_windows(TEXT, 1).tolist() == [0, 1, 2, 4, 5]


def test_gen_patterns_all_occur():
    docs = make_docs(25, 6, seed=2, mean_len=30, mode="byte")
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    for length in (1, 3, 5):
        pats = gen_patterns(coll, length, count=50, seed=7)
        assert len(pats) == 50
        for p in pats:
            assert len(p) == length
            assert any(p in d for d in docs), p
    again = gen_patterns(coll, 3, count=50, seed=7)
    assert again == gen_patterns(coll, 3, count=50, seed=7)
    assert again != gen_patterns(coll, 3, count=50, seed=8)


def test_gen_patterns_warns_when_impossible():
    docs = [b"ab", b"c"]
    coll = Collection(docs, ByteAlphabet.from_docs(docs))
    with pytest.warns(UserWarning):
        assert gen_patterns(coll, 10, count=5, seed=0) == []


def test_pattern_file_roundtrip(tmp_path):
    byte_pats = [b"abc", b"zz", b"q"]
    bpath = tmp_path / "pats.bin"
    write_patterns(byte_pats, bpath, "byte")
    assert read_patterns(bpath, "byte") == byte_pats

    word_pats = [["w1", "w2"], ["w3"]]
    wpath = tmp_path / "pats.txt"
    write_patterns(word_pats, wpath, "word")
    assert read_patterns(wpath, "word") == word_pats


def test_bench_rows_and_cutoff():
    coll = Collection(DOCS, ByteAlphabet.from_docs(DOCS))
    index = build_sort(coll)
    patterns = [b"a", b"b", b"ab", b"ba", b"aba"]
    rows = bench_index(index, patterns, k=2)
    assert [r["pattern_length"] for r in rows] == [1, 2, 3]
    assert [r["count"] for r in rows] == [2, 2, 1]
    assert all(not r["omitted"] for r in rows)
    assert all(r["max_us"] >= r["avg_us"] > 0 for r in rows)

    cut = bench_index(index, [b"a"] * 50, k=2, cutoff_ms=0.0)
    assert cut[0]["omitted"] is True
    assert cut[0]["count"] == 1

    out = io.StringIO()
    write_tsv(rows, out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "pattern_length\tcount\tavg_us\tmax_us\tomitted"
    assert len(lines) == 4
    assert lines[1].split("\t")[0] == "1"


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_defined_on_their_classes():
    """The benchmark's tracer patches cls.__dict__[name]: a method moved to
    a base class or out of the module must fail here first."""
    spans = _load_spans()
    for cls, attr, _ in spans.QUERY_TARGETS:
        assert attr in cls.__dict__, (cls.__name__, attr)
    for cls, attr in spans.LOAD_ROOTS:
        assert attr in cls.__dict__, (cls.__name__, attr)
    for cls in spans.LOAD_COMPONENTS:
        assert "deserialize" in cls.__dict__, cls.__name__
    assert callable(spans.docindex.read_alphabet)


def test_traced_loads_read_every_top_level_component(tmp_path):
    spans = _load_spans()
    coll = Collection(DOCS, ByteAlphabet.from_docs(DOCS))
    indexes = [build_index(algo, coll) for algo in ALGOS]
    for index in indexes:
        index.save(tmp_path / f"{index.algo}.idx")
    tracer = spans.Tracer()
    tracer.install_load()
    try:
        for index in indexes:
            load_index(tmp_path / f"{index.algo}.idx")
    finally:
        tracer.uninstall()
    assert tracer.components_read == [
        len(index.size_tree().children) for index in indexes
    ]
