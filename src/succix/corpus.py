"""Reproducible synthetic document collections.

Document lengths follow a geometric distribution (never empty), symbols
a truncated Zipf over the alphabet, both driven by one seed. Byte
corpora draw from printable bytes first and never contain NUL, CR, or
the separator byte; word corpora use fixed-width "w####" tokens.
"""

import numpy as np

_RESERVED = frozenset((0, 13))


def zipf_weights(sigma, s):
    """Probabilities proportional to 1/rank^s, ranks 1..sigma."""
    if sigma < 1:
        raise ValueError("alphabet needs at least one symbol")
    ranks = np.arange(1, sigma + 1, dtype=np.float64)
    w = ranks ** -float(s)
    return w / w.sum()


def byte_pool(sep=10):
    """Usable corpus bytes: visible ASCII first, separator and NUL/CR never."""
    order = (
        list(range(33, 127)) + [32] + list(range(127, 256))
        + list(range(1, 32))
    )
    return [b for b in order if b != sep and b not in _RESERVED]


def synth_symbol_docs(n_docs, sigma, seed, mean_len=64, zipf_s=1.3):
    """Documents as arrays of symbol ranks 0..sigma-1."""
    if n_docs < 1:
        raise ValueError("need at least one document")
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(1.0 / max(1.0, float(mean_len)), size=n_docs)
    probs = zipf_weights(sigma, zipf_s)
    return [
        rng.choice(sigma, size=int(ln), p=probs) for ln in lengths
    ]


def render_docs(symbol_docs, mode, sep=10):
    """Symbol-rank documents (integer sequences) as byte strings or token
    lists."""
    if mode == "byte":
        symbol_docs = [np.asarray(d, dtype=np.int64) for d in symbol_docs]
        pool = byte_pool(sep)
        sigma = max((int(d.max()) + 1 for d in symbol_docs if len(d)), default=1)
        if sigma > len(pool):
            raise ValueError(
                f"byte corpora support at most {len(pool)} symbols"
            )
        lut = np.array(pool, dtype=np.uint8)
        return [bytes(lut[d].tobytes()) for d in symbol_docs]
    if mode == "word":
        return [[f"w{int(s):04d}" for s in d] for d in symbol_docs]
    raise ValueError(f"unknown corpus mode {mode!r}")


def make_docs(
    n_docs, sigma, seed, mean_len=64, zipf_s=1.3, mode="byte", sep=10
):
    """Synthesize a corpus."""
    symbol_docs = synth_symbol_docs(n_docs, sigma, seed, mean_len, zipf_s)
    return render_docs(symbol_docs, mode, sep)


def write_corpus(docs, path, mode, sep=10):
    """One document per separator (byte) or per line (word)."""
    if mode == "byte":
        with open(path, "wb") as f:
            for doc in docs:
                f.write(doc)
                f.write(bytes([sep]))
        return
    if mode == "word":
        with open(path, "w", encoding="utf-8") as f:
            for doc in docs:
                f.write(" ".join(doc))
                f.write("\n")
        return
    raise ValueError(f"unknown corpus mode {mode!r}")
