"""Command line front end.

Subcommands cover the whole life cycle: synthesize a corpus, build an
index, sample query patterns, run queries, time them, and inspect the
serialized layout.
"""

import argparse
import sys

from .bench import bench_index, write_tsv
from .construct import Collection, WordAlphabet
from .corpus import make_docs, write_corpus
from .docindex import ALGOS, build_index, load_index
from .monitor import memory_monitor
from .patterns import gen_patterns, read_patterns, write_patterns


def _add_build(sub):
    p = sub.add_parser("build", help="build an index from a corpus file")
    p.add_argument("--algo", choices=ALGOS, required=True)
    p.add_argument("--mode", choices=("byte", "word"), required=True)
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--out", required=True, help="index file to write")
    p.add_argument(
        "--sep", type=int, default=10,
        help="document separator byte for byte mode (default newline)",
    )
    p.add_argument(
        "--sa-sample", type=int, default=None,
        help="suffix array sample rate (default 32 for sada, else sparse)",
    )
    p.add_argument(
        "--keep-temp", metavar="DIR", default=None,
        help="also write intermediate build artifacts to this directory",
    )
    p.add_argument(
        "--monitor", metavar="JSON", default=None,
        help="record tracked memory during the build to this JSON file",
    )


def _cmd_build(args):
    coll = Collection.from_file(args.input, args.mode, sep=args.sep)
    kwargs = {"temp_dir": args.keep_temp}
    if args.sa_sample is not None:
        kwargs["sample_rate"] = args.sa_sample
    if args.monitor:
        memory_monitor.start()
    index = build_index(args.algo, coll, **kwargs)
    if args.monitor:
        memory_monitor.stop()
        memory_monitor.write_json(args.monitor)
    n_bytes = index.save(args.out)
    if args.mode == "word":
        index.alphabet.write_sidecar(args.out + ".vocab")
    print(
        f"built {args.algo} index over {coll.n_docs} documents "
        f"({coll.n} symbols) -> {args.out} ({n_bytes} bytes)"
    )
    return 0


def _add_query_args(p, *more):
    """`query` and `bench` arguments; `more` (flags, options) precede --out."""
    p.add_argument("--index", required=True)
    p.add_argument("--patterns", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--ranking", choices=("freq", "tfidf"), default="freq")
    for flags, options in more:
        p.add_argument(*flags, **options)
    p.add_argument("--out", default=None, help="TSV output (default stdout)")


def _add_query(sub):
    p = sub.add_parser("query", help="run top-k queries from a pattern file")
    _add_query_args(p)


def _cmd_query(args):
    index = load_index(args.index)
    patterns = read_patterns(args.patterns, index.mode)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("pattern_no\tdoc\ttf\tscore\n")
        for i, pattern in enumerate(patterns):
            for hit in index.query(pattern, args.k, args.ranking):
                out.write(f"{i}\t{hit.doc}\t{hit.tf}\t{hit.score:.12g}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _add_gen_patterns(sub):
    p = sub.add_parser(
        "gen-patterns", help="sample occurring patterns from a corpus"
    )
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("byte", "word"), default="byte")
    p.add_argument("--sep", type=int, default=10)
    p.add_argument("--out", default=None, help="pattern file (default stdout)")


def _cmd_gen_patterns(args):
    coll = Collection.from_file(args.input, args.mode, sep=args.sep)
    pats = gen_patterns(coll, args.length, args.count, args.seed)
    if args.out:
        write_patterns(pats, args.out, args.mode)
    else:
        for p in pats:
            line = p.decode("latin-1") if args.mode == "byte" else " ".join(p)
            print(line)
    return 0


def _add_size_report(sub):
    p = sub.add_parser(
        "size-report", help="per-component size breakdown of an index"
    )
    p.add_argument("--index", required=True)
    p.add_argument("--json", default=None, help="write the tree as JSON")
    p.add_argument("--html", default=None, help="write an interactive page")


def _cmd_size_report(args):
    index = load_index(args.index)
    tree = index.size_tree(name=f"{index.algo} index")
    print(tree.format())
    if args.json:
        tree.write_json(args.json)
    if args.html:
        tree.write_html(args.html, title=f"{index.algo} index layout")
    return 0


def _add_bench(sub):
    _add_query_args(
        sub.add_parser("bench", help="time queries grouped by length"),
        (("--cutoff-ms",), dict(
            type=float, default=5000.0,
            help="per-length time budget before the group is cut off",
        )),
    )


def _cmd_bench(args):
    index = load_index(args.index)
    patterns = read_patterns(args.patterns, index.mode)
    rows = bench_index(
        index, patterns, args.k, args.ranking, cutoff_ms=args.cutoff_ms
    )
    if args.out:
        with open(args.out, "w") as f:
            write_tsv(rows, f)
    else:
        write_tsv(rows, sys.stdout)
    return 0


def _add_gen_corpus(sub):
    p = sub.add_parser("gen-corpus", help="synthesize a seeded corpus")
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("byte", "word"), default="byte")
    p.add_argument("--mean-len", type=float, default=64.0)
    p.add_argument("--zipf-s", type=float, default=1.3)
    p.add_argument("--sep", type=int, default=10)
    p.add_argument("--out", required=True)


def _cmd_gen_corpus(args):
    docs = make_docs(
        args.docs, args.sigma, args.seed,
        mean_len=args.mean_len, zipf_s=args.zipf_s,
        mode=args.mode, sep=args.sep,
    )
    write_corpus(docs, args.out, args.mode, sep=args.sep)
    if args.mode == "word":
        WordAlphabet.from_docs(docs).write_sidecar(args.out + ".vocab")
    print(f"wrote {len(docs)} documents to {args.out}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "query": _cmd_query,
    "gen-patterns": _cmd_gen_patterns,
    "size-report": _cmd_size_report,
    "bench": _cmd_bench,
    "gen-corpus": _cmd_gen_corpus,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="succix",
        description="Compressed text indexing and top-k document retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_build(sub)
    _add_query(sub)
    _add_gen_patterns(sub)
    _add_size_report(sub)
    _add_bench(sub)
    _add_gen_corpus(sub)
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
