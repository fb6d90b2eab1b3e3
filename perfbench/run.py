"""Build, save, load and query the three succix indexes on one workload.

    python3 perfbench/run.py --workload byte-wide --seed 1 --seconds 15 --trace 0

A run generates the seeded corpus and patterns, times turning the
documents into a `Collection`, and then repeats a cycle: build `sada`,
`greedy` and `sort` under the memory monitor, save each index and check
three byte totals against each other, load the three files LOAD_ROUNDS
times, and query the last loaded indexes with the whole pattern set.
Cycles repeat until `--seconds` have passed, and at least CYCLES times.
Every answer is checked against an oracle that scans the raw documents.

Every time is scaled by a speed probe (SpeedProbe) timed around it, and
each time reported is the best of the first CYCLES cycles: the fastest
build of each index, the fastest load, and for each query its fastest
latency over those cycles, of which the median and 95th percentile over
the patterns are then taken. Garbage collection is off during query
rounds, as in timeit, so that a latency is not a collector pause; the
traced run reports the full collection made before a round as
`q.gc_collect_ms`.

With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics. With `--trace 1` the run makes one cycle, then one
traced load and one traced query round, and reports the per-layer
metrics; the spans go to perfbench/out/<workload>/trace.npz.
"""

import argparse
import gc
import json
import math
import os
import sys
import time

# One single-threaded process: keep numpy's thread pools to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

ALGOS = ("sada", "greedy", "sort")
# The CLI's defaults: sada samples every 32nd text position, greedy and
# sort use their own sparse default.
BUILD_KWARGS = {"sada": {"sample_rate": 32}, "greedy": {}, "sort": {}}
# Every time metric is the best of exactly this many cycles.
CYCLES = 3
# Load rounds per cycle; load_s is the best of CYCLES * LOAD_ROUNDS.
LOAD_ROUNDS = 3
# The query round takes a speed probe sample after every this many
# patterns.
PROBE_EVERY = 20
# The probe's two times on the 2-vCPU VM of the reference figures in its
# usual state (perfbench/README.md). Every time is scaled to them.
PROBE_NS = {"python": 380_000, "array": 390_000}
# Which of the probe's times a kind of operation is scaled by: queries
# walk Python objects, builds sort numpy arrays, and loads and the set-up
# do both (the geometric mean of the two).
WEIGHTS = {"python": (1.0, 0.0), "array": (0.0, 1.0), "both": (0.5, 0.5)}


def _python_loop(n=4000):
    acc = 0
    d = {}
    for i in range(n):
        acc += (i * 7) & 255
        d[i & 63] = acc
    return acc


_ARRAY = np.random.default_rng(0).integers(0, 1 << 30, 40_000)


def _array_work():
    return np.cumsum(np.sort(_ARRAY))


def _best_ns(fn, repeat=3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


class SpeedProbe:
    """How fast the machine runs Python and numpy right now.

    The machine the benchmark was tuned on changes speed by up to 1.6x
    for stretches of seconds to minutes, and thread CPU time changes
    with it, so no choice of samples inside one run removes it. Fixed
    work timed between the measured operations follows those changes: a
    pure-Python loop and a numpy sort, which do not always slow down
    together. A time t measured between two samples is reported as
    t / (python / PROBE_NS["python"]) ** wp / (array / ...) ** wa, with
    each probe time the mean of the two samples and (wp, wa) the
    WEIGHTS of the operation's kind.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        """(python ns, array ns), each the best of three, collector off."""
        was_on = gc.isenabled()
        gc.disable()
        s = (_best_ns(_python_loop), _best_ns(_array_work))
        if was_on:
            gc.enable()
        self.samples.append(s)
        return s

    @staticmethod
    def scale(before, after, kind):
        """The factor for a time measured between two samples."""
        factor = 1.0
        for i, ref in enumerate(PROBE_NS.values()):
            slow = (before[i] + after[i]) / (2 * ref)
            factor /= slow ** WEIGHTS[kind][i]
        return factor

    def around(self, fn, kind):
        """Run fn between two samples; returns (fn's result, the factor
        that scales a time measured during it)."""
        before = self.sample()
        out = fn()
        return out, self.scale(before, self.sample(), kind)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_succix():
    """The succix of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import succix
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import succix from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(succix.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        sys.exit(f"perfbench: succix was imported from {where}, not {SRC}")
    return succix


class Run:
    def __init__(self, args, succix):
        self.wl = workloads.WORKLOADS[args.workload]
        self.sx = succix
        self.args = args
        self.out_dir = os.path.join(HERE, "out", self.wl.name)
        os.makedirs(self.out_dir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks_ok = True  # size totals and trace bookkeeping agree
        self.metrics = {}
        self.layer = {}
        self.probe = SpeedProbe()

        self.corpus = workloads.make_corpus(self.wl, args.seed)
        self.patterns, ranks = workloads.make_patterns(
            self.wl, self.corpus, args.seed
        )
        self.expected = [
            workloads.oracle(self.corpus, r, self.wl.k) for r in ranks
        ]

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def layer_metric(self, name, value, unit):
        self.layer[name] = {"value": value, "unit": unit}

    # -- set-up, build, save, load -------------------------------------

    def setup(self):
        """Turn the documents into a `Collection` (alphabet and encoded
        text), timed once: the first set-up in the process is the cold
        one a user pays, and a repeat would run warm."""
        sx = self.sx
        alphabet_cls = (
            sx.ByteAlphabet if self.wl.mode == "byte" else sx.WordAlphabet
        )

        def make():
            t0 = time.perf_counter()
            coll = sx.Collection(
                self.corpus.docs, alphabet_cls.from_docs(self.corpus.docs)
            )
            return coll, time.perf_counter() - t0

        (self.coll, seconds), scale = self.probe.around(make, "both")
        self.metric("setup_s", seconds * scale, "s")

    def build_all(self):
        """Build, save and size-check the three indexes; returns the
        wall time of each build, scaled by the speed probe."""
        mm = self.sx.memory_monitor
        peak = 0
        seconds = {}
        self.paths = {}
        self.trees = {}

        def build(algo):
            mm.start()
            t0 = time.perf_counter()
            index = self.sx.build_index(algo, self.coll, **BUILD_KWARGS[algo])
            t1 = time.perf_counter()
            mm.stop()
            return index, t1 - t0

        self.indexes = None
        for algo in ALGOS:
            gc.collect()  # every build starts from the same heap
            (index, raw), scale = self.probe.around(
                lambda: build(algo), "array"
            )
            seconds[algo] = raw * scale
            peak = max(peak, mm.peak_bytes)
            for ph in mm.summary()["phases"]:
                label = ph["label"]
                self.layer_metric(
                    f"b.{algo}.{label}_s",
                    (ph["end_us"] - ph["begin_us"]) / 1e6, "s",
                )
                self.layer_metric(
                    f"b.{algo}.{label}.peak_bytes", ph["peak_bytes"], "bytes"
                )
            self.save(algo, index)
            del index
        self.metric("build_peak_bytes", peak, "bytes")
        return seconds

    def save(self, algo, index):
        path = os.path.join(self.out_dir, f"{algo}.idx")
        written = index.save(path)
        on_disk = os.path.getsize(path)
        tree = index.size_tree()
        if not written == on_disk == tree.total_bytes:
            self.checks_ok = False
            self.errors.append(
                f"{algo}: save() returned {written}, file holds {on_disk}, "
                f"size tree totals {tree.total_bytes}"
            )
        self.paths[algo] = path
        self.trees[algo] = tree
        self.metric(f"index_{algo}_bytes", on_disk, "bytes")
        for child in tree.children:
            self.layer_metric(
                f"size.{algo}.{child.name}_bytes", child.total_bytes, "bytes"
            )

    def load_all(self):
        """Load the three saved files into a heap that holds no earlier
        indexes; returns the total wall time."""
        self.indexes = None
        gc.collect()
        t0 = time.perf_counter()
        self.indexes = {
            algo: self.sx.load_index(self.paths[algo]) for algo in ALGOS
        }
        return time.perf_counter() - t0

    # -- queries ---------------------------------------------------------

    def query_round(self, latencies, before=None):
        """Every pattern against every index, pattern by pattern, so a
        burst of outside load falls on all three alike. Appends each
        latency to latencies[algo][pattern number]. before(algo), if
        given, runs ahead of each query, outside its timing. Each latency
        is scaled by the speed probe samples taken before and after its
        block of PROBE_EVERY patterns. Returns the seconds of the full
        collection made before the round."""
        k, ranking = self.wl.k, self.wl.ranking
        clock = time.perf_counter_ns
        results = {algo: [] for algo in ALGOS}
        raw = {algo: [] for algo in ALGOS}
        probes = []
        # As timeit does: a collection of the whole heap (the indexes are
        # some 10^5 objects) would land on whichever query triggers it.
        t_gc = time.perf_counter()
        gc.collect()
        t_gc = time.perf_counter() - t_gc
        gc.disable()
        try:
            for i, pattern in enumerate(self.patterns):
                if i % PROBE_EVERY == 0:
                    probes.append(self.probe.sample())
                for algo in ALGOS:
                    index = self.indexes[algo]
                    if before is not None:
                        before(algo)
                    t0 = clock()
                    try:
                        hits = index.query(pattern, k, ranking)
                    except Exception as exc:  # a failed query, counted below
                        hits = exc
                    raw[algo].append(clock() - t0)
                    results[algo].append(hits)
            probes.append(self.probe.sample())
        finally:
            gc.enable()
        for algo in ALGOS:
            for i, ns in enumerate(raw[algo]):
                b = i // PROBE_EVERY
                scale = self.probe.scale(probes[b], probes[b + 1], "python")
                latencies[algo][i].append(ns * scale)
        for algo, answers in results.items():
            self.check(algo, answers)
        return t_gc

    def check(self, algo, answers):
        n_docs = self.corpus.n_docs
        for pattern, exp, hits in zip(self.patterns, self.expected, answers):
            self.attempted += 1
            if isinstance(hits, Exception):
                self.failed += 1
                self.errors.append(f"{algo} {pattern!r}: {hits!r}")
                continue
            idf = math.log(n_docs / exp.df)
            ok = [(h.doc, h.tf) for h in hits] == exp.pairs
            for h in hits:
                want = h.tf * idf if self.wl.ranking == "tfidf" else h.tf
                ok = ok and math.isclose(h.score, want, rel_tol=1e-9)
            if not ok:
                self.failed += 1
                self.errors.append(
                    f"{algo} {pattern!r}: got "
                    f"{[(h.doc, h.tf, h.score) for h in hits]}, "
                    f"want {exp.pairs} (df {exp.df})"
                )

    def latencies(self):
        return {algo: [[] for _ in self.patterns] for algo in ALGOS}

    def timed(self):
        builds = {algo: [] for algo in ALGOS}
        loads = []
        latencies = self.latencies()
        t_end = time.perf_counter() + self.args.seconds
        cycles = 0
        while cycles < CYCLES or time.perf_counter() < t_end:
            built = self.build_all()
            rounds = []
            for _ in range(LOAD_ROUNDS):
                seconds, scale = self.probe.around(self.load_all, "both")
                rounds.append(seconds * scale)
            # Cycles past the first CYCLES are answered and checked but
            # not timed, so every time is the best of the same number of
            # samples however fast the machine is.
            timed = cycles < CYCLES
            if timed:
                for algo, seconds in built.items():
                    builds[algo].append(seconds)
                loads.extend(rounds)
            self.query_round(latencies if timed else self.latencies())
            cycles += 1
        for algo in ALGOS:
            self.metric(f"build_{algo}_s", min(builds[algo]), "s")
        self.metric("load_s", min(loads), "s")
        for algo in ALGOS:
            best_ms = [min(v) / 1e6 for v in latencies[algo]]
            p50, p95 = np.percentile(best_ms, [50, 95]).tolist()
            self.metric(f"query_{algo}_p50_ms", p50, "ms")
            self.metric(f"query_{algo}_p95_ms", p95, "ms")

    # -- traced run ------------------------------------------------------

    def traced(self):
        import spans  # imports succix, so only once SRC is on the path

        self.build_all()
        self.load_all()
        tracer = spans.Tracer()
        tracer.install_load()
        try:
            for algo in ALGOS:
                tracer.set_scope(f"load.{algo}")
                self.sx.load_index(self.paths[algo])
        finally:
            tracer.uninstall()
        # Component spans are numbered by call order; they name the
        # size-tree children only if each index read exactly as many.
        want = [len(self.trees[algo].children) for algo in ALGOS]
        if tracer.components_read != want:
            self.checks_ok = False
            self.errors.append(
                f"load spans: the indexes read {tracer.components_read} "
                f"top-level components, their size trees hold {want}"
            )
        for algo in ALGOS:
            for i, child in enumerate(self.trees[algo].children):
                _, self_s = tracer.stats(f"load.{algo}.component{i}")
                self.layer_metric(
                    f"load.{algo}.{child.name}_ms", self_s * 1e3, "ms"
                )

        plain = self.latencies()
        self.layer_metric("q.gc_collect_ms", self.query_round(plain) * 1e3,
                          "ms")

        work = {algo: {"rows": 0, "hits": 0} for algo in ALGOS}
        current = {}

        def count_rows(interval):
            # the search a query makes itself, one level below its span
            if interval is not None and tracer.depth == 1:
                work[current["algo"]]["rows"] += interval[1] - interval[0] + 1

        def count_hits(hits):
            work[current["algo"]]["hits"] += len(hits)

        def scope(algo):
            current["algo"] = algo
            tracer.set_scope(f"q.{algo}")

        traced_ns = self.latencies()
        tracer.install_query(
            {"csa.backward_search": count_rows, "docindex.query": count_hits}
        )
        try:
            self.query_round(traced_ns, before=scope)
        finally:
            tracer.uninstall()

        for algo in ALGOS:
            for span in spans.QUERY_SPANS[algo]:
                calls, self_s = tracer.stats(f"q.{algo}.{span}")
                self.layer_metric(f"q.{algo}.{span}.calls", calls, "count")
                self.layer_metric(
                    f"q.{algo}.{span}.self_ms", self_s * 1e3, "ms"
                )
            self.layer_metric(f"q.{algo}.rows", work[algo]["rows"], "count")
            self.layer_metric(f"q.{algo}.hits", work[algo]["hits"], "count")
            self.layer_metric(
                f"q.{algo}.trace_overhead",
                _total(traced_ns[algo]) / _total(plain[algo]), "ratio",
            )
        psi, _ = tracer.stats("q.sada.csa.psi")
        walks, _ = tracer.stats("q.sada.csa.sa_access")
        self.layer_metric(
            "q.sada.psi_per_sa_access", psi / walks if walks else 0.0, "ratio"
        )
        expands, _ = tracer.stats("q.greedy.wavelet.expand")
        hits = work["greedy"]["hits"]
        self.layer_metric(
            "q.greedy.expand_per_hit", expands / hits if hits else 0.0,
            "ratio",
        )
        tracer.write(
            os.path.join(self.out_dir, "trace.npz"),
            {"workload": self.wl.name, "seed": self.args.seed},
        )

    def report(self, trace):
        probe_us = np.median(self.probe.samples, axis=0) / 1e3
        for name, us in zip(PROBE_NS, probe_us.tolist()):
            self.layer_metric(f"speed_probe.{name}_us", us, "us")
        metrics = self.layer if trace else self.metrics
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
        if not trace:  # not metrics of this mode; they set its scale
            for name in PROBE_NS:
                label = f"speed_probe.{name}_us"
                value = self.layer[label]["value"]
                print(f"{'(' + label + ')':<48} {value:>16.6g} us")
        for line in self.errors[:20]:
            print(f"error: {line}", file=sys.stderr)
        result = {
            "correct": self.checks_ok and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))


def _total(latencies):
    return sum(sum(v) for v in latencies)


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    succix = _import_succix()
    import_s = time.perf_counter() - t0
    run = Run(args, succix)
    # Not part of setup_s, which is the Collection alone; shown so that
    # work moved to import time is seen.
    run.layer_metric("import_succix_s", import_s, "s")
    run.setup()
    if args.trace:
        run.traced()
    else:
        run.timed()
    run.report(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
