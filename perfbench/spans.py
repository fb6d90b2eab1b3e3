"""Span tracing of succix calls, installed from outside the library.

`Tracer.install_query` and `Tracer.install_load` replace chosen methods
on succix classes with wrappers that record one span per call: name,
start, end and parent span. Spans live in flat in-memory arrays, the
first million of a run whole, and are written out once, by `write`, at
the end of a run. Per-name call counts and self times (a span's
duration minus the time covered by its child spans) are kept for every
span as it closes.

Nothing under src/ knows about this module; `uninstall` puts the
original methods back.
"""

import json
import time
from array import array

import numpy as np

from succix import bits, compressed, construct, csa, docindex, rmq, wavelet

# (class, method, span name) for every call traced during queries.
QUERY_TARGETS = (
    (docindex._IndexBase, "query", "docindex.query"),
    (csa._CsaBase, "backward_search", "csa.backward_search"),
    (csa.CsaPsi, "sa_access", "csa.sa_access"),
    (csa.CsaPsi, "psi", "csa.psi"),
    (rmq.RmqSct, "query", "rmq.query"),
    (construct.SaSamples, "lookup", "construct.SaSamples.lookup"),
    (construct.DocIsaTable, "get", "construct.DocIsaTable.get"),
    (compressed.SDVector, "select", "compressed.SDVector.select"),
    (compressed.SDVector, "rank", "compressed.SDVector.rank"),
    (compressed.RRRVector, "rank", "compressed.RRRVector.rank"),
    (bits.SelectSupport, "select", "bits.SelectSupport.select"),
    (bits.RankSupport, "rank", "bits.RankSupport.rank"),
    (bits.BackedBits, "rank", "bits.BackedBits.rank"),
    (bits.IntVector, "to_numpy", "bits.IntVector.to_numpy"),
    (wavelet.WaveletTree, "rank", "wavelet.rank"),
    (wavelet.WaveletTreeHuff, "rank", "wavelet.rank"),
    (wavelet.WaveletTree, "expand", "wavelet.expand"),
    (wavelet.WaveletTree, "count_distinct", "wavelet.count_distinct"),
)

# Span names reported per index, as the layers each one goes through.
QUERY_SPANS = {
    "sada": (
        "docindex.query", "csa.backward_search", "rmq.query",
        "csa.sa_access", "csa.psi", "construct.SaSamples.lookup",
        "compressed.SDVector.select", "compressed.SDVector.rank",
        "bits.SelectSupport.select", "bits.RankSupport.rank",
        "bits.BackedBits.rank", "construct.DocIsaTable.get",
    ),
    "greedy": (
        "docindex.query", "csa.backward_search", "wavelet.rank",
        "wavelet.expand", "wavelet.count_distinct",
        "compressed.RRRVector.rank", "bits.RankSupport.rank",
    ),
    "sort": (
        "docindex.query", "csa.backward_search", "wavelet.rank",
        "bits.IntVector.to_numpy", "compressed.RRRVector.rank",
    ),
}

# Readers of the top-level index components, traced during loads. Only
# calls made directly by the index's own deserialize become spans, so a
# reader that also runs nested (IntVector inside nearly everything) is
# counted once per top-level component.
LOAD_ROOTS = (
    (docindex.SadaIndex, "deserialize"),
    (docindex.GreedyIndex, "deserialize"),
    (docindex.SortIndex, "deserialize"),
)
LOAD_COMPONENTS = (
    csa.CsaPsi, csa.CsaWt, bits.BackedBits, bits.IntVector,
    construct.DocIsaTable, rmq.RmqSct, rmq.RmaxSct, wavelet.WaveletTree,
)


class Tracer:
    """Spans of traced calls, up to `cap` of them kept whole; call counts
    and self times cover every span, kept or not."""

    def __init__(self, cap=1_000_000):
        self.cap = cap
        self.names = []
        self._ids = {}
        self._caches = {}
        self.set_scope("trace")
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls = []
        self.self_ns = []
        self.opened = 0
        # open spans: [span number, name id, start ns, ns covered by children]
        self._stack = []
        self._components = 0  # component reads under the open index read
        self.components_read = []  # their number, per index read
        self._saved = []
        self.t0 = time.perf_counter_ns()

    @property
    def depth(self):
        """Number of spans open now."""
        return len(self._stack)

    def set_scope(self, scope):
        """Prefix the names of the spans opened from now on."""
        self.scope = scope
        self._scoped = self._caches.setdefault(scope, {})

    def _id(self, name):
        nid = self._scoped.get(name)
        if nid is None:
            key = f"{self.scope}.{name}"
            nid = self._ids.get(key)
            if nid is None:
                nid = self._ids[key] = len(self.names)
                self.names.append(key)
                self.calls.append(0)
                self.self_ns.append(0)
            self._scoped[name] = nid
        return nid

    def _open(self, name):
        """Open a span; spans are numbered in opening order, and the
        first `cap` are stored at that number."""
        sid = self.opened
        self.opened += 1
        nid = self._id(name)
        keep = sid < self.cap
        if keep:
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.end.append(0)
        t = time.perf_counter_ns()
        if keep:
            self.start.append(t)
        self._stack.append([sid, nid, t, 0])
        return sid

    def _close(self):
        t1 = time.perf_counter_ns()
        sid, nid, t0, child_ns = self._stack.pop()
        dur = t1 - t0
        if sid < self.cap:
            self.end[sid] = t1
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child_ns
        if self._stack:
            self._stack[-1][3] += dur

    def _patch(self, cls, attr, make):
        raw = cls.__dict__[attr]
        self._saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def install_query(self, hooks=None):
        """Trace every QUERY_TARGETS call. hooks maps a span name to a
        function that is given each value such a call returns."""
        hooks = hooks or {}
        for cls, attr, name in QUERY_TARGETS:
            def make(fn, name=name, hook=hooks.get(name)):
                def traced(*args, **kwargs):
                    self._open(name)
                    try:
                        out = fn(*args, **kwargs)
                    finally:
                        self._close()
                    if hook is not None:
                        hook(out)
                    return out
                return traced
            self._patch(cls, attr, make)

    def install_load(self):
        """Trace index deserialize calls and their direct component reads;
        component spans are named by call order, as `component<i>`."""
        roots = set()

        def make_root(fn):
            def traced(cls, *args, **kwargs):
                sid = self._open("deserialize")
                roots.add(sid)
                self._components = 0
                try:
                    return fn(cls, *args, **kwargs)
                finally:
                    self._close()
                    self.components_read.append(self._components)
            return traced

        def make_component(fn):
            def traced(*args, **kwargs):
                if not (self._stack and self._stack[-1][0] in roots):
                    return fn(*args, **kwargs)
                self._open(f"component{self._components}")
                self._components += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close()
            return traced

        for cls, attr in LOAD_ROOTS:
            self._patch(cls, attr, make_root)
        for cls in LOAD_COMPONENTS:
            self._patch(cls, "deserialize", make_component)
        self._patch_module(docindex, "read_alphabet", make_component)

    def _patch_module(self, module, attr, make):
        raw = getattr(module, attr)
        self._saved.append((module, attr, raw))
        setattr(module, attr, make(raw))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def stats(self, name):
        """(calls, self seconds) of a scoped span name; zeros if unseen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_ns[nid] / 1e9

    def write(self, path, meta):
        """The kept spans, times in ns from tracer creation, parent -1 at
        roots, to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64) - self.t0,
            end_ns=np.asarray(self.end, dtype=np.int64) - self.t0,
            meta=np.array(json.dumps(
                dict(meta, spans_opened=self.opened, spans_kept=len(self.start))
            )),
        )
