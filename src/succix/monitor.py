"""Tracked-allocation monitor for construction profiling.

Structures in this library register their packed payloads with the
process-global monitor when it is recording. The monitor keeps a single
totally-ordered event log plus named construction phases, so builds can be
profiled deterministically without OS-level RSS sampling. Scratch buffers
inside vectorized kernels are not structures and are not tracked.
"""

import json
import threading
import time
import weakref


class PhaseError(RuntimeError):
    """Raised on unbalanced or mismatched phase begin/end calls."""


class _Handle:
    __slots__ = ("generation", "nbytes", "tag")

    def __init__(self, generation, nbytes, tag):
        self.generation = generation
        self.nbytes = nbytes
        self.tag = tag


class MemoryMonitor:
    """Process-global allocation ledger with nested construction phases.

    Events are (t_us, delta_bytes, total_bytes) triples. A phase records its
    label, begin/end timestamps and the peak total observed while open.
    All mutation happens under one lock so the log is totally ordered even
    with concurrent construction threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._generation = 0
        self._recording = False
        self._reset_locked()

    def _reset_locked(self):
        self._t0 = time.perf_counter_ns()
        self._start_unix = time.time()
        self._total = 0
        self._peak = 0
        self.events = []
        self.phases = []
        self._phase_stack = []

    def _now_us(self):
        return (time.perf_counter_ns() - self._t0) // 1000

    @property
    def recording(self):
        return self._recording

    @property
    def total_bytes(self):
        return self._total

    @property
    def peak_bytes(self):
        return self._peak

    def start(self):
        """Begin a fresh recording session; prior events are dropped."""
        with self._lock:
            self._generation += 1
            self._reset_locked()
            self._recording = True
        return self

    def stop(self):
        with self._lock:
            if self._phase_stack:
                open_labels = [p["label"] for p in self._phase_stack]
                self._recording = False
                raise PhaseError(f"phases still open at stop: {open_labels}")
            self._recording = False

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.stop()
        else:
            with self._lock:
                self._recording = False
        return False

    def track(self, nbytes, tag=""):
        nbytes = int(nbytes)
        with self._lock:
            if not self._recording:
                return _Handle(-1, nbytes, tag)
            self._total += nbytes
            if self._total > self._peak:
                self._peak = self._total
            for ph in self._phase_stack:
                if self._total > ph["peak_bytes"]:
                    ph["peak_bytes"] = self._total
            self.events.append((self._now_us(), nbytes, self._total))
            return _Handle(self._generation, nbytes, tag)

    def untrack(self, handle):
        with self._lock:
            if not self._recording or handle.generation != self._generation:
                return
            self._total -= handle.nbytes
            self.events.append((self._now_us(), -handle.nbytes, self._total))

    def begin_phase(self, label):
        with self._lock:
            if not self._recording:
                return
            self._phase_stack.append(
                {
                    "label": label,
                    "begin_us": self._now_us(),
                    "end_us": None,
                    "peak_bytes": self._total,
                }
            )

    def end_phase(self, label):
        with self._lock:
            if not self._recording:
                return
            if not self._phase_stack:
                raise PhaseError(f"end of phase {label!r} without a begin")
            ph = self._phase_stack[-1]
            if ph["label"] != label:
                raise PhaseError(
                    f"phase end {label!r} does not match open phase {ph['label']!r}"
                )
            self._phase_stack.pop()
            ph["end_us"] = self._now_us()
            self.phases.append(ph)

    def phase(self, label):
        return _PhaseContext(self, label)

    def phase_labels(self):
        return [p["label"] for p in self.phases]

    def phase_peak(self, label):
        for ph in self.phases:
            if ph["label"] == label:
                return ph["peak_bytes"]
        raise KeyError(label)

    def summary(self):
        with self._lock:
            return {
                "start_unix": self._start_unix,
                "peak_bytes": self._peak,
                "total_bytes": self._total,
                "events": [list(e) for e in self.events],
                "phases": [dict(p) for p in self.phases],
            }

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.summary(), f, indent=1)


class _PhaseContext:
    def __init__(self, mon, label):
        self._mon = mon
        self._label = label

    def __enter__(self):
        self._mon.begin_phase(self._label)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self._mon.end_phase(self._label)
        return False


memory_monitor = MemoryMonitor()


def register_allocation(owner, nbytes, tag=""):
    """Track `nbytes` against `owner`'s lifetime; freed when `owner` dies.
    While the monitor is idle nothing is tracked, so nothing is attached:
    a later recording ignores the structure."""
    handle = memory_monitor.track(nbytes, tag)
    if handle.generation >= 0:
        weakref.finalize(owner, memory_monitor.untrack, handle)
    return handle
