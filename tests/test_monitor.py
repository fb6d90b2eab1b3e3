import gc
import json
import weakref

import numpy as np
import pytest

from succix.bits import IntVector
from succix.monitor import MemoryMonitor, PhaseError, memory_monitor


class TestMonitor:
    def test_track_untrack_totals(self):
        mon = MemoryMonitor()
        mon.start()
        h1 = mon.track(100, "a")
        h2 = mon.track(50, "b")
        assert mon.total_bytes == 150
        assert mon.peak_bytes == 150
        mon.untrack(h1)
        assert mon.total_bytes == 50
        h3 = mon.track(30, "c")
        assert mon.peak_bytes == 150
        mon.untrack(h2)
        mon.untrack(h3)
        mon.stop()
        assert mon.total_bytes == 0
        deltas = [e[1] for e in mon.events]
        assert deltas == [100, 50, -100, 30, -50, -30]
        totals = [e[2] for e in mon.events]
        assert totals == [100, 150, 50, 80, 30, 0]

    def test_not_recording_is_noop(self):
        mon = MemoryMonitor()
        h = mon.track(999, "x")
        mon.untrack(h)
        assert mon.events == []
        assert mon.total_bytes == 0

    def test_stale_handle_ignored_after_restart(self):
        mon = MemoryMonitor()
        mon.start()
        h = mon.track(10)
        mon.stop()
        mon.start()
        mon.untrack(h)
        assert mon.total_bytes == 0
        assert mon.events == []
        mon.stop()

    def test_phases_record_peaks(self):
        mon = MemoryMonitor()
        with mon:
            with mon.phase("outer"):
                a = mon.track(1000)
                with mon.phase("inner"):
                    b = mon.track(500)
                    mon.untrack(b)
                mon.untrack(a)
                mon.track(10)
        assert mon.phase_labels() == ["inner", "outer"]
        assert mon.phase_peak("inner") == 1500
        assert mon.phase_peak("outer") == 1500
        assert mon.peak_bytes == 1500
        with pytest.raises(KeyError):
            mon.phase_peak("missing")

    def test_phase_mismatch_raises(self):
        mon = MemoryMonitor()
        mon.start()
        mon.begin_phase("a")
        with pytest.raises(PhaseError):
            mon.end_phase("b")

    def test_stop_with_open_phase_raises(self):
        mon = MemoryMonitor()
        mon.start()
        mon.begin_phase("a")
        with pytest.raises(PhaseError):
            mon.stop()

    def test_end_without_begin_raises(self):
        mon = MemoryMonitor()
        mon.start()
        with pytest.raises(PhaseError):
            mon.end_phase("a")

    def test_summary_and_json(self, tmp_path):
        mon = MemoryMonitor()
        with mon:
            with mon.phase("build"):
                mon.track(64, "words")
        s = mon.summary()
        assert s["peak_bytes"] == 64
        assert s["total_bytes"] == 64
        assert len(s["events"]) == 1
        assert s["phases"][0]["label"] == "build"
        path = tmp_path / "mon.json"
        mon.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["peak_bytes"] == 64


class TestStructureRegistration:
    def test_intvector_lifetime_tracked(self):
        memory_monitor.start()
        try:
            iv = IntVector(np.arange(1000, dtype=np.uint64), width=10)
            expect = iv.words.nbytes
            assert memory_monitor.total_bytes == expect
            del iv
            gc.collect()
            assert memory_monitor.total_bytes == 0
            assert memory_monitor.peak_bytes == expect
        finally:
            memory_monitor.stop()

    def test_no_tracking_when_idle(self):
        iv = IntVector(np.arange(10, dtype=np.uint64))
        assert memory_monitor.total_bytes == 0
        del iv

    def test_structure_made_while_idle_stays_untracked(self):
        # no finalizer is attached while idle, so nothing holds a weak
        # reference, and freeing the structure later records nothing
        iv = IntVector(np.arange(100, dtype=np.uint64))
        assert weakref.getweakrefcount(iv) == 0
        memory_monitor.start()
        try:
            tracked = IntVector(np.arange(100, dtype=np.uint64))
            assert weakref.getweakrefcount(tracked) == 1
            del iv
            gc.collect()
            assert memory_monitor.total_bytes == tracked.words.nbytes
            assert len(memory_monitor.events) == 1
        finally:
            memory_monitor.stop()
