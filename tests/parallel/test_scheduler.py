"""The deterministic scheduler: dispatch order, disk contention,
dependencies, queue waits, and the concurrent-memory sweep."""

import pytest

from repro.parallel.scheduler import (
    FragmentWork,
    TimelineSimulator,
    concurrent_peak,
)
from repro.storage.io_model import DiskModel


def _timeline(workers, streams):
    """A timeline over a device with ``streams`` parallel streams."""
    return TimelineSimulator(workers, DiskModel(parallel_streams=streams).stream_rate)


def _place(works, workers, streams):
    """One closed batch on a private timeline: its slots and makespan."""
    sim = _timeline(workers, streams)
    slots = sim.add_works(works)
    sim.run_to_idle()
    # a lone batch's own clock is the timeline's clock
    assert slots == [sim.slots[w.index] for w in works]
    return slots, sim.makespan


def _slot(slots, index):
    return next(s for s in slots if s.index == index)


class TestDispatch:
    def test_independent_fragments_overlap(self):
        works = [
            FragmentWork(0, io_seconds=0.0, cpu_seconds=1.0),
            FragmentWork(1, io_seconds=0.0, cpu_seconds=1.0),
        ]
        slots, makespan = _place(works, workers=2, streams=4)
        assert makespan == pytest.approx(1.0)
        assert {_slot(slots, 0).worker, _slot(slots, 1).worker} == {0, 1}

    def test_single_worker_serializes(self):
        works = [
            FragmentWork(0, io_seconds=0.0, cpu_seconds=1.0),
            FragmentWork(1, io_seconds=0.0, cpu_seconds=2.0),
        ]
        slots, makespan = _place(works, workers=1, streams=4)
        assert makespan == pytest.approx(3.0)
        # longest fragment dispatches first (list scheduling)
        assert _slot(slots, 1).start_seconds == 0.0
        assert _slot(slots, 0).start_seconds == pytest.approx(2.0)

    def test_queue_wait_recorded(self):
        works = [FragmentWork(i, io_seconds=0.0, cpu_seconds=1.0) for i in range(3)]
        slots, makespan = _place(works, workers=2, streams=4)
        assert makespan == pytest.approx(2.0)
        waits = sorted(s.start_seconds for s in slots)
        assert waits == pytest.approx([0.0, 0.0, 1.0])

    def test_deterministic_tie_break_by_index(self):
        works = [FragmentWork(i, io_seconds=0.0, cpu_seconds=1.0) for i in range(4)]
        first, _ = _place(works, workers=2, streams=4)
        second, _ = _place(works, workers=2, streams=4)
        assert [(s.index, s.worker, s.start_seconds) for s in first] == [
            (s.index, s.worker, s.start_seconds) for s in second
        ]
        assert _slot(first, 0).worker == 0 and _slot(first, 1).worker == 1


class TestDiskContention:
    def test_streams_cap_stretches_io(self):
        # two IO-only fragments on a single-stream disk: they share the
        # device, so wall clock equals the serialized IO time
        works = [
            FragmentWork(0, io_seconds=1.0, cpu_seconds=0.0),
            FragmentWork(1, io_seconds=1.0, cpu_seconds=0.0),
        ]
        _, contended = _place(works, workers=2, streams=1)
        assert contended == pytest.approx(2.0)
        _, parallel = _place(works, workers=2, streams=2)
        assert parallel == pytest.approx(1.0)

    def test_cpu_phase_not_stretched(self):
        works = [
            FragmentWork(0, io_seconds=1.0, cpu_seconds=1.0),
            FragmentWork(1, io_seconds=1.0, cpu_seconds=1.0),
        ]
        _, makespan = _place(works, workers=2, streams=1)
        # both IO phases share the single stream (done at t=2), then the
        # CPU phases run at full speed on their own workers (t=3)
        assert makespan == pytest.approx(3.0)

    def test_makespan_non_increasing_in_workers(self):
        works = [
            FragmentWork(i, io_seconds=0.5, cpu_seconds=0.25) for i in range(8)
        ]
        spans = [
            _place(works, workers=w, streams=4)[1] for w in (1, 2, 4, 8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(spans, spans[1:]))


class TestDependencies:
    def test_final_waits_for_partitions(self):
        works = [
            FragmentWork(0, io_seconds=0.0, cpu_seconds=1.0),
            FragmentWork(1, io_seconds=0.0, cpu_seconds=2.0),
            FragmentWork(2, io_seconds=0.0, cpu_seconds=0.5, depends_on=(0, 1)),
        ]
        slots, makespan = _place(works, workers=4, streams=4)
        assert _slot(slots, 2).ready_seconds == pytest.approx(2.0)
        assert _slot(slots, 2).start_seconds == pytest.approx(2.0)
        assert makespan == pytest.approx(2.5)

    def test_broadcast_then_partitions_then_final(self):
        works = [
            FragmentWork(0, io_seconds=0.0, cpu_seconds=0.5),                  # broadcast
            FragmentWork(1, io_seconds=0.0, cpu_seconds=1.0, depends_on=(0,)),
            FragmentWork(2, io_seconds=0.0, cpu_seconds=1.0, depends_on=(0,)),
            FragmentWork(3, io_seconds=0.0, cpu_seconds=0.1, depends_on=(1, 2)),
        ]
        slots, makespan = _place(works, workers=2, streams=4)
        assert _slot(slots, 1).start_seconds == pytest.approx(0.5)
        assert makespan == pytest.approx(1.6)

    def test_cycle_raises(self):
        works = [
            FragmentWork(0, io_seconds=0.0, cpu_seconds=1.0, depends_on=(1,)),
            FragmentWork(1, io_seconds=0.0, cpu_seconds=1.0, depends_on=(0,)),
        ]
        with pytest.raises(RuntimeError):
            _place(works, workers=2, streams=4)


class TestBatchClock:
    def test_later_batch_is_placed_as_on_a_private_timeline(self):
        # the serving case at MPL 1: a batch registered at t > 0 that
        # has the pool to itself reads, on its own clock, exactly what
        # a fresh timeline gives it — `slot - now` would lose bits
        batch = [
            FragmentWork(10, io_seconds=0.3, cpu_seconds=0.1),
            FragmentWork(11, io_seconds=0.7, cpu_seconds=0.2),
            FragmentWork(12, io_seconds=0.1, cpu_seconds=0.05, depends_on=(10, 11)),
        ]
        private, _ = _place(batch, workers=2, streams=1)
        shared = _timeline(2, streams=1)
        shared.add_works([FragmentWork(0, io_seconds=0.1, cpu_seconds=0.123)])
        shared.run_to_idle()
        assert shared.now > 0.0
        local = shared.add_works(batch)
        shared.run_to_idle()
        assert local == private
        assert shared.slots[12].end_seconds == pytest.approx(
            0.223 + private[2].end_seconds
        )

    def test_contended_batch_counts_from_its_registration(self):
        shared = _timeline(1, streams=1)
        shared.add_works([FragmentWork(0, io_seconds=0.0, cpu_seconds=2.0)])
        shared.run_until(0.5)
        (late,) = shared.add_works([FragmentWork(1, io_seconds=0.0, cpu_seconds=1.0)])
        shared.run_to_idle()
        # queued behind work 0 (1.5 s left), then 1 s of its own
        assert late.ready_seconds == 0.0
        assert late.start_seconds == pytest.approx(1.5)
        assert late.end_seconds == pytest.approx(2.5)
        assert shared.slots[1].end_seconds == pytest.approx(3.0)


class TestConcurrentPeak:
    def test_overlap_sums(self):
        assert concurrent_peak([(0.0, 2.0, 100.0), (1.0, 3.0, 50.0)]) == 150.0

    def test_disjoint_takes_max(self):
        assert concurrent_peak([(0.0, 1.0, 100.0), (2.0, 3.0, 50.0)]) == 100.0

    def test_handoff_counts_as_overlap(self):
        # producer buffer released exactly when the consumer starts: the
        # instantaneous handoff still holds both
        assert concurrent_peak([(0.0, 1.0, 100.0), (1.0, 2.0, 60.0)]) == 160.0

    def test_zero_bytes_ignored(self):
        assert concurrent_peak([(0.0, 1.0, 0.0)]) == 0.0
