"""FaultPlan: seeded determinism and consume-once semantics.

Chaos runs are only useful if they replay: the same seed and shape
must always produce the same injections, each event must fire exactly
once per run (recovery retries must not re-trip the injection that
killed them), and :meth:`FaultPlan.reset` must rewind the whole plan
for the next identical run.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.faults import (ALL_KINDS, BUILD_KINDS, BUILD_RAISE, CRASH,
                              CORRUPT_DIGEST, DELAY_MSG, DROP_MSG, HANG,
                              NETWORK_KINDS, PARTITION, RUNTIME_KINDS,
                              FaultEvent, FaultPlan)


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError):
            FaultEvent(shard=0, barrier=0, kind="meltdown")

    def test_hang_needs_duration(self):
        with pytest.raises(SimulationError):
            FaultEvent(shard=0, barrier=0, kind=HANG)
        FaultEvent(shard=0, barrier=0, kind=HANG, hang_s=5.0)

    def test_kind_partition(self):
        assert RUNTIME_KINDS | BUILD_KINDS | NETWORK_KINDS == ALL_KINDS
        assert not RUNTIME_KINDS & BUILD_KINDS
        assert not RUNTIME_KINDS & NETWORK_KINDS
        assert not BUILD_KINDS & NETWORK_KINDS

    def test_delay_needs_duration(self):
        with pytest.raises(SimulationError):
            FaultEvent(shard=0, barrier=0, kind=DELAY_MSG)
        FaultEvent(shard=0, barrier=0, kind=DELAY_MSG, delay_s=0.25)


class TestSeededPlans:
    def test_same_seed_same_plan(self):
        kwargs = dict(shards=4, barriers=6, crashes=3, hangs=2,
                      corrupt_digests=1, build_raises=1)
        a = FaultPlan.seeded(42, **kwargs)
        b = FaultPlan.seeded(42, **kwargs)
        assert a.events == b.events

    def test_different_seed_different_plan(self):
        kwargs = dict(shards=4, barriers=8, crashes=4, hangs=2)
        a = FaultPlan.seeded(1, **kwargs)
        b = FaultPlan.seeded(2, **kwargs)
        assert a.events != b.events

    def test_runtime_slots_are_distinct(self):
        plan = FaultPlan.seeded(7, shards=3, barriers=4, crashes=5,
                                hangs=4, corrupt_digests=3)
        slots = [(e.shard, e.barrier) for e in plan.events
                 if e.kind in RUNTIME_KINDS]
        assert len(slots) == len(set(slots)) == 12
        assert all(0 <= s < 3 and 0 <= b < 4 for s, b in slots)

    def test_counts_match_request(self):
        plan = FaultPlan.seeded(7, shards=4, barriers=5, crashes=2,
                                hangs=1, corrupt_digests=1,
                                build_raises=2, hang_s=9.0)
        assert plan.count(CRASH) == 2
        assert plan.count(HANG) == 1
        assert plan.count(CORRUPT_DIGEST) == 1
        assert plan.count(BUILD_RAISE) == 2
        assert all(e.hang_s == 9.0 for e in plan.events
                   if e.kind == HANG)

    def test_network_kinds_drawn_from_seed(self):
        kwargs = dict(shards=3, barriers=4, crashes=1, drop_msgs=1,
                      delay_msgs=1, dup_msgs=1, partitions=1,
                      delay_s=0.75)
        plan = FaultPlan.seeded(11, **kwargs)
        for kind in (CRASH, DROP_MSG, DELAY_MSG, PARTITION):
            assert plan.count(kind) == 1
        assert all(e.delay_s == 0.75 for e in plan.events
                   if e.kind == DELAY_MSG)
        assert all(e.delay_s == 0.0 for e in plan.events
                   if e.kind != DELAY_MSG)
        slots = [(e.shard, e.barrier) for e in plan.events]
        assert len(slots) == len(set(slots)) == 5
        assert FaultPlan.seeded(11, **kwargs).events == plan.events

    def test_overfull_plans_refused(self):
        with pytest.raises(SimulationError):
            FaultPlan.seeded(1, shards=2, barriers=2, crashes=5)
        with pytest.raises(SimulationError):
            FaultPlan.seeded(1, shards=2, barriers=2, build_raises=3)


class TestTakeSemantics:
    def test_take_fires_once(self):
        plan = FaultPlan([FaultEvent(shard=1, barrier=2, kind=CRASH)])
        assert plan.take(1, 2) is not None
        # The recovery retry of the same (shard, barrier) submission
        # must not re-trip the injection.
        assert plan.take(1, 2) is None
        assert plan.consumed == 1

    def test_take_matches_shard_and_barrier(self):
        plan = FaultPlan([FaultEvent(shard=1, barrier=2, kind=CRASH)])
        assert plan.take(0, 2) is None
        assert plan.take(1, 1) is None
        assert plan.take(1, 2).kind == CRASH

    def test_take_filters_kinds(self):
        plan = FaultPlan([
            FaultEvent(shard=0, barrier=0, kind=BUILD_RAISE),
            FaultEvent(shard=0, barrier=0, kind=CRASH),
        ])
        # The barrier-run entry point never receives build faults...
        assert plan.take(0, 0, kinds=RUNTIME_KINDS).kind == CRASH
        # ...and the build entry point never receives runtime faults.
        plan.reset()
        assert plan.take(0, 0, kinds=BUILD_KINDS).kind == BUILD_RAISE

    def test_build_faults_ignore_barrier(self):
        plan = FaultPlan([FaultEvent(shard=2, barrier=5,
                                     kind=BUILD_RAISE)])
        assert plan.take(2, 0, kinds=BUILD_KINDS).kind == BUILD_RAISE

    def test_reset_rewinds_everything(self):
        plan = FaultPlan([
            FaultEvent(shard=0, barrier=0, kind=CRASH),
            FaultEvent(shard=1, barrier=1, kind=CORRUPT_DIGEST),
        ])
        assert plan.take(0, 0) is not None
        assert plan.take(1, 1) is not None
        assert not plan.pending()
        plan.reset()
        assert plan.consumed == 0
        assert len(plan.pending()) == 2
        assert plan.take(0, 0).kind == CRASH
