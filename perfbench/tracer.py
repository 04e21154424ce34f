"""Layer tracing from outside the program: wrap each layer's entry points.

The benchmark times the calls *into* each layer of :mod:`repro` without
editing it.  Every entry point is replaced, for the duration of one
traced experiment, by a wrapper installed at the name its caller looks
up: a class attribute for methods (``World.run``), or the module global
the caller resolves at call time (``netd.analyze_pooled_accrual``,
``spansolver.execute_span_batch``).  Wrappers go in *before* the
experiment's devices are built, because some callers bind methods once
at construction (``Horizon`` keeps ``source.quiescent`` bound).

Each wrapper records one span: its duration, and its *self* time --
the duration minus the part covered by child spans on the same thread.
Spans are aggregated in memory as they close (calls, self seconds and
total seconds per entry point, plus caller->callee edge counts), and
the benchmark writes the tables out when it ends, so a traced run's
memory does not grow with the number of calls.
"""

from __future__ import annotations

import functools
import pickle
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The layers, in reporting order.  ``bench`` is the benchmark's own
#: loop: whatever no layer span covers.
LAYERS = ("world", "engine", "events", "netd", "pooling", "graph",
          "flowplan", "spansolver", "segkernel", "scheduler", "meter",
          "checkpoint", "shards", "transport", "hostd", "setup")

#: The tracer whose wrappers are installed in this process, if any.
#: Wrappers patch process-wide names, so at most one tracer owns them;
#: a forked shard-host worker inherits both the wrappers and this.
ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Aggregated spans for one process, keyed ``"<layer>.<function>"``."""

    def __init__(self) -> None:
        #: name -> [calls, self_s, total_s]
        self.stats: Dict[str, List[float]] = {}
        #: (caller span name or None, callee span name) -> calls
        self.edges: Dict[Tuple[Optional[str], str], int] = {}
        #: Work counts gathered by observers (batch sizes, frames, ...).
        self.counts: Dict[str, float] = {}
        #: Set in shard-host workers: the parent sees every slot frame
        #: from its own side, so workers do not count transport traffic.
        self.worker = False
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, frame: list, parent: Optional[str],
               duration: float, stack: list) -> None:
        if stack:
            stack[-1][1] += duration
        elif self.worker and name == "transport.recv_msg":
            return  # a daemon blocked on its next request is idle
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame[1]
        entry[2] += duration
        key = (parent, name)
        self.edges[key] = self.edges.get(key, 0) + 1

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn``, recording one span per call under ``name``."""
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                tracer._close(name, frame, parent, duration, stack)
            if observe is not None:
                observe(tracer, args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def span(self, name: str) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, name)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (a no-op if this tracer has)."""
        global ACTIVE
        if self._installed:
            return
        if ACTIVE is not None:
            raise RuntimeError("another tracer's wrappers are installed")
        for name, owner, attr, observe in wrap_points():
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))
        ACTIVE = self

    def uninstall(self) -> None:
        """Restore every original entry point."""
        global ACTIVE
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        if ACTIVE is self:
            ACTIVE = None

    def reset(self) -> None:
        """Drop the aggregated tables (open spans close into new ones)."""
        self.stats.clear()
        self.edges.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        """A picklable copy of everything recorded so far."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "edges": dict(self.edges),
                "counts": dict(self.counts)}

    def merge(self, snap: dict) -> None:
        """Add another process's :meth:`snapshot` into this tracer."""
        for name, (calls, self_s, total_s) in snap["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        for key, calls in snap["edges"].items():
            self.edges[key] = self.edges.get(key, 0) + calls
        for key, amount in snap["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + amount


def layer_totals(stats: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-layer ``[calls, self_s]`` summed over each layer's functions."""
    totals = {layer: [0, 0.0] for layer in LAYERS + ("bench",)}
    for name, (calls, self_s, _) in stats.items():
        entry = totals.setdefault(name.split(".", 1)[0], [0, 0.0])
        entry[0] += calls
        entry[1] += self_s
    return totals


class _Span:
    __slots__ = ("tracer", "name", "frame", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1][0] if stack else None
        self.frame = [self.name, 0.0]
        stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self.start
        stack = self.tracer._stack()
        stack.pop()
        self.tracer._close(self.name, self.frame, self.parent, duration,
                           stack)


# -- observers: work counts taken where the work happens ---------------------


def _observe_span_batch(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("spansolver.batch_calls")
    tracer.count("spansolver.batch_devices", len(args[0]))
    tracer.count("spansolver.batch_dropouts",
                 sum(1 for moved in result if moved is None))


def _observe_tick_batch(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("flowplan.tick_batch_calls")
    tracer.count("flowplan.tick_batch_devices", len(args[0]))
    tracer.count("flowplan.tick_batch_dropouts",
                 sum(1 for moved in result if moved is None))


def _observe_feed_cohort(tracer: Tracer, args: tuple, result) -> None:
    # args = (lead meter, followers, watts, dt)
    tracer.count("meter.cohort_fed", 1 + len(args[1]))


def _heartbeat(message) -> bool:
    """Liveness traffic, whose frame count depends on timing."""
    if not isinstance(message, dict):
        return False
    return (message.get("verb") in ("ping", "shutdown")
            or message.get("result") == "pong")


def _frame_bytes(message) -> int:
    return 8 + len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def _observe_send(tracer: Tracer, args: tuple, result) -> None:
    message = args[1]
    if not tracer.worker and not _heartbeat(message):
        tracer.count("transport.frames")
        tracer.count("transport.bytes", _frame_bytes(message))


def _observe_recv(tracer: Tracer, args: tuple, result) -> None:
    if not tracer.worker and not _heartbeat(result):
        tracer.count("transport.frames")
        tracer.count("transport.bytes", _frame_bytes(result))


def wrap_points() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(span name, owner, attribute, observer)`` for every layer.

    The owner is where the caller looks the name up, so the wrapper is
    what the caller actually runs.  Names are ``<layer>.<function>``;
    the layer is the :mod:`repro` module the function belongs to, and
    ``setup`` covers the fleet builders and device construction.
    """
    from repro.core import flowplan, pooling, segkernel, spansolver
    from repro.core.graph import ResourceGraph
    from repro.core.scheduler import EnergyAwareScheduler
    from repro.energy.meter import PowerMeter
    from repro.net import netd
    from repro.sim import checkpoint, hostd, transport, workload
    from repro.sim.engine import CinderSystem, DeviceRuntime
    from repro.sim.events import Horizon
    from repro.sim.shards import ShardedWorld
    from repro.sim.world import World

    engine = DeviceRuntime
    daemon = netd.NetworkDaemon
    sched = EnergyAwareScheduler
    return [
        ("world.run", World, "run", None),
        ("engine.run", engine, "run", None),
        ("engine.step", engine, "step", None),
        ("engine.ff_poll", engine, "_ff_poll", None),
        ("engine.ff_advance", engine, "_ff_advance", None),
        ("engine.ff_begin", engine, "_ff_begin", None),
        ("engine.ff_refuse", engine, "_ff_refuse", None),
        ("engine.ff_commit", engine, "_ff_commit", None),
        ("engine.ff_commit_begin", engine, "_ff_commit_begin", None),
        ("engine.ff_commit_finish", engine, "_ff_commit_finish", None),
        ("events.poll", Horizon, "poll", None),
        ("events.frozen_taps", Horizon, "frozen_taps", None),
        ("events.advance_span", Horizon, "advance_span", None),
        ("netd.step", daemon, "step", None),
        ("netd.submit", daemon, "submit", None),
        ("netd.quiescent", daemon, "quiescent", None),
        ("netd.next_event", daemon, "next_event", None),
        ("netd.span_frozen_taps", daemon, "span_frozen_taps", None),
        ("netd.advance_span", daemon, "advance_span", None),
        # netd imports the pooling functions by name.
        ("pooling.analyze_pooled_accrual", netd, "analyze_pooled_accrual",
         None),
        ("pooling.replay_pooled_accrual", netd, "replay_pooled_accrual",
         None),
        ("pooling.replay_reserve_accrual", netd, "replay_reserve_accrual",
         None),
        ("pooling.budget_ticks", pooling.PooledAccrual, "budget_ticks",
         None),
        ("pooling.analytic_skip_ticks", pooling.PooledAccrual,
         "analytic_skip_ticks", None),
        ("graph.step", ResourceGraph, "step", None),
        ("graph.step_reference", ResourceGraph, "step_reference", None),
        ("graph.advance_span", ResourceGraph, "advance_span", None),
        ("graph.span_plan_handle", ResourceGraph, "span_plan_handle",
         None),
        ("graph.note_span", ResourceGraph, "note_span", None),
        ("flowplan.compile", flowplan.FlowPlan, "__init__", None),
        ("flowplan.execute_tick", flowplan.FlowPlan, "execute_tick", None),
        ("flowplan.execute_span", flowplan.FlowPlan, "execute_span", None),
        # World calls the batch kernels through the module attributes.
        ("flowplan.execute_tick_batch", flowplan, "execute_tick_batch",
         _observe_tick_batch),
        ("spansolver.execute", spansolver.SpanTier, "execute", None),
        ("spansolver.execute_span_batch", spansolver, "execute_span_batch",
         _observe_span_batch),
        # spansolver calls the kernel through the module attributes.
        ("segkernel.first_hits", segkernel, "first_hits", None),
        ("segkernel.violated_at", segkernel, "violated_at", None),
        ("segkernel.derive_modes", segkernel, "derive_modes", None),
        ("scheduler.step", sched, "step", None),
        ("scheduler.advance_idle", sched, "advance_idle", None),
        ("scheduler.any_wants_cpu", sched, "any_wants_cpu", None),
        ("scheduler.add_thread", sched, "add_thread", None),
        ("scheduler.remove_thread", sched, "remove_thread", None),
        ("meter.feed", PowerMeter, "feed", None),
        ("meter.feed_cohort", PowerMeter, "feed_cohort",
         _observe_feed_cohort),
        # shards and hostd call the checkpoint module's attributes.
        ("checkpoint.capture", checkpoint, "capture", None),
        ("checkpoint.restore", checkpoint, "restore", None),
        ("checkpoint.rebuild_replay", checkpoint, "rebuild_replay", None),
        ("checkpoint.world_digest", checkpoint, "world_digest", None),
        ("shards.run", ShardedWorld, "run", None),
        ("transport.send_msg", transport, "send_msg", _observe_send),
        ("transport.recv_msg", transport, "recv_msg", _observe_recv),
        ("transport.connect", transport, "connect", None),
        ("transport.begin", transport.SlotClient, "begin", None),
        ("transport.collect", transport.SlotClient, "collect", None),
        ("hostd.dispatch", hostd, "_dispatch", None),
        ("hostd.spawn", hostd.HostHandle, "spawn", None),
        ("hostd.probe", hostd.HostHandle, "probe", None),
        ("hostd.stop", hostd.HostHandle, "stop", None),
        ("setup.staggered_poller_shard", workload, "staggered_poller_shard",
         None),
        ("setup.add_device", World, "add_device", None),
        ("setup.cinder_system", CinderSystem, "__init__", None),
    ]
