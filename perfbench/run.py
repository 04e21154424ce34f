"""The repository benchmark: one workload, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_staggered --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each exists and what
each per-layer metric should move): ``fleet_staggered``,
``device_switching``, ``fleet_busy``, ``fleet_sharded``.

A run builds its inputs from ``--seed``, does its untimed session work
(one warm-up experiment, plus the workload's accuracy or oracle check),
then repeats experiments in a closed loop for ``--seconds``.  Every
experiment's simulated outcome is checked and digested; a failed check
or a digest that differs from the seed's reference counts the
experiment as failed.

* ``--trace 0`` prints the end-to-end metrics: medians over the
  experiments, and barrier percentiles over every barrier of the run.
* ``--trace 1`` alternates untraced and traced experiments and prints
  the per-layer metrics: calls, self time and share of wall per layer
  (per traced experiment), work counts, ratios, and the tracing
  overhead against the untraced experiments of the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's
tables and per-function spans are also written to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

from tracer import LAYERS, Tracer, layer_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Kept out of every tuning run: confirm a claimed gain on it too.
HELD_OUT_SEED = 20261016
MIN_EXPERIMENTS = 3
MIN_TRACED = 2
#: p90 is reported with at least ten barrier samples beyond it.
MIN_BARRIER_SAMPLES = 110
#: Stop collecting at this multiple of ``--seconds`` even if short.
MAX_OVERRUN = 3.0

#: Times other than set-up are in reference seconds (ref-s): host
#: time divided by the calibration probe timed beside it (see
#: ``workloads.probe``), which cancels the shared host's speed swings.
END_TO_END = (
    ("device_s_per_ref_s", "device-s/ref-s"),
    ("cpu_ref_us_per_device_s", "ref-us/device-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("barrier_p50_ref_ms", "ref-ms"),
    ("barrier_p90_ref_ms", "ref-ms"),
)

#: Per-layer metrics beyond each layer's calls / self_s / share.
#: Counts are per traced experiment.
LAYER_EXTRAS = (
    ("bench.self_s", "s"), ("bench.share", "frac"),
    ("engine.step.calls", "count"), ("engine.step.self_s", "s"),
    ("world.barrier_rounds", "count"),
    ("world.independent_cohort_spans", "count"),
    ("world.independent_scalar_spans", "count"),
    ("world.cohort_spans", "count"), ("world.cohort_ticks", "count"),
    ("world.cohort_fallbacks", "count"),
    ("world.cohort_demotions", "count"),
    ("world.macro_steps", "count"), ("world.tick_steps", "count"),
    ("events.horizon_polls", "count"),
    ("events.horizon_cache_hits", "count"),
    ("events.poll_skip_ratio", "frac"),
    ("engine.fast_forwarded_ticks", "count"),
    ("engine.span_refusals", "count"),
    ("netd.operations", "count"), ("netd.radio_activations", "count"),
    ("pooling.analyses", "count"), ("pooling.replays", "count"),
    ("graph.reference_steps", "count"), ("graph.vector_steps", "count"),
    ("graph.fallback_steps", "count"), ("graph.span_segments", "count"),
    ("graph.span_switches", "count"),
    ("flowplan.compiles", "count"), ("flowplan.tick_batch_calls", "count"),
    ("flowplan.tick_batch_devices_mean", "devices"),
    ("flowplan.tick_batch_dropouts", "count"),
    ("spansolver.scalar_calls", "count"),
    ("spansolver.batch_calls", "count"),
    ("spansolver.batch_devices_mean", "devices"),
    ("spansolver.dropout_ratio", "frac"),
    ("spansolver.span_locate_wall_s", "s"),
    ("spansolver.span_integrate_wall_s", "s"),
    ("spansolver.tick_level_err", "rel"),
    ("meter.span_feeds", "count"), ("meter.tick_feeds", "count"),
    ("meter.cohort_ratio", "frac"),
    ("checkpoint.captures", "count"),
    ("shards.straggler_ratio", "ratio"), ("shards.restarts", "count"),
    ("shards.reschedules", "count"),
    ("shards.recovered_barriers", "count"),
    ("shards.forced_terminations", "count"),
    ("transport.frames", "count"), ("transport.bytes", "B"),
    ("transport.wait_s", "s"),
    ("hostd.spawns", "count"),
    ("setup.devices", "count"),
    ("trace.overhead_frac", "frac"), ("trace.attributed_frac", "frac"),
)

PER_LAYER = tuple(
    metric for layer in LAYERS
    for metric in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                   (f"{layer}.share", "frac"))) + LAYER_EXTRAS

#: Layers whose call counts the simulation alone decides (liveness
#: probes make the socket tiers' counts depend on timing).
DETERMINISTIC_LAYERS = ("world", "engine", "events", "netd", "pooling",
                        "graph", "flowplan", "spansolver", "segkernel",
                        "scheduler", "meter", "checkpoint", "setup")


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> Dict[str, object]:
    import numpy
    from repro.core import segkernel
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "segkernel_backend": segkernel.BACKEND,
            "CINDER_NO_NUMBA": os.environ.get("CINDER_NO_NUMBA")}


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def collect(workload, seed: int, seconds: float, trace: bool):
    """Run experiments in a closed loop until the run is long enough."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        samples = sum(len(e.barriers) for e in plain)
        if trace:
            done = len(traced) >= MIN_TRACED and len(plain) >= MIN_TRACED
        else:
            done = (len(plain) >= MIN_EXPERIMENTS
                    and samples >= MIN_BARRIER_SAMPLES)
        if (done and elapsed >= seconds) \
                or (plain and elapsed >= MAX_OVERRUN * seconds):
            return plain, traced
        # Fleets are cyclic object graphs: free the last experiment's
        # now, or the cyclic collector's passes over its garbage slow
        # every experiment after it.
        gc.collect()
        if trace and len(traced) < len(plain):
            traced.append(workload.experiment(seed, Tracer()))
        else:
            plain.append(workload.experiment(seed))


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(plain) -> Dict[str, float]:
    samples = [b for e in plain for b in e.barriers_ref_s()]
    return {
        "device_s_per_ref_s": statistics.median(
            e.device_s_per_s * e.ref_s for e in plain),
        "cpu_ref_us_per_device_s": statistics.median(
            e.cpu_s / e.ref_s / e.device_s * 1e6 for e in plain),
        "setup_s": statistics.median(e.setup_s for e in plain),
        "peak_rss_mb": peak_rss_mb(),
        "barrier_p50_ref_ms": statistics.median(samples) * 1e3,
        "barrier_p90_ref_ms": percentile(samples, 90) * 1e3,
    }


def host_time(plain) -> Dict[str, float]:
    """The same figures in plain host time, printed for reference."""
    samples = [b for e in plain for b in e.barriers]
    return {
        "host s per ref-s": statistics.median(e.ref_s for e in plain),
        "device_s_per_s": statistics.median(e.device_s_per_s
                                            for e in plain),
        "cpu_us_per_device_s": statistics.median(
            e.cpu_s / e.device_s * 1e6 for e in plain),
        "barrier_p50_ms": statistics.median(samples) * 1e3,
        "barrier_p90_ms": percentile(samples, 90) * 1e3,
    }


def merged_trace(experiments, workers: bool):
    merged = Tracer()
    for e in experiments:
        for snap in (e.worker_traces if workers else [e.trace]):
            merged.merge(snap)
    return merged


def work_signature(e) -> Tuple:
    """The deterministic counts a traced experiment must repeat."""
    merged = Tracer()
    for snap in [e.trace] + e.worker_traces:
        merged.merge(snap)
    totals = layer_totals(merged.stats)
    calls = tuple(totals[layer][0] for layer in DETERMINISTIC_LAYERS)
    counts = tuple(sorted((k, v) for k, v in merged.counts.items()
                          if not k.startswith("transport.")))
    return calls, counts


def per_layer(plain, traced, session: Dict[str, float]) -> Dict[str, float]:
    parent = merged_trace(traced, workers=False)
    merged = merged_trace(traced, workers=False)
    merged.merge(merged_trace(traced, workers=True).snapshot())
    n = len(traced)
    wall = sum(e.traced_wall_s for e in traced)
    stats, counts, edges = merged.stats, merged.counts, merged.edges
    values: Dict[str, float] = {}
    for layer, (calls, self_s) in layer_totals(stats).items():
        values[f"{layer}.calls"] = calls / n
        values[f"{layer}.self_s"] = self_s / n
        values[f"{layer}.share"] = self_s / wall

    def calls_of(*names: str) -> float:
        return sum(stats.get(name, (0,))[0] for name in names) / n

    def count(key: str) -> float:
        return counts.get(key, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def counter(key: str) -> float:
        return statistics.fmean(
            e.counters.get(key, e.telemetry.get(key, 0)) for e in traced)

    step = stats.get("engine.step", [0, 0.0, 0.0])
    values["engine.step.calls"] = step[0] / n
    values["engine.step.self_s"] = step[1] / n
    for key in ("world.barrier_rounds", "world.independent_cohort_spans",
                "world.independent_scalar_spans", "world.cohort_spans",
                "world.cohort_ticks", "world.cohort_fallbacks",
                "world.cohort_demotions", "world.macro_steps",
                "world.tick_steps", "events.horizon_polls",
                "events.horizon_cache_hits", "engine.fast_forwarded_ticks",
                "engine.span_refusals", "netd.operations",
                "netd.radio_activations", "graph.vector_steps",
                "graph.fallback_steps", "graph.span_segments",
                "graph.span_switches", "spansolver.span_locate_wall_s",
                "spansolver.span_integrate_wall_s", "shards.restarts",
                "shards.reschedules", "shards.recovered_barriers",
                "shards.forced_terminations"):
        values[key] = counter(key)
    hits = values["events.horizon_cache_hits"]
    values["events.poll_skip_ratio"] = ratio(
        hits, hits + values["events.horizon_polls"])
    values["pooling.analyses"] = calls_of("pooling.analyze_pooled_accrual")
    values["pooling.replays"] = calls_of("pooling.replay_pooled_accrual",
                                         "pooling.replay_reserve_accrual")
    values["graph.reference_steps"] = calls_of("graph.step_reference")
    values["flowplan.compiles"] = calls_of("flowplan.compile")
    values["flowplan.tick_batch_calls"] = count("flowplan.tick_batch_calls")
    values["flowplan.tick_batch_devices_mean"] = ratio(
        counts.get("flowplan.tick_batch_devices", 0),
        counts.get("flowplan.tick_batch_calls", 0))
    values["flowplan.tick_batch_dropouts"] = count(
        "flowplan.tick_batch_dropouts")
    values["spansolver.scalar_calls"] = calls_of("spansolver.execute")
    values["spansolver.batch_calls"] = count("spansolver.batch_calls")
    values["spansolver.batch_devices_mean"] = ratio(
        counts.get("spansolver.batch_devices", 0),
        counts.get("spansolver.batch_calls", 0))
    values["spansolver.dropout_ratio"] = ratio(
        counts.get("spansolver.batch_dropouts", 0),
        counts.get("spansolver.batch_devices", 0))
    values["spansolver.tick_level_err"] = session.get(
        "spansolver.tick_level_err", 0.0)
    # A span feed is any meter feed not made by a tick (engine.step)
    # or inside a cohort feed's lead call.
    cohort_fed = counts.get("meter.cohort_fed", 0)
    single = sum(calls for (caller, callee), calls in edges.items()
                 if callee == "meter.feed"
                 and caller not in ("engine.step", "meter.feed_cohort"))
    values["meter.span_feeds"] = (cohort_fed + single) / n
    values["meter.tick_feeds"] = edges.get(("engine.step", "meter.feed"),
                                           0) / n
    values["meter.cohort_ratio"] = ratio(cohort_fed, cohort_fed + single)
    values["checkpoint.captures"] = calls_of("checkpoint.capture")
    values["shards.straggler_ratio"] = statistics.fmean(
        ratio(max(e.shard_walls), statistics.fmean(e.shard_walls))
        if e.shard_walls else 0.0 for e in traced)
    values["transport.frames"] = count("transport.frames")
    values["transport.bytes"] = count("transport.bytes")
    values["transport.wait_s"] = stats.get(
        "transport.collect", [0, 0.0, 0.0])[2] / n
    values["hostd.spawns"] = calls_of("hostd.spawn")
    values["setup.devices"] = calls_of("setup.cinder_system")
    values["trace.overhead_frac"] = 1.0 - (
        statistics.median(e.device_s_per_s * e.ref_s for e in traced)
        / statistics.median(e.device_s_per_s * e.ref_s for e in plain))
    bench_self = layer_totals(parent.stats)["bench"][1]
    values["trace.attributed_frac"] = 1.0 - bench_self / wall
    return values


def layer_table(stats, wall: float, title: str) -> List[str]:
    lines = [title, f"  {'layer':<12} {'calls':>12} {'self_s':>10} "
                    f"{'share':>7}"]
    for layer, (calls, self_s) in layer_totals(stats).items():
        if calls:
            lines.append(f"  {layer:<12} {calls:>12.0f} {self_s:>10.4f} "
                         f"{self_s / wall:>7.1%}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__))) != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose from "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    env = environment()
    session = workload.session(args.seed)
    plain, traced = collect(workload, args.seed, args.seconds,
                            bool(args.trace))
    experiments = plain + traced
    reference = workload.reference or experiments[0].digest
    signatures = {work_signature(e) for e in traced}
    failed = 0
    failures: List[str] = list(workload.session_failures)
    for e in experiments:
        problems = list(e.failures) + list(workload.session_failures)
        if e.digest != reference:
            problems.append("outcome digest differs from the reference")
        if len(signatures) > 1 and e.trace is not None:
            problems.append("traced work counts differ between repeats")
        if problems:
            failed += 1
            failures.extend(problems)
    leftover = multiprocessing.active_children()
    if leftover:
        failures.append(f"{len(leftover)} child processes outlived runs")
        for child in leftover:
            child.terminate()
            child.join()
    correct = failed == 0 and not leftover

    if args.trace:
        values = per_layer(plain, traced, session)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(plain)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    samples = sum(len(e.barriers) for e in plain)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"held_out_seed={HELD_OUT_SEED}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"experiments {len(experiments)} ({len(traced)} traced), "
          f"failed {failed}, failed_frac {failed / len(experiments):.3g}, "
          f"barrier samples {samples}")
    print(f"digest {reference}")
    for key, value in sorted(session.items()):
        print(f"session {key} = {value:.6g}")
    for problem in sorted(set(failures)):
        print(f"FAILED: {problem}")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    for name, value in host_time(plain).items():
        print(f"  (host time) {name:<22} {value:>16.6g}")
    tables: List[str] = []
    if traced:
        wall = sum(e.traced_wall_s for e in traced)
        tables += layer_table(merged_trace(traced, False).stats, wall,
                              "layers, this process (share of traced wall)")
        if any(e.worker_traces for e in traced):
            tables += layer_table(merged_trace(traced, True).stats, wall,
                                  "layers, shard daemons (share of the "
                                  "parent's traced wall)")
        print("\n".join(tables))

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "held_out_seed": HELD_OUT_SEED,
        "env": env, "session": session, "digest": reference,
        "failures": sorted(set(failures)), "metrics": metrics,
        "experiments": [{
            "traced": e.trace is not None, "setup_s": e.setup_s,
            "run_s": e.run_s, "cpu_s": e.cpu_s, "ref_s": e.ref_s,
            "device_s_per_s": e.device_s_per_s, "barriers": e.barriers,
            "probes": e.probes,
            "digest": e.digest, "counters": e.counters,
            "telemetry": e.telemetry} for e in experiments],
        "functions": merged_trace(traced, False).stats if traced else {},
        "worker_functions": (merged_trace(traced, True).stats
                             if traced else {}),
    }
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": len(experiments),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
