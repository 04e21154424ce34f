"""Core tick-engine perf floors: vectorized step and fast-forward.

Unlike the figure benches (which regenerate paper artifacts), this
bench guards the engine itself: the compiled-FlowPlan ``graph.step``
must beat the per-object reference path >= 3x on the canonical
100-reserve / 200-tap topology; the idle fast-forward must beat
tick-by-tick >= 10x wall-clock on a 1-simulated-hour idle-heavy
system; the pooled-netd closed form must macro-step a net-wait-heavy
hour >= 5x with bit-identical event timing; the coupled span solver
must macro-step a 3-deep-chained hour >= 5x with zero span refusals
and trajectories inside the documented tolerance; the segmented span
engine must macro-step a regime-switching hour (mid-span drain
clamps, debt zero-crossings) >= 14x with zero refusals and the
switches actually located; the cohort-stacked segment chain must
carry a 32-device switch-bound fleet >= 18x with zero demotions and
ulp-level parity against the scalar segmented path; the cohort-batched
50-device World fleet must beat tick-slicing >= 12x (noise-proof
floor; typically ~16-20x); the 1000-device
``fleet_1k`` run (>= 600 simulated seconds) must finish within its
wall ceiling at conservation < 1e-8; the randomized-phase
``fleet_1k_staggered`` run must stay under the frontier's unit-cost
ceiling with stacked cohort spans dominating scalar fallbacks; and the
fleet scaling curve's per-device-second cost must stay flat from 50
to 1000 devices; barrier checkpointing must add < 5% wall to the
healthy 50-device sharded run; and the shard sweep's daemon-sharded
runs must match the inline fleet (``run_bench`` asserts the digests
bit-identical).  This test only asserts: ``python benchmarks/run_bench.py``
is what writes ``BENCH_core.json``, so a test run leaves the tracked
file alone.
"""

from __future__ import annotations

import run_bench

#: Wall-clock ceiling for the 50-device, 10-simulated-minute fleet —
#: generous (measured ~1.5 s locally) because CI runners are shared;
#: the machine-independent gate is the speedup ratio below.
FLEET_WALL_LIMIT_S = 60.0

#: Wall-clock ceiling for the 1000-device, 600-simulated-second run
#: (measured ~15 s locally on one core; CI runners are shared).
FLEET_1K_WALL_LIMIT_S = 90.0

#: Per-device-second cost ceiling for the same run.  Best-of-3
#: measured ~42 us/device-second; the ceiling carries ~2.5x headroom
#: because shared runners jitter, but pins the unit cost against the
#: slow drift a coarse wall limit would never catch.
FLEET_1K_US_PER_DEVICE_S = 110.0

#: Ceiling for the randomized-phase (staggered) 1000-device point on
#: the event-time frontier: best-of-3 measured ~14.8 us/device-second,
#: vs ~31.6 when the per-device loop solved every span alone.  The
#: ceiling sits *below* that per-device cost — losing the cohort path
#: is a hard failure, not noise — with ~2x headroom over the
#: measurement for shared runners.
FLEET_1K_STAGGERED_US_PER_DEVICE_S = 30.0
FLEET_1K_STAGGERED_WALL_LIMIT_S = 45.0


def test_bench_micro_vectorized_step(benchmark):
    graph = run_bench.build_micro_graph()
    graph.step(run_bench.TICK_S)  # compile the plan outside the timer
    benchmark(graph.step, run_bench.TICK_S)
    assert graph.fallback_steps == 0


def test_bench_core_speedups(run_once):
    results = run_once(run_bench.collect)

    micro = results["micro"]
    assert micro["speedup"] >= 3.0, (
        f"vectorized graph.step only {micro['speedup']}x over reference")

    macro = results["macro"]
    assert macro["speedup"] >= 10.0, (
        f"idle fast-forward only {macro['speedup']}x over ticking")
    assert macro["fast_forwarded_ticks"] > 300_000
    assert abs(macro["conservation_error_j"]) < 1e-6

    netd = results["netd_macro"]
    assert netd["speedup"] >= 5.0, (
        f"pooled-netd fast-forward only {netd['speedup']}x over ticking")
    assert netd["events_identical"], (
        "pooled-netd fast-forward drifted from tick-by-tick event timing")
    assert netd["fast_forwarded_ticks"] > 300_000
    assert abs(netd["conservation_error_j"]) < 1e-6

    chain = results["chain_macro"]
    assert chain["speedup"] >= 5.0, (
        f"chained-topology fast-forward only {chain['speedup']}x over "
        f"ticking")
    assert chain["span_refusals"] == 0, (
        "the coupled span solver refused chained spans it must carry")
    assert chain["fast_forwarded_ticks"] > 300_000
    assert chain["worst_level_rel_err"] < 2e-3, (
        "chained span trajectories drifted past the documented tolerance")
    assert abs(chain["conservation_error_j"]) < 1e-6

    switching = results["switching_macro"]
    # 14x, not the ~22x measured: the certify-first fast path lifted
    # this from ~14x, and the floor trails the measurement by the same
    # noise margin the fleet floor uses.
    assert switching["speedup"] >= 14.0, (
        f"switching-topology fast-forward only {switching['speedup']}x "
        f"over ticking")
    assert switching["span_refusals"] == 0, (
        "the segmented span engine refused switching spans it must carry")
    assert switching["span_switches"] >= 2, (
        "the switching workload must actually cross regime switches")
    assert switching["span_segments"] > switching["span_switches"]
    assert switching["fast_forwarded_ticks"] > 300_000
    assert switching["worst_level_abs_err"] < 0.05, (
        "switching span trajectories drifted past the switch-instant "
        "quantization tolerance")
    assert abs(switching["conservation_error_j"]) < 1e-6
    # The wall split must actually be recorded: a switching-heavy
    # run spends measurable time in both halves of the segment loop.
    assert switching["span_locate_wall_s"] > 0.0
    assert switching["span_integrate_wall_s"] > 0.0

    batched = results["batched_switching"]
    assert batched["cohort_demotions"] == 0, (
        "the stacked segment chain demoted switch-bound devices the "
        "batched engine must carry")
    assert batched["span_refusals"] == 0
    # No device leaves a stacked call: the fleet's cohort ticks
    # vectorize (a clampable sole drain fed earlier in its segment is
    # clamped exactly, not refused) and its cohort spans stay stacked.
    assert batched["cohort_fallbacks"] == 0, (
        "devices of the switching fleet fell out of a stacked call")
    assert batched["cohort_spans"] > 0
    assert batched["span_segments"] > batched["cohort_spans"], (
        "switch-bound cohort spans must split into multiple segments")
    # 18x is the target class (netd/chain territory); the median of
    # three alternating pairs, measured 40-60x on a loaded 2-CPU host.
    assert batched["speedup_vs_tick"] >= 18.0, (
        f"cohort-stacked switching only {batched['speedup_vs_tick']}x "
        f"over tick-slicing")
    # Stacked matrix products reorder a handful of float additions
    # relative to the per-device solve; parity holds to ulp-scale
    # (measured exactly 0.0 on this fleet, bounded 1e-9 for slack).
    assert batched["worst_batched_vs_scalar_rel"] < 1e-9, (
        "batched segment chains drifted from the scalar segmented "
        "reference beyond ulp tolerance")
    assert batched["worst_conservation_error_j"] < 1e-8

    fleet = results["fleet"]
    assert fleet["devices"] >= 50
    assert fleet["fast_forward_wall_s"] < FLEET_WALL_LIMIT_S, (
        f"50-device fleet took {fleet['fast_forward_wall_s']}s "
        f"(limit {FLEET_WALL_LIMIT_S}s)")
    # 12x, not the ~16-20x typically measured: on a busy shared
    # runner the ~1.3 s fast-side wall is scheduler-noise dominated
    # and identical code measures anywhere in 13-20x; the floor
    # exists to catch structural regressions, not to re-measure the
    # run-to-run jitter.
    assert fleet["speedup_vs_tick"] >= 12.0, (
        f"cohort-batched fleet only {fleet['speedup_vs_tick']}x over "
        f"tick-slicing")
    assert fleet["cohort_fallbacks"] == 0, (
        "homogeneous poller fleet must stay fully cohort-batched")
    assert fleet["worst_conservation_error_j"] < 1e-6

    fleet_1k = results["fleet_1k"]
    assert fleet_1k["devices"] >= 1000
    assert fleet_1k["simulated_s"] >= 600.0
    assert fleet_1k["wall_s"] < FLEET_1K_WALL_LIMIT_S, (
        f"1000-device fleet took {fleet_1k['wall_s']}s "
        f"(limit {FLEET_1K_WALL_LIMIT_S}s)")
    assert fleet_1k["worst_conservation_error_j"] < 1e-8
    assert fleet_1k["radio_activations"] >= 1000
    # Explicit per-device-second ceiling, best-of-3 measured at
    # ~42 us on one shared core.  The wall limit above catches
    # catastrophic regressions; this pins the unit cost the ROADMAP
    # quotes (with ~2.5x headroom for runner noise).
    assert fleet_1k["us_per_device_second"] <= FLEET_1K_US_PER_DEVICE_S, (
        f"1000-device fleet costs {fleet_1k['us_per_device_second']} "
        f"us per device-second (ceiling {FLEET_1K_US_PER_DEVICE_S})")

    staggered = results["fleet_1k_staggered"]
    assert staggered["devices"] >= 1000
    assert staggered["simulated_s"] >= 600.0
    assert staggered["wall_s"] < FLEET_1K_STAGGERED_WALL_LIMIT_S, (
        f"staggered 1000-device fleet took {staggered['wall_s']}s "
        f"(limit {FLEET_1K_STAGGERED_WALL_LIMIT_S}s)")
    assert (staggered["us_per_device_second"]
            <= FLEET_1K_STAGGERED_US_PER_DEVICE_S), (
        f"staggered 1000-device fleet costs "
        f"{staggered['us_per_device_second']} us per device-second "
        f"(ceiling {FLEET_1K_STAGGERED_US_PER_DEVICE_S})")
    # The cohort path, not per-device fallback, must carry the run:
    # randomized phases still land whole (cohort_token, lam) groups
    # in each frontier bucket, and the poll-skip cache must fire.
    assert staggered["independent_rounds"] > 0
    assert staggered["independent_cohort_spans"] > 0
    assert (staggered["independent_cohort_spans"]
            > 10 * staggered["independent_scalar_spans"]), (
        "staggered fleet degraded to scalar spans — the frontier "
        "buckets are not forming cohorts")
    assert staggered["horizon_cache_hits"] > 0
    assert staggered["worst_conservation_error_j"] < 1e-8
    assert staggered["radio_activations"] >= 1000

    points = {p["devices"]: p
              for p in results["fleet_scaling"]["points"]}
    assert set(points) >= {50, 200, 1000}
    flatness = (points[1000]["us_per_device_second"]
                / points[50]["us_per_device_second"])
    assert flatness <= 2.5, (
        f"per-device-second cost grew {flatness:.2f}x from 50 to 1000 "
        f"devices — the world loop is not scaling sublinearly")
    for point in points.values():
        assert point["worst_conservation_error_j"] < 1e-8

    shards = results["fleet_shards"]
    assert {entry["shards"] for entry in shards["sweep"]} >= {0, 2, 4}
    for entry in shards["sweep"]:
        assert entry["worst_conservation_error_j"] < 1e-8
        # One shard-host daemon per shard (none inline).
        assert entry["hosts"] == entry["shards"]

    ckpt = results["checkpoint_overhead"]
    assert ckpt["barriers"] >= 10
    # <5% steady-state checkpoint cost on a healthy run: per-barrier
    # capture timed inline against the barrier chunk's own compute
    # (measured ~1%; paired end-to-end sharded walls drown the
    # quantity in pool-spawn jitter).  The program-running fleet must
    # also have settled into the cheap replay-recipe capture path.
    assert ckpt["capture_method"] == "replay"
    assert ckpt["overhead_frac"] <= 0.05, (
        f"barrier checkpoints cost {ckpt['overhead_frac']:.1%} of the "
        f"barrier compute (floor 5%)")
