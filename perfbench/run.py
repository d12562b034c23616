"""Run one workload of the pipeline benchmark and print its metrics.

    python3 perfbench/run.py --workload ingest-hot --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (which also
writes the spans to ``.perfbench/traces/``). Each invocation is its own
process, so peak memory, the process-global metrics registry and the
decode caches never carry over between workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Setups per run at least, so ``setup_s`` is a median of several.
MIN_SETUPS = 3
#: Setup ``k`` of the run with seed ``s`` draws the inputs of seed
#: ``s * SEED_STRIDE + k``, so a run averages over several input draws
#: instead of repeating one.
SEED_STRIDE = 1000
#: Shortest timed batch of cold builds behind one ``encode_s`` sample.
BUILD_FLOOR_S = 0.1
#: Fresh interpreters that time the imports.
IMPORT_PROBES = 5
#: Prints the seconds the imports took, scaled to the reference speed
#: measured right after them (see core.reference_loop).
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "elapsed = time.perf_counter() - t\n"
    "from core import speed_now\n"
    "print(elapsed * speed_now())\n"
)

TIME_UNITS = ("s", "ms", "us")

END_TO_END = (
    ("setup_s", "s"), ("encode_s", "s"),
    ("round_ms_p50", "ms"), ("round_ms_p90", "ms"),
    ("ingest_samples_per_s", "1/s"),
    ("refresh_ms_p50", "ms"), ("refresh_ms_p90", "ms"),
    ("query_ms_p50", "ms"), ("query_ms_p90", "ms"),
    ("store_bytes_per_context", "B"), ("peak_rss_mb", "MB"),
)

#: Per-layer metric -> (unit, source). Sources: ``span:NAME`` median
#: duration of the spans of that name, in the metric's unit (ms or s);
#: ``repair:NAME`` median and ``sum:NAME`` per-pass total of a
#: per-repair value; ``pass:NAME`` median over passes of a per-pass
#: value.
PER_LAYER = {
    "analysis.callgraph_s": ("s", "span:analysis.build_callgraph"),
    "analysis.delta_ms": ("ms", "span:analysis.delta"),
    "plan.build_s": ("s", "span:plan.build"),
    "plan.anchors": ("count", "pass:plan.anchors"),
    "plan.apply_delta_ms": ("ms", "span:plan.apply_delta"),
    "reencode.dirty_nodes": ("count", "repair:reencode.dirty_nodes"),
    "reencode.reuse_fraction": ("ratio", "repair:reencode.reuse_fraction"),
    "reencode.fell_back": ("count", "sum:reencode.fell_back"),
    "reencode.restarts": ("count", "sum:reencode.restarts"),
    "plan.promoted_anchors": ("count", "sum:plan.promoted_anchors"),
    "runtime.run_s": ("s", "pass:runtime.run_s"),
    "probe.overhead_pct": ("%", "pass:probe.overhead_pct"),
    "probe.ucp_detections": ("count", "pass:probe.ucp_detections"),
    "probe.hot_swap_ms": ("ms", "span:runtime.hot_swap"),
    "collector.samples": ("count", "pass:collector.samples"),
    "collector.close_ms": ("ms", "span:runtime.collector_close"),
    "service.submit_ms": ("ms", "span:service.submit_batch"),
    "service.batch.dedup_ratio": ("ratio", "pass:service.batch.dedup_ratio"),
    "service.batch_latency_us.p50": ("us", "pass:service.batch_latency_us.p50"),
    "service.batch_latency_us.p99": ("us", "pass:service.batch_latency_us.p99"),
    "service.queue_peak": ("count", "pass:service.queue_peak"),
    "engine.context_hit_rate": ("ratio", "pass:engine.context_hit_rate"),
    "engine.piece_hit_rate": ("ratio", "pass:engine.piece_hit_rate"),
    "service.decode_latency_us.p50": ("us", "pass:service.decode_latency_us.p50"),
    "service.decode_latency_us.p99": ("us", "pass:service.decode_latency_us.p99"),
    "service.flush_ms": ("ms", "span:service.flush"),
    "service.install_update_ms": ("ms", "span:service.install_update"),
    "store.bytes": ("B", "pass:store.bytes"),
    "store.contexts": ("count", "pass:store.contexts"),
    "service.dropped": ("count", "pass:service.dropped"),
    "service.dead_lettered": ("count", "pass:service.dead_lettered"),
    "service.epoch_mismatches": ("count", "pass:service.epoch_mismatches"),
    "query.flush_segments_ms": ("ms", "span:query.flush_segments"),
    "query.segment_bytes": ("B", "pass:query.segment_bytes"),
    "query.compact_ms": ("ms", "span:query.compact"),
    "query.segments_live": ("count", "pass:query.segments_live"),
    "query.refresh_ms": ("ms", "span:query.refresh"),
    "query.topk_ms": ("ms", "span:query.topk"),
    "query.rollup_ms": ("ms", "span:query.rollup"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as wl
    from core import LAYERS, REFERENCE_LOOP_S, Tracer, median, percentile, speed_now
    # One import is too noisy to report alone.
    import_s = median(import_probes())

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", "work")
    os.makedirs(workdir, exist_ok=True)

    m = wl.Measures(Tracer(bool(args.trace)))
    seed_fingerprints = {}

    def one_setup(measure: bool) -> None:
        p = wl.Pass(workdir)
        try:
            with m.tracer.span("bench.setup"):
                t0 = time.perf_counter()
                inputs = workload.inputs(args.seed * SEED_STRIDE + len(m.setup_s), m)
                gen_s = time.perf_counter() - t0
            if not seed_fingerprints:
                seed_fingerprints.update(workload.fingerprints(inputs))
            encoder, graph = workload.encoder(), inputs["graph"]

            def cold_build():
                # A build under BUILD_FLOOR_S is repeated until the batch
                # lasts that long; the sample is the batch mean. A frozen
                # heap keeps the collector from rescanning whatever the
                # benchmark holds, so a build pays for its own garbage
                # only. Between rounds the heap is already frozen (see
                # below) and stays so: unfreezing there would thaw the
                # pass's inputs too.
                gc.collect()
                outermost = gc.get_freeze_count() == 0
                if outermost:
                    gc.freeze()
                try:
                    builds, t0 = 0, time.perf_counter()
                    while True:
                        with m.tracer.span("plan.build"):
                            plan = encoder.plan_from_graph(graph)
                        builds += 1
                        elapsed = time.perf_counter() - t0
                        if elapsed >= BUILD_FLOOR_S:
                            break
                finally:
                    if outermost:
                        gc.unfreeze()
                m.encode_s.append(elapsed / builds * speed_now())
                return plan

            # Builds also run between rounds (``m.rebuild``), so encode_s
            # samples the whole run rather than one moment of it.
            m.rebuild = cold_build
            plan = cold_build()
            m.note("plan.anchors", len(plan.encoding.anchors))
            with m.tracer.span("bench.setup"):
                t0 = time.perf_counter()
                state = workload.start(inputs, plan, p, m)
                m.setup_s.append((gen_s + time.perf_counter() - t0) * speed_now())
            if measure:
                # The generated inputs stay out of the collector's scans
                # while the program runs.
                gc.collect()
                gc.freeze()
                try:
                    workload.run(inputs, state, m)
                finally:
                    gc.unfreeze()
                wl.service_layer_metrics(m, p)
        finally:
            p.close()

    # The pass count follows from --seconds and the workload's measured
    # pass length, not from the clock, so every run of a workload does
    # the same work and a faster program simply finishes sooner.
    passes = max(
        -(-wl.MIN_ROUNDS // workload.rounds), round(args.seconds / workload.pass_seconds)
    )
    start = time.perf_counter()
    for _ in range(passes):
        one_setup(measure=True)
    while len(m.setup_s) < MIN_SETUPS:
        one_setup(measure=False)
    wall = time.perf_counter() - start
    problem = check_fingerprints(wl, workload, seed_fingerprints)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 3

    failed_ratio = m.failed / m.attempted if m.attempted else 0.0
    # Every timing reads as if the host had run at the reference speed
    # (see core.reference_loop). Set-up and build samples were scaled as
    # they were taken; each round's timings are scaled by the loop run
    # right after that round, since the host's speed drifts within a run.
    speeds = [REFERENCE_LOOP_S / loop_s for loop_s in m.reference_s]
    round_ms, refresh_ms, query_ms = (
        [value * speed for value, speed in zip(values, speeds)]
        for values in (m.round_ms, m.refresh_ms, m.query_ms)
    )
    if args.trace:
        metrics = layer_metrics(m, median, passes)
        selfs = m.tracer.self_times()
        covered = 0.0
        for layer in LAYERS:
            metrics[f"self_s.{layer}"] = (selfs.get(layer, 0.0), "s")
            covered += selfs.get(layer, 0.0)
        # Everything the layers do not account for is the benchmark's own.
        metrics["self_s.bench"] = (wall - covered, "s")
        metrics["trace.wall_s"] = (wall, "s")
        # Per-layer timings are many and spread over the run: they are
        # scaled by the run's median speed.
        speed = median(speeds)
        metrics = {name: (at_reference_speed(value, unit, speed), unit)
                   for name, (value, unit) in metrics.items()}
        metrics.update({
            "trace.spans": (len(m.tracer.spans), "count"),
            "bench.passes": (passes, "count"),
            "bench.rounds": (len(round_ms), "count"),
            "bench.round_ms_p50": (percentile(round_ms, 0.5), "ms"),
            "bench.reference_loop_ms": (median(m.reference_s) * 1e3, "ms"),
            "bench.wrong_answers": (m.wrong, "count"),
            "bench.failed_ratio": (failed_ratio, "ratio"),
        })
        write_trace(args, m, metrics, seed_fingerprints)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": import_s + median(m.setup_s),
            "encode_s": median(m.encode_s),
            "round_ms_p50": percentile(round_ms, 0.5),
            "round_ms_p90": percentile(round_ms, 0.9),
            "ingest_samples_per_s": m.samples / (sum(round_ms) / 1e3),
            "refresh_ms_p50": percentile(refresh_ms, 0.5),
            "refresh_ms_p90": percentile(refresh_ms, 0.9),
            "query_ms_p50": percentile(query_ms, 0.5),
            "query_ms_p90": percentile(query_ms, 0.9),
            "store_bytes_per_context": median(m.store_bpc),
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    result = {
        "correct": m.wrong == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def at_reference_speed(value: float, unit: str, speed: float) -> float:
    """``value`` as measured on a host whose reference loop ran at
    ``speed`` times the reference speed, rescaled to that speed."""
    if unit in TIME_UNITS:
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def import_probes() -> list:
    """Seconds to import the program and the benchmark, at the reference
    speed, once in each of IMPORT_PROBES fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src"), HERE],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return times


def layer_metrics(m, median, passes: int) -> dict:
    durations = {}
    for name, start, end, _parent, _round in m.tracer.spans:
        durations.setdefault(name, []).append(end - start)
    sources = {"span": durations, "repair": m.repairs, "sum": m.repairs, "pass": m.layer}
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, key = source.split(":", 1)
        values = sources[kind].get(key)
        # A layer the workload bypasses did no work: 0.
        if not values:
            value = 0.0
        elif kind == "sum":
            value = sum(values) / passes
        elif kind == "span":
            value = median(values) * (1e3 if unit == "ms" else 1.0)
        else:
            value = median(values)
        out[name] = (value, unit)
    return out


def check_fingerprints(wl, workload, seed_fingerprints, pinned=None):
    """None, or why the generated inputs no longer match the pinned
    fingerprints (a generator or ``repro.workloads`` changed). Seeded
    inputs are regenerated for the canary seed; unseeded ones are the
    run's own."""
    if pinned is None:
        with open(os.path.join(HERE, "fingerprints.json")) as fh:
            pinned = json.load(fh)[workload.name]
    if workload.seeded:
        canary = workload.inputs(wl.CANARY_SEED, wl.Measures(wl.Tracer(False)))
        got = workload.fingerprints(canary)
    else:
        got = seed_fingerprints
    if got != pinned:
        return (f"{workload.name}: inputs for seed {wl.CANARY_SEED} changed "
                f"(fingerprints {got}, pinned {pinned}); the workload is no "
                f"longer the one the baseline measured")
    return None


def write_trace(args, m, metrics, fingerprints) -> None:
    out_dir = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "fingerprints": fingerprints,
            "metrics": {k: v for k, (v, _u) in metrics.items()},
            "spans": m.tracer.to_json(),
        }, fh)


if __name__ == "__main__":
    sys.exit(main())
