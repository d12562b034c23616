"""The four workloads of the pipeline benchmark.

Each workload is one closed loop driven from a single producer thread
against a ``ContextService(workers=2)`` with a segment store. A *pass*
is: set up (generate inputs, start the service), build the plan cold,
then run a fixed number of rounds; every round ends with the same
refresh (``flush`` + ``flush_segments``) and dashboard read
(``query()`` + ``top_contexts(10)`` + ``function_totals()``), and every
16th round compacts the segment store. What differs is the round's
first step, which decides the layer that dominates:

* ``encode-churn`` — one class load repaired into the live probe and the
  service, then a few walked contexts ingested (analysis + plan);
* ``ingest-hot`` — fixed-size batches of Zipf-popular contexts (service
  batching and the query read path; the decode cache absorbs decode);
* ``ingest-cold`` — batches of contexts never seen before in the pass
  (decode, store growth, segment writes);
* ``profile-app`` — SPECjvm-modelled operations under
  ``DeltaPathProbe(cpt=True)`` with a collector feeding the service
  (runtime).

Answers are checked outside the timed blocks, against references built
without the program's decoders: generated paths, walked paths, or a
stack-walk replay of the same seed.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from collections import Counter
from typing import Dict, List, Tuple

from repro import (
    ContextCollector,
    DeltaPathProbe,
    Encoder,
    NullProbe,
    PlanSwapError,
    SampleBatch,
    ServiceConfig,
)
from repro.analysis.callgraph_builder import build_callgraph
from repro.baselines.stackwalk import StackWalkProbe
from repro.core.widths import Width
from repro.service import DecodeEngine
from repro.lang.serialize import program_to_dict
from repro.workloads.specjvm import build_benchmark

import gen
from core import (
    Tally,
    Tracer,
    clock,
    conservation_errors,
    dashboard,
    dashboard_errors,
    reference_loop,
    refresh,
    snapshots_for,
    walk_snapshot,
)

#: Rounds a run makes at least, so a p90 has ten samples beyond it.
MIN_ROUNDS = 100
#: Every COMPACT_EVERY-th round merges the segment store.
COMPACT_EVERY = 16
#: Every ENCODE_EVERY-th round is followed by one more cold plan build
#: (an ``encode_s`` sample, outside the round's time).
ENCODE_EVERY = 20
#: Contexts per ingest pass whose call sites are checked after the rounds.
DECODE_CHECKS = 2000
#: The canary seed whose input fingerprints are pinned in
#: ``fingerprints.json``.
CANARY_SEED = 0


class Measures:
    """Everything one run measures, across its passes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.setup_s: List[float] = []
        self.encode_s: List[float] = []
        self.round_ms: List[float] = []
        #: Seconds of the reference loop run after each round.
        self.reference_s: List[float] = []
        self.refresh_ms: List[float] = []
        self.query_ms: List[float] = []
        self.samples = 0  # aggregated
        self.store_bpc: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        #: Per-pass values of per-layer counters and totals.
        self.layer: Dict[str, List[float]] = {}
        #: Per-repair values: what each repair re-encoded.
        self.repairs: Dict[str, List[float]] = {}
        #: Times one cold build of the pass's workload graph.
        self.rebuild = None

    def note(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)


class Pass:
    """One pass's live objects."""

    def __init__(self, workdir: str):
        self.dir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
        self.service = None

    def start_service(self, plan):
        self.service = Encoder().service(
            plan, ServiceConfig(workers=2, segment_dir=os.path.join(self.dir, "segments"))
        ).start()
        return self.service

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------------
# The round tail every workload shares
# ----------------------------------------------------------------------
def finish_round(m: Measures, service, index: int, rounds: int, tally: Tally) -> float:
    """Refresh, maybe compact, read the dashboard, check the answers.
    Returns the timed milliseconds (the check is not timed)."""
    t0 = clock()
    with m.tracer.span("bench.refresh"):
        refresh(service, m.tracer.span)
    t1 = clock()
    if (index + 1) % COMPACT_EVERY == 0:
        with m.tracer.span("query.compact"):
            service.compact_segments()
    t2 = clock()
    with m.tracer.span("bench.dashboard"):
        top, totals = dashboard(service, m.tracer.span)
    t3 = clock()
    m.refresh_ms.append((t1 - t0) * 1e3)
    m.query_ms.append((t3 - t2) * 1e3)
    with m.tracer.span("bench.check"):
        m.wrong += dashboard_errors(top, totals, tally)
    with m.tracer.span("bench.reference"):
        m.reference_s.append(reference_loop())
    if (index + 1) % ENCODE_EVERY == 0 and index + 1 < rounds:
        m.rebuild()
    return (t3 - t0) * 1e3


def note_repair(m: Measures, update) -> None:
    """What one incremental repair re-encoded, as per-repair samples."""
    result = update.reencode
    for name, value in (
        ("reencode.dirty_nodes", len(result.dirty_nodes)),
        ("reencode.reuse_fraction", result.reuse_fraction),
        ("reencode.fell_back", int(result.fell_back)),
        ("reencode.restarts", result.restarts),
        ("plan.promoted_anchors", len(update.promoted_anchors)),
    ):
        m.repairs.setdefault(name, []).append(value)


def edge_errors(decoder, paths, observed) -> int:
    """Snapshots ``(leaf, snapshot)`` that do not decode to the edges
    (caller, call site, callee) of the path they were taken along: a
    wrong call site is an error even where the frames agree."""
    wrong = 0
    for path, (leaf, snap) in zip(paths, observed):
        edges = tuple((e.caller, str(e.label), e.callee) for e in decoder.decode(leaf, *snap).edges)
        wrong += edges != tuple((caller, str(label), callee) for caller, label, callee in path)
    return wrong


def walk_errors(plan, paths, observed, entry: str, tally: Tally) -> int:
    """Walked snapshots that do not decode, through the repaired plan,
    to the walk's own edges; each walk's frames join the reference
    tally."""
    for path in paths:
        tally.add(gen.node_path(path, entry))
    return edge_errors(plan.decoder(), paths, observed)


def service_layer_metrics(m: Measures, p: Pass) -> None:
    """Per-pass counters the service and segment store already export."""
    service = p.service
    stats = service.stats()
    reg = stats["registry"]
    caches = stats["caches"]

    def hit_rate(cache):
        total = cache["hits"] + cache["misses"]
        return cache["hits"] / total if total else 0.0

    samples = stats["batch.samples"]
    m.note("service.batch.dedup_ratio", 1 - stats["batch.groups"] / samples if samples else 0.0)
    m.note("service.batch_latency_us.p50", reg.get("service.batch_latency_us.p50_us", 0.0))
    m.note("service.batch_latency_us.p99", reg.get("service.batch_latency_us.p99_us", 0.0))
    m.note("service.decode_latency_us.p50", reg.get("service.decode_latency_us.p50_us", 0.0))
    m.note("service.decode_latency_us.p99", reg.get("service.decode_latency_us.p99_us", 0.0))
    m.note("service.queue_peak", stats["queue_peak"])
    m.note("engine.context_hit_rate", hit_rate(caches["contexts"]))
    m.note("engine.piece_hit_rate", hit_rate(caches["pieces"]))
    m.note("store.bytes", stats["store"]["bytes"])
    m.note("store.contexts", stats["store"]["contexts"])
    m.note("service.dropped", stats["dropped"])
    m.note("service.dead_lettered", stats["dead_lettered"])
    m.note("service.epoch_mismatches", stats["epoch_mismatches"])
    m.note("query.segments_live", stats["segments"]["segments"])
    seg_dir = stats["segments"]["directory"]
    m.note("query.segment_bytes", sum(
        os.path.getsize(os.path.join(seg_dir, f)) for f in os.listdir(seg_dir)
        if f.endswith(".dpqs")
    ))
    contexts = stats["store"]["contexts"]
    if contexts:
        m.store_bpc.append(stats["store"]["bytes"] / contexts)
    failed, unbalanced = conservation_errors(service)
    m.attempted += stats["submitted"]
    m.failed += failed
    m.wrong += unbalanced
    m.samples += stats["aggregated"]


# ----------------------------------------------------------------------
# encode-churn
# ----------------------------------------------------------------------
class EncodeChurn:
    """A hub-and-module call graph under a 16-bit width (dozens of
    anchors), built cold, then ``rounds`` class loads repaired one by one
    into a live probe and a running service."""

    name = "encode-churn"
    seeded = True
    #: Rounds per pass, and the measured seconds of one pass on a 2-core
    #: host: a run makes ``--seconds`` / ``pass_seconds`` passes, and at
    #: least MIN_ROUNDS rounds.
    rounds = 60
    pass_seconds = 10.0
    spec = gen.ChurnSpec()
    encoding_width = Width(16)
    walks_per_round = 16

    def inputs(self, seed: int, m: Measures):
        graph, modules = gen.hub_module_graph(self.spec, seed)
        loads = gen.class_load_stream(graph, modules, self.rounds, seed)
        return {"graph": graph, "loads": loads, "seed": seed}

    def fingerprints(self, inputs) -> Dict[str, str]:
        return {
            "graph_edges": gen.fingerprint(gen.edge_list(inputs["graph"])),
            "class_loads": gen.fingerprint([load.to_json() for load in inputs["loads"]]),
        }

    def encoder(self) -> Encoder:
        return Encoder(width=self.encoding_width)

    def start(self, inputs, plan, p: Pass, m: Measures):
        service = p.start_service(plan)
        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution(plan.graph.entry)
        probe.enter_function(plan.graph.entry)
        return {"probe": probe, "plan": plan, "service": service}

    def run(self, inputs, state, m: Measures) -> None:
        enc = self.encoder()
        probe, plan, service = state["probe"], state["plan"], state["service"]
        entry = plan.graph.entry
        rng = random.Random(inputs["seed"] ^ 0x3A1C)
        tally = Tally()
        for index, load in enumerate(inputs["loads"]):
            m.tracer.round_id = index
            with m.tracer.span("bench.round"):
                delta = load.delta()
                m.attempted += 1
                t0 = clock()
                with m.tracer.span("plan.apply_delta"):
                    update = enc.apply_delta(plan, delta)
                try:
                    with m.tracer.span("runtime.hot_swap"):
                        probe.hot_swap(update, entry)
                except PlanSwapError:
                    m.failed += 1
                    update = None
                if update is not None:
                    with m.tracer.span("service.install_update"):
                        service.install_update(update)
                    plan = update.plan
                    note_repair(m, update)
                t1 = clock()
                with m.tracer.span("bench.generate"):
                    paths = [gen.churn_walk(plan.graph, self.spec, rng) for _ in range(self.walks_per_round)]
                t2 = clock()
                batch = SampleBatch()
                observed = []
                with m.tracer.span("runtime.walk"):
                    for path in paths:
                        leaf, snap = walk_snapshot(probe, path)
                        observed.append((leaf, snap))
                        batch.append(leaf, snap, epoch=service.epoch)
                with m.tracer.span("service.submit_batch"):
                    service.submit_batch(batch)
                t3 = clock()
                with m.tracer.span("bench.check"):
                    m.wrong += walk_errors(plan, paths, observed, entry, tally)
                tail = finish_round(m, service, index, self.rounds, tally)
                m.round_ms.append((t1 - t0) * 1e3 + (t3 - t2) * 1e3 + tail)


# ----------------------------------------------------------------------
# ingest-hot / ingest-cold
# ----------------------------------------------------------------------
class Ingest:
    """Fixed-size batches over a lane chain, submitted from one
    producer, ``batches`` batches of ``batch`` samples per round. Each
    round's batches are packed just before it, outside its time, so the
    benchmark never holds more than one round of them."""

    depth, lanes, min_depth = 40, 2, 20
    seeded = True
    encoding_width = Width(16)

    rounds = 100

    def __init__(self, name: str, contexts: int, batches: int, batch: int, zipf: bool,
                 pass_seconds: float):
        self.name = name
        self.pass_seconds = pass_seconds
        self.contexts = contexts
        self.batches = batches
        self.batch = batch
        self.zipf = zipf

    def inputs(self, seed: int, m: Measures):
        graph = gen.lane_chain(self.depth, self.lanes)
        paths = gen.lane_paths(self.depth, self.lanes, self.contexts, self.min_depth, seed)
        per_round = self.batches * self.batch
        if self.zipf:
            stream = gen.zipf_stream(self.contexts, self.rounds * per_round, 1.2, seed)
        else:
            stream = gen.permutation_stream(self.contexts, seed)[:self.rounds * per_round]
        return {"graph": graph, "paths": paths, "stream": stream, "seed": seed}

    def fingerprints(self, inputs) -> Dict[str, str]:
        return {
            "graph_edges": gen.fingerprint(gen.edge_list(inputs["graph"])),
            "contexts": gen.fingerprint([[s[1] for s in p] for p in inputs["paths"]]),
            "stream": gen.fingerprint(inputs["stream"]),
        }

    def encoder(self) -> Encoder:
        return Encoder(width=self.encoding_width)

    def start(self, inputs, plan, p: Pass, m: Measures):
        observations = snapshots_for(DeltaPathProbe(plan, cpt=True), plan.graph.entry, inputs["paths"])
        expected = [gen.node_path(path) for path in inputs["paths"]]
        service = p.start_service(plan)
        return {"observations": observations, "expected": expected, "service": service,
                "plan": plan}

    def pack(self, chunk, observations) -> List[SampleBatch]:
        batches = []
        for b in range(self.batches):
            batch = SampleBatch()
            for ctx in chunk[b * self.batch:(b + 1) * self.batch]:
                leaf, snap = observations[ctx]
                batch.append(leaf, snap, epoch=0)
            batches.append(batch)
        return batches

    def run(self, inputs, state, m: Measures) -> None:
        service, expected = state["service"], state["expected"]
        stream, per_round = inputs["stream"], self.batches * self.batch
        tally = Tally()
        for index in range(self.rounds):
            m.tracer.round_id = index
            with m.tracer.span("bench.round"):
                chunk = stream[index * per_round:(index + 1) * per_round]
                with m.tracer.span("bench.pack"):
                    batches = self.pack(chunk, state["observations"])
                t0 = clock()
                for batch in batches:
                    with m.tracer.span("service.submit_batch"):
                        service.submit_batch(batch)
                t1 = clock()
                with m.tracer.span("bench.check"):
                    for ctx, count in Counter(chunk).items():
                        tally.add(expected[ctx], count)
                tail = finish_round(m, service, index, self.rounds, tally)
                m.round_ms.append((t1 - t0) * 1e3 + tail)
        # Contexts that differ only in call sites share a frame list, so
        # the dashboards cannot tell them apart: the call sites are
        # checked here, through the service's decode engine (pieces
        # interned across contexts), on an evenly spread sample.
        paths = inputs["paths"]
        step = -(-len(paths) // DECODE_CHECKS)
        with m.tracer.span("bench.check"):
            m.wrong += edge_errors(
                DecodeEngine(state["plan"]), paths[::step], state["observations"][::step]
            )


# ----------------------------------------------------------------------
# profile-app
# ----------------------------------------------------------------------
GAP = "<?>"


def pieces_match(decoded: List[str], truth: Tuple[str, ...]) -> bool:
    """A gapped decode is right when its pieces occur in the true stack
    in order: the first as a prefix, the last as a suffix, the rest
    anywhere between (the gaps stand for frames the plan did not know)."""
    pieces, current = [], []
    for name in decoded:
        if name == GAP:
            pieces.append(current)
            current = []
        else:
            current.append(name)
    pieces.append(current)
    truth = list(truth)
    if truth[:len(pieces[0])] != pieces[0]:
        return False
    if pieces[-1] and truth[len(truth) - len(pieces[-1]):] != pieces[-1]:
        return False
    pos = len(pieces[0])
    end = len(truth) - len(pieces[-1])
    for piece in pieces[1:-1]:
        while pos <= end - len(piece) and truth[pos:pos + len(piece)] != piece:
            pos += 1
        if pos > end - len(piece):
            return False
        pos += len(piece)
    return pos <= end


def observation_errors(seen, truth, tally: Tally) -> int:
    """Collected observations ``(node, snapshot, plan)`` that disagree
    with the stack-walk replay's frames for the same entries: exactly,
    or piece by piece across UCP gaps. Frames the observation's plan
    does not know (a loaded class before its repair) are dropped from
    the replay first: DeltaPath cannot see them, and a benign UCP skips
    them without a gap. A count mismatch is one error. Each decoded
    context joins the reference tally."""
    wrong = int(len(seen) != len(truth))
    decoders = {}
    for (node, snap, plan), frames in zip(seen, truth):
        frames = tuple(f for f in frames if f in plan.graph)
        decoder = decoders.get(id(plan))
        if decoder is None:
            decoder = decoders[id(plan)] = plan.decoder()
        decoded = decoder.decode(node, *snap).nodes(GAP)
        ok = pieces_match(decoded, frames) if GAP in decoded else tuple(decoded) == frames
        wrong += int(not ok)
        tally.add(tuple(decoded))
    return wrong


class _Record:
    """Collector sink that keeps each observation for the answer check
    and forwards it to the service's batch sink."""

    def __init__(self, sink):
        self.sink = sink
        self.flush = sink.flush
        self.seen: List[tuple] = []

    def __call__(self, node, snapshot, probe):
        self.seen.append((node, snapshot, probe.plan))
        self.sink(node, snapshot, probe)


class ProfileApp:
    """SPECjvm-modelled ``sunflow`` (the suite's anchor-heavy program)
    run ``ops`` operations per round under ``DeltaPathProbe(cpt=True)``
    with the seed driving the interpreter; a collector samples 10% of
    the application methods into the service's batch sink. The plugin
    classes load mid-run and are repaired in at the next safe point
    between operations."""

    name = "profile-app"
    rounds = 100
    pass_seconds = 20.0
    #: The fingerprinted inputs (program, sampled methods) do not depend
    #: on the seed.
    seeded = False
    program_name = "sunflow"
    ops = 3
    #: The sampled methods: every tenth application method by name. The
    #: choice is not seeded: which methods are sampled decides how many
    #: distinct contexts reach the service (300 to 2000 per pass across
    #: seeded choices), which would swamp every service metric; the seed
    #: drives the execution instead.
    every, offset = 10, 7

    def inputs(self, seed: int, m: Measures):
        bench = build_benchmark(self.program_name)
        with m.tracer.span("analysis.build_callgraph"):
            graph = build_callgraph(bench.program)
        app = sorted(n for n in graph.nodes if not graph.node_attrs(n).get("library", False))
        interest = app[self.offset::self.every]
        return {"bench": bench, "graph": graph, "interest": interest, "seed": seed}

    def fingerprints(self, inputs) -> Dict[str, str]:
        return {
            "program": gen.fingerprint(program_to_dict(inputs["bench"].program)),
            "interest": gen.fingerprint(inputs["interest"]),
        }

    def encoder(self) -> Encoder:
        return Encoder()

    def start(self, inputs, plan, p: Pass, m: Measures):
        bench, seed = inputs["bench"], inputs["seed"]
        interest = set(inputs["interest"])
        service = p.start_service(plan)
        probe = DeltaPathProbe(plan, cpt=True)
        record = _Record(service.batch_sink())
        collector = ContextCollector(interest=interest, collect_events=False, sink=record)
        truth: List[tuple] = []
        replay_collector = ContextCollector(
            interest=interest, collect_events=False,
            sink=lambda node, snapshot, probe: truth.append(snapshot),
        )
        return {
            "service": service, "probe": probe, "plan": plan,
            "collector": collector, "record": record, "truth": truth,
            "interp": bench.make_interpreter(probe=probe, seed=seed, collector=collector),
            "replay": bench.make_interpreter(
                probe=StackWalkProbe(), seed=seed, collector=replay_collector
            ),
        }

    def run(self, inputs, state, m: Measures) -> None:
        bench = inputs["bench"]
        enc = self.encoder()
        service, probe, plan = state["service"], state["probe"], state["plan"]
        interp, replay, record, truth = state["interp"], state["replay"], state["record"], state["truth"]
        entry = str(bench.program.entry)
        dynamic = {k.name for k in bench.program.classes if k.dynamic}
        repaired: set = set()
        tally = Tally()
        run_s = 0.0
        for index in range(self.rounds):
            m.tracer.round_id = index
            with m.tracer.span("bench.round"):
                t0 = clock()
                with m.tracer.span("runtime.run"):
                    interp.run(operations=self.ops)
                t1 = clock()
                run_s += t1 - t0
                # The repair runs at the safe point between operations and
                # is timed per layer only: whether both plugins load in
                # one round or two is up to the seed, and one delta scan
                # costs as much as dozens of rounds.
                loaded = dynamic.intersection(interp.loaded_classes) - repaired
                if loaded:
                    repaired |= loaded
                    m.attempted += 1
                    with m.tracer.span("analysis.delta"):
                        delta = enc.delta_for_loaded_classes(bench.program, plan, interp.loaded_classes)
                    if not delta.is_empty:
                        with m.tracer.span("plan.apply_delta"):
                            update = enc.apply_delta(plan, delta)
                        try:
                            with m.tracer.span("runtime.hot_swap"):
                                probe.hot_swap(update, entry)
                            with m.tracer.span("service.install_update"):
                                service.install_update(update)
                            plan = update.plan
                            note_repair(m, update)
                        except PlanSwapError:
                            m.failed += 1
                t2 = clock()
                with m.tracer.span("runtime.collector_close"):
                    state["collector"].close()
                t3 = clock()
                with m.tracer.span("bench.check"):
                    replay.run(operations=self.ops)
                    m.wrong += observation_errors(record.seen, truth, tally)
                    # Checked observations are dropped, so the benchmark's
                    # memory does not grow with the pass.
                    record.seen.clear()
                    truth.clear()
                tail = finish_round(m, service, index, self.rounds, tally)
                m.round_ms.append((t1 - t0) * 1e3 + (t3 - t2) * 1e3 + tail)
        m.note("runtime.run_s", run_s)
        m.note("probe.ucp_detections", probe.ucp_detections)
        m.note("collector.samples", state["collector"].total)
        if m.tracer.enabled:
            native = bench.make_interpreter(probe=NullProbe(), seed=inputs["seed"])
            with m.tracer.span("bench.native"):
                t0 = clock()
                native.run(operations=self.rounds * self.ops)
                native_s = clock() - t0
            m.note("probe.overhead_pct", (run_s / native_s - 1) * 100)


WORKLOADS = {
    w.name: w
    for w in (
        EncodeChurn(),
        Ingest("ingest-hot", contexts=400, batches=4, batch=512, zipf=True, pass_seconds=6.0),
        Ingest("ingest-cold", contexts=20000, batches=1, batch=200, zipf=False,
               pass_seconds=10.0),
        ProfileApp(),
    )
}
