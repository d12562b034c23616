"""The benchmark's own tests: each answer check passes on the true
reference and fires on a deliberately corrupted one, and the input
generators are pure functions of the seed.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from core import (  # noqa: E402
    Tally,
    Tracer,
    conservation_errors,
    dashboard,
    dashboard_errors,
    percentile,
    refresh,
    snapshots_for,
    walk_snapshot,
)
from repro import (  # noqa: E402
    ContextCollector,
    DeltaPathProbe,
    Encoder,
    SampleBatch,
    ServiceConfig,
)
from repro.baselines.stackwalk import StackWalkProbe  # noqa: E402
from repro.core.widths import Width  # noqa: E402
from repro.service import DecodeEngine  # noqa: E402
from repro.runtime.interpreter import Interpreter  # noqa: E402
from repro.workloads.paperprograms import figure6_program  # noqa: E402


def untimed(_name):
    return contextlib.nullcontext()


@pytest.fixture
def lane_service(tmp_path):
    """A service fed 30 lane-chain contexts, 1-3 samples each, with the
    reference tally built from the generated paths."""
    paths = gen.lane_paths(12, 2, 30, 6, seed=3)
    plan = Encoder(width=Width(8)).plan_from_graph(gen.lane_chain(12, 2))
    observations = snapshots_for(DeltaPathProbe(plan, cpt=True), "main", paths)
    service = Encoder().service(
        plan, ServiceConfig(workers=2, segment_dir=str(tmp_path))
    ).start()
    tally, batch = Tally(), SampleBatch()
    for index, (leaf, snap) in enumerate(observations):
        for _ in range(index % 3 + 1):
            batch.append(leaf, snap, epoch=0)
            tally.add(gen.node_path(paths[index]))
    service.submit_batch(batch)
    refresh(service, untimed)
    yield service, tally
    service.stop()


def test_dashboard_check_passes_on_the_true_reference(lane_service):
    service, tally = lane_service
    top, totals = dashboard(service, untimed)
    assert dashboard_errors(top, totals, tally) == 0


def test_dashboard_check_fires_on_a_corrupted_count(lane_service):
    service, tally = lane_service
    hottest = tally.top(1)[0][1]
    tally.add(hottest)  # one sample the service never received
    top, totals = dashboard(service, untimed)
    assert dashboard_errors(top, totals, tally) == 2


def test_dashboard_check_fires_on_a_corrupted_rollup(lane_service):
    service, tally = lane_service
    tally.totals["f3"] += 1
    top, totals = dashboard(service, untimed)
    assert dashboard_errors(top, totals, tally) == 1


def test_conservation_check_fires_on_lost_samples(lane_service):
    service, _tally = lane_service
    assert conservation_errors(service) == (0, 0)

    class Leaky:
        def accounting(self):
            acct = service.accounting()
            acct["aggregated"] -= 1  # one sample vanished without a bucket
            return acct

    assert conservation_errors(Leaky()) == (1, 1)


def test_edge_check_fires_on_a_wrong_call_site():
    paths = gen.lane_paths(12, 2, 30, 6, seed=3)
    plan = Encoder(width=Width(8)).plan_from_graph(gen.lane_chain(12, 2))
    observed = snapshots_for(DeltaPathProbe(plan, cpt=True), "main", paths)
    assert wl.edge_errors(DecodeEngine(plan), paths, observed) == 0

    # The other lane at the last hop: the same frames, another site.
    corrupted = list(paths)
    caller, label, callee = corrupted[0][-1]
    other = label[:-1] + ("1" if label.endswith("0") else "0")
    corrupted[0] = corrupted[0][:-1] + ((caller, other, callee),)
    assert gen.node_path(corrupted[0]) == gen.node_path(paths[0])
    assert wl.edge_errors(DecodeEngine(plan), corrupted, observed) == 1


def test_walk_check_fires_on_a_corrupted_walk():
    spec = gen.ChurnSpec(hubs=6)
    graph, modules = gen.hub_module_graph(spec, seed=5)
    plan = Encoder(width=Width(16)).plan_from_graph(graph)
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution("main")
    probe.enter_function("main")
    load = gen.class_load_stream(graph, modules, 1, seed=5)[0]
    update = plan.apply_delta(load.delta())
    probe.hot_swap(update, "main")
    rng = random.Random(1)
    paths = [gen.churn_walk(update.plan.graph, spec, rng) for _ in range(20)]
    observed = [walk_snapshot(probe, path) for path in paths]
    assert wl.walk_errors(update.plan, paths, observed, "main", Tally()) == 0

    corrupted = list(paths)
    caller, label, callee = corrupted[0][-1]
    other = next(n for n in graph.nodes if n not in (callee, "main"))
    corrupted[0] = corrupted[0][:-1] + ((caller, label, other),)
    assert wl.walk_errors(update.plan, corrupted, observed, "main", Tally()) == 1

    # Another of the parallel backbone sites: the same frames, so only
    # the call-site comparison can tell.
    relabelled = list(paths)
    caller, label, callee = relabelled[1][0]
    other_lane = f"lane{(int(label[len('lane'):]) + 1) % spec.lanes}"
    relabelled[1] = ((caller, other_lane, callee),) + relabelled[1][1:]
    assert gen.node_path(relabelled[1]) == gen.node_path(paths[1])
    assert wl.walk_errors(update.plan, relabelled, observed, "main", Tally()) == 1


def _figure6_observations():
    """Every entry of the Figure 6 program (a plugin loads and causes
    UCP gaps) under DeltaPath, plus the stack-walk replay's frames."""
    program = figure6_program()
    plan = Encoder().plan(program)
    known = set(plan.graph.nodes)
    for seed in range(40):
        seen, truth = [], []
        collector = ContextCollector(
            interest=known, collect_events=False,
            sink=lambda node, snap, probe: seen.append((node, snap, probe.plan)),
        )
        interp = Interpreter(program, probe=DeltaPathProbe(plan, cpt=True), seed=seed,
                             collector=collector)
        interp.run(operations=6)
        if "XImpl" not in interp.loaded_classes:
            continue
        replay = ContextCollector(
            interest=known, collect_events=False,
            sink=lambda node, snap, probe: truth.append(snap),
        )
        Interpreter(program, probe=StackWalkProbe(), seed=seed, collector=replay).run(operations=6)
        return seen, truth
    raise AssertionError("no seed loads the plugin")


def test_observation_check_passes_across_ucp_gaps():
    seen, truth = _figure6_observations()
    gapped = [
        i for i, (node, snap, plan) in enumerate(seen)
        if wl.GAP in plan.decode_snapshot(node, snap).nodes(wl.GAP)
    ]
    assert gapped, "the workload must exercise the piece-wise comparison"
    assert wl.observation_errors(seen, truth, Tally()) == 0


def test_observation_check_fires_on_corrupted_truth():
    seen, truth = _figure6_observations()
    gapped = next(
        i for i, (node, snap, plan) in enumerate(seen)
        if wl.GAP in plan.decode_snapshot(node, snap).nodes(wl.GAP)
    )
    exact = next(
        i for i, (node, snap, plan) in enumerate(seen)
        if len(truth[i]) > 1 and wl.GAP not in plan.decode_snapshot(node, snap).nodes(wl.GAP)
    )
    corrupted = list(truth)
    corrupted[exact] = corrupted[exact][:-1] + ("Elsewhere.m",)
    corrupted[gapped] = ("Elsewhere.m",) + corrupted[gapped][1:]
    assert wl.observation_errors(seen, corrupted, Tally()) == 2
    assert wl.observation_errors(seen, truth[:-1], Tally()) == 1


def test_pieces_match():
    truth = ("main", "a", "x", "b", "c")
    assert wl.pieces_match(["main", "a", "<?>", "b", "c"], truth)
    assert wl.pieces_match(["main", "<?>", "c"], truth)
    assert not wl.pieces_match(["main", "<?>", "b"], truth)
    assert not wl.pieces_match(["main", "b", "<?>", "c"], truth)
    assert not wl.pieces_match(["main", "<?>", "x", "a", "<?>", "c"], truth)


def test_fingerprint_check_fires_when_inputs_change():
    workload = wl.WORKLOADS["ingest-hot"]
    assert run.check_fingerprints(wl, workload, {}) is None
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        pinned = json.load(fh)["ingest-hot"]
    pinned["stream"] = "0" * 16
    assert "changed" in run.check_fingerprints(wl, workload, {}, pinned=pinned)


def test_generators_are_pure_functions_of_the_seed():
    m = wl.Measures(Tracer(False))
    for name in ("encode-churn", "ingest-cold"):
        workload = wl.WORKLOADS[name]
        one = workload.fingerprints(workload.inputs(7, m))
        assert one == workload.fingerprints(workload.inputs(7, m))
        assert one != workload.fingerprints(workload.inputs(8, m))


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([3.0], 0.9) == 3.0


def test_self_times_subtract_children():
    tracer = Tracer(True)
    tracer.spans = [
        ["bench.round", 0.0, 10.0, -1, 0],
        ["service.flush", 1.0, 4.0, 0, 0],
        ["query.refresh", 5.0, 9.0, 0, 0],
        ["query.topk", 6.0, 7.0, 2, 0],
    ]
    assert tracer.self_times() == {"bench": 3.0, "service": 3.0, "query": 4.0}
