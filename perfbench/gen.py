"""Seeded input generators for the pipeline benchmark.

Everything a workload feeds the program is built here from the seed,
using only plain data structures and the public graph type, so a change
to ``repro.bench`` or ``repro.workloads`` cannot silently shift a
workload. :func:`fingerprint` hashes the generated inputs (never the
program's outputs); ``fingerprints.json`` pins them for a canary seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.incremental import GraphDelta
from repro.graph.callgraph import CallEdge, CallGraph

Step = Tuple[str, object, str]  # (caller, label, callee)
Path = Tuple[Step, ...]


def fingerprint(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj`` (first 16 hex)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def edge_list(graph: CallGraph) -> List[Tuple[str, str, str]]:
    return [(e.caller, str(e.label), e.callee) for e in graph.edges]


def node_path(path: Sequence[Step], entry: str = "main") -> Tuple[str, ...]:
    """The frame list a walk along ``path`` leaves on the stack."""
    return (entry,) + tuple(step[2] for step in path)


# ----------------------------------------------------------------------
# encode-churn: a layered call graph with virtual dispatch, plus a
# stream of class-load deltas against it
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnSpec:
    #: Backbone hubs, each joined to the next by ``lanes`` parallel
    #: sites: contexts multiply down the chain, so a narrow width must
    #: anchor every few hubs.
    hubs: int = 40
    lanes: int = 3
    #: Each hub owns a private module of ``depth`` x ``width`` methods.
    depth: int = 3
    width: int = 8
    #: Sites per module method; the first ``virtual`` of them dispatch
    #: to ``fanout`` targets.
    sites: int = 2
    virtual: int = 1
    fanout: int = 2


def hub_module_graph(spec: ChurnSpec, seed: int) -> Tuple[CallGraph, List[List[List[str]]]]:
    """The encode-churn graph and, per hub, its module's method layers
    (layer 0 is the hub itself).

    Inside a module every method of a layer has the same out-degree and,
    through a shuffled target list, the same in-degree, so the seed
    changes which methods call which but not how many contexts reach
    each layer: anchor placement, and with it the encoding cost, stays
    comparable across seeds.
    """
    rng = random.Random(seed)
    graph = CallGraph("main")
    modules: List[List[List[str]]] = []
    prev = "main"
    out_degree = (spec.sites - spec.virtual) + spec.virtual * spec.fanout
    for h in range(spec.hubs):
        hub = f"H{h}"
        for lane in range(spec.lanes):
            graph.add_edge(prev, hub, f"lane{lane}")
        prev = hub
        layers = [[hub]] + [
            [f"M{h}.l{d}n{i}" for i in range(spec.width)]
            for d in range(1, spec.depth + 1)
        ]
        modules.append(layers)
        for i, node in enumerate(layers[1]):
            graph.add_edge(hub, node, f"m{i}")
        for d in range(1, spec.depth):
            targets = layers[d + 1] * out_degree
            rng.shuffle(targets)
            for n_index, node in enumerate(layers[d]):
                mine = targets[n_index * out_degree:(n_index + 1) * out_degree]
                for site in range(spec.sites):
                    count = spec.fanout if site < spec.virtual else 1
                    chosen: List[str] = []
                    while mine and len(chosen) < count:
                        callee = mine.pop(0)
                        if callee in chosen:
                            callee = rng.choice([c for c in layers[d + 1] if c not in chosen])
                        chosen.append(callee)
                    for callee in chosen:
                        graph.add_edge(node, callee, f"c{site}")
    return graph, modules


@dataclass
class ClassLoad:
    """One loaded class: its method, the existing sites that gain it as
    a dispatch target, and the methods it calls."""

    method: str
    callers: Tuple[Tuple[str, str], ...]  # existing (caller, site label)
    callees: Tuple[str, ...]

    def delta(self) -> GraphDelta:
        edges = [CallEdge(caller, self.method, label) for caller, label in self.callers]
        edges += [CallEdge(self.method, callee, f"k{i}") for i, callee in enumerate(self.callees)]
        return GraphDelta(added_nodes={self.method: {}}, added_edges=tuple(edges))

    def to_json(self) -> list:
        return [self.method, [list(c) for c in self.callers], list(self.callees)]


def class_load_stream(
    graph: CallGraph, modules: List[List[List[str]]], count: int, seed: int
) -> List[ClassLoad]:
    """``count`` seeded class loads. Each joins one module: 1-2 sites of
    a module layer gain it as a virtual target, and it calls 1-2
    methods of the next layer, so the graph stays acyclic and each
    repair touches one territory."""
    rng = random.Random(seed ^ 0xC1A55)
    loads = []
    for index in range(count):
        layers = modules[rng.randrange(len(modules))]
        depth = rng.randrange(1, len(layers) - 1)
        sites = sorted({(e.caller, e.label) for n in layers[depth] for e in graph.out_edges(n)})
        callers = tuple(rng.sample(sites, rng.randint(1, 2)))
        callees = tuple(rng.sample(layers[depth + 1], rng.randint(1, 2)))
        loads.append(ClassLoad(f"X{index}.run", callers, callees))
    return loads


def churn_walk(graph: CallGraph, spec: ChurnSpec, rng: random.Random) -> Path:
    """A walk down the backbone to a random hub, then into its module
    (loaded methods included) until a leaf or a 1-in-5 stop."""
    path, prev = [], graph.entry
    for h in range(rng.randrange(spec.hubs) + 1):
        hub = f"H{h}"
        path.append((prev, f"lane{rng.randrange(spec.lanes)}", hub))
        prev = hub
    while rng.random() >= 0.2:
        out = [e for e in graph.out_edges(prev) if not str(e.label).startswith("lane")]
        if not out:
            break
        edge = out[rng.randrange(len(out))]
        path.append((edge.caller, edge.label, edge.callee))
        prev = edge.callee
    return tuple(path)


# ----------------------------------------------------------------------
# ingest-hot / ingest-cold: a narrow-width lane chain and context
# populations over it
# ----------------------------------------------------------------------
def lane_chain(depth: int, lanes: int) -> CallGraph:
    """``main -> f0 -> ... -> f{depth-1}`` with ``lanes`` parallel call
    sites per hop: ``lanes**depth`` contexts, so a narrow width anchors
    every few hops and contexts decode in several pieces. Contexts that
    differ only in their sites share one frame list, so the service's
    context store stays small however many distinct encodings arrive."""
    graph = CallGraph("main")
    prev = "main"
    for hop in range(depth):
        for lane in range(lanes):
            graph.add_edge(prev, f"f{hop}", f"d{hop}l{lane}")
        prev = f"f{hop}"
    return graph


def lane_paths(depth: int, lanes: int, count: int, min_depth: int, seed: int) -> List[Path]:
    """``count`` distinct seeded walks of the lane chain, each
    ``min_depth..depth`` hops deep."""
    rng = random.Random(seed ^ 0x1A9E)
    # One shared tuple per (hop, lane) step keeps 20k paths small.
    steps = [
        [("main" if hop == 0 else f"f{hop - 1}", f"d{hop}l{lane}", f"f{hop}") for lane in range(lanes)]
        for hop in range(depth)
    ]
    seen, paths = set(), []
    while len(paths) < count:
        hops = rng.randint(min_depth, depth)
        choice = tuple(rng.randrange(lanes) for _ in range(hops))
        if choice in seen:
            continue
        seen.add(choice)
        paths.append(tuple(steps[hop][lane] for hop, lane in enumerate(choice)))
    return paths


def zipf_stream(contexts: int, samples: int, s: float, seed: int) -> List[int]:
    """``samples`` context indices, Zipf(``s``) over ``contexts``."""
    rng = random.Random(seed ^ 0x21FF)
    weights = [1.0 / (rank + 1) ** s for rank in range(contexts)]
    return rng.choices(range(contexts), weights=weights, k=samples)


def permutation_stream(contexts: int, seed: int) -> List[int]:
    """Every context exactly once, in seeded order (no key repeats)."""
    rng = random.Random(seed ^ 0xC01D)
    order = list(range(contexts))
    rng.shuffle(order)
    return order
