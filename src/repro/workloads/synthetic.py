"""Parametric random call-graph and program generators.

Three consumers:

* property-based tests drive the encoders with :func:`random_callgraph`
  (arbitrary DAG-ish multigraphs with virtual sites and optional cycles);
* the SPECjvm-shaped benchmarks (:mod:`repro.workloads.specjvm`) assemble
  programs from the building blocks here — layered components, virtual
  dispatch clusters, and *diamond cascades*, the structure that makes
  calling-context counts grow exponentially with depth (each layer
  multiplies the context count by its lane count);
* the collection service's demo traffic, its tests and the resilience
  benchmark sample a hot-context population with
  :func:`lane_chain_workload` and :func:`zipf_stream`: contexts on a
  deep lane chain, drawn with a Zipf-shaped popularity curve.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.widths import Width
from repro.graph.callgraph import CallGraph
from repro.lang.model import (
    Branch,
    Klass,
    Method,
    MethodRef,
    Program,
    StaticCall,
    Stmt,
    VirtualCall,
    Work,
)
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import DeltaPathPlan, build_plan_from_graph

__all__ = [
    "random_callgraph",
    "CascadeSpec",
    "add_cascade",
    "add_parallel_cascade",
    "ComponentSpec",
    "add_component",
    "lane_chain",
    "lane_chain_workload",
    "zipf_stream",
]


def random_callgraph(
    seed: int,
    layers: int = 4,
    width: int = 4,
    extra_edges: int = 6,
    virtual_sites: int = 2,
    max_dispatch: int = 3,
    back_edges: int = 0,
) -> CallGraph:
    """A random layered call multigraph.

    Nodes sit in ``layers`` layers of up to ``width`` nodes; every node
    gets one incoming edge from an earlier layer (everything reachable),
    then ``extra_edges`` random forward edges and ``virtual_sites``
    shared-label sites with up to ``max_dispatch`` targets are added.
    ``back_edges`` adds cycle-closing edges for recursion testing.
    """
    rng = random.Random(seed)
    graph = CallGraph(entry="main")
    layer_index: Dict[str, int] = {"main": 0}
    layer_nodes: List[List[str]] = [["main"]]
    for layer in range(1, layers + 1):
        count = rng.randint(1, width)
        names = [f"f{layer}_{i}" for i in range(count)]
        layer_nodes.append(names)
        for name in names:
            layer_index[name] = layer
            caller = rng.choice(layer_nodes[rng.randrange(layer)])
            graph.add_edge(caller, name)

    flat = list(layer_index)

    def pick_forward_pair() -> Optional[Tuple[str, str]]:
        for _ in range(30):
            caller, callee = rng.choice(flat), rng.choice(flat)
            if layer_index[caller] < layer_index[callee]:
                return caller, callee
        return None

    for _ in range(extra_edges):
        pair = pick_forward_pair()
        if pair is not None:
            graph.add_edge(*pair)

    for v in range(virtual_sites):
        pair = pick_forward_pair()
        if pair is None:
            continue
        caller, first = pair
        floor = layer_index[caller]
        targets = {first}
        candidates = [n for n in flat if layer_index[n] > floor]
        for _ in range(rng.randint(0, max_dispatch - 1)):
            targets.add(rng.choice(candidates))
        graph.add_call(caller, sorted(targets), label=f"v{v}")

    for b in range(back_edges):
        # A genuine cycle needs the callee to already reach the caller.
        for _ in range(30):
            caller = rng.choice(flat)
            ancestors = [
                n for n in graph.reaching(caller)
                if n not in ("main", caller)
            ]
            if not ancestors:
                continue
            callee = rng.choice(sorted(ancestors))
            graph.add_edge(caller, callee, label=f"back{b}")
            break
    return graph


# ----------------------------------------------------------------------
# Program building blocks
# ----------------------------------------------------------------------
@dataclass
class CascadeSpec:
    """A diamond cascade: ``layers`` levels, each multiplying the context
    count by ``lanes``.

    Layer ``i`` is a junction method making one *virtual* call dispatched
    to ``lanes`` lane methods (subclasses of a per-layer base class);
    every lane calls the next junction statically. Context count at the
    bottom = (count at top) * lanes**layers, while the runtime depth of
    one traversal is only ``2 * layers``.
    """

    prefix: str
    layers: int
    lanes: int = 3
    library: bool = False
    #: True (default): lane selection is a virtual call (one site, many
    #: targets). False: lanes are chosen by seeded branches over static
    #: calls — a monomorphic cascade with the same context blow-up, for
    #: baselines (PCCE) that cannot handle virtual dispatch.
    virtual_lanes: bool = True


def add_cascade(
    program: Program, spec: CascadeSpec
) -> Tuple[MethodRef, MethodRef, List[str]]:
    """Append a cascade; returns (top junction, bottom junction, classes
    to instantiate for dispatch)."""
    lane_classes: List[str] = []
    for layer in range(spec.layers + 1):
        junction_class = f"{spec.prefix}J{layer}"
        program.add_class(Klass(junction_class, library=spec.library))
        if layer == spec.layers:
            program.klass(junction_class).define(Method("step", (Work(1),)))
            break
        lane_names = [
            f"{spec.prefix}L{layer}x{lane}" for lane in range(spec.lanes)
        ]
        if spec.virtual_lanes:
            base_class = f"{spec.prefix}B{layer}"
            program.add_class(Klass(base_class, library=spec.library))
            program.klass(junction_class).define(
                Method("step", (VirtualCall(base_class, "go"),))
            )
            for lane_class in lane_names:
                program.add_class(
                    Klass(
                        lane_class,
                        superclass=base_class,
                        library=spec.library,
                    )
                )
                program.klass(lane_class).define(
                    Method(
                        "go",
                        (StaticCall(MethodRef(f"{spec.prefix}J{layer + 1}", "step")),),
                    )
                )
                lane_classes.append(lane_class)
        else:
            # Monomorphic lanes: a seeded branch ladder picks one lane;
            # each lane is a static call. Same blow-up, no dispatch.
            for lane_class in lane_names:
                program.add_class(Klass(lane_class, library=spec.library))
                program.klass(lane_class).define(
                    Method(
                        "go",
                        (StaticCall(MethodRef(f"{spec.prefix}J{layer + 1}", "step")),),
                    )
                )
            ladder: Tuple[Stmt, ...] = (
                StaticCall(MethodRef(lane_names[-1], "go")),
            )
            for index in range(len(lane_names) - 2, -1, -1):
                weight = 1.0 / (len(lane_names) - index)
                ladder = (
                    Branch(
                        weight,
                        (StaticCall(MethodRef(lane_names[index], "go")),),
                        ladder,
                    ),
                )
            program.klass(junction_class).define(Method("step", ladder))
    top = MethodRef(f"{spec.prefix}J0", "step")
    bottom = MethodRef(f"{spec.prefix}J{spec.layers}", "step")
    return top, bottom, lane_classes


def add_parallel_cascade(
    program: Program,
    prefix: str,
    layers: int,
    fan: int = 3,
    library: bool = False,
) -> Tuple[MethodRef, MethodRef]:
    """A hub cascade: each junction calls the *next junction* directly
    through ``fan`` parallel call sites (a seeded branch ladder picks one
    at runtime).

    Same ``fan ** layers`` context blow-up as a lane cascade, but the
    growth flows through single hub nodes — the structure where
    DeltaPath's anchors shine (anchoring one hub resets the entire
    downstream space) while PCCE-style edge pruning must prune
    ``fan - 1`` of every hub's incoming edges from the overflow frontier
    onward. Returns (top junction, bottom junction).
    """
    for layer in range(layers + 1):
        name = f"{prefix}P{layer}"
        program.add_class(Klass(name, library=library))
        if layer == layers:
            program.klass(name).define(Method("step", (Work(1),)))
            break
        target = MethodRef(f"{prefix}P{layer + 1}", "step")
        ladder: Tuple[Stmt, ...] = (StaticCall(target),)
        for index in range(fan - 2, -1, -1):
            weight = 1.0 / (fan - index)
            ladder = (Branch(weight, (StaticCall(target),), ladder),)
        program.klass(name).define(Method("step", ladder))
    return MethodRef(f"{prefix}P0", "step"), MethodRef(f"{prefix}P{layers}", "step")


@dataclass
class ComponentSpec:
    """A filler component: ``methods`` methods in a layered random DAG.

    Approximates the bulk of a real code base: mostly static calls, a
    fraction of virtual clusters (base + ``dispatch`` impls sharing one
    call site), all reachable from the component root, deterministic
    under ``seed``.
    """

    prefix: str
    methods: int
    seed: int
    extra_calls: int = 1
    virtual_cluster_every: int = 6
    dispatch: int = 3
    library: bool = False
    depth_layers: int = 8
    #: Probability that each call in a body executes at runtime. The
    #: static call graph always contains every edge; thinning keeps the
    #: interpreter's dynamic call tree sub-exponential.
    dynamic_weight: float = 0.4


def add_component(
    program: Program, spec: ComponentSpec
) -> Tuple[MethodRef, List[MethodRef], List[str]]:
    """Append a filler component; returns (root, methods, classes to
    instantiate)."""
    rng = random.Random(spec.seed)
    holder = f"{spec.prefix}H"
    program.add_class(Klass(holder, library=spec.library))

    # Layer assignment; layer 0 holds the root alone.
    refs: List[MethodRef] = [MethodRef(holder, "m0")]
    layer_of: Dict[MethodRef, int] = {refs[0]: 0}
    for i in range(1, spec.methods):
        ref = MethodRef(holder, f"m{i}")
        refs.append(ref)
        layer_of[ref] = rng.randint(1, spec.depth_layers)

    by_layer: Dict[int, List[MethodRef]] = {}
    for ref in refs:
        by_layer.setdefault(layer_of[ref], []).append(ref)
    present_layers = sorted(by_layer)

    # Call plan: every non-root method gets >= 1 caller from a strictly
    # shallower layer, guaranteeing reachability; then extra forward
    # calls thicken the graph.
    calls: Dict[MethodRef, List[MethodRef]] = {ref: [] for ref in refs}
    for ref in refs[1:]:
        shallower = [
            r for r in refs if layer_of[r] < layer_of[ref]
        ]
        calls[rng.choice(shallower)].append(ref)
    for ref in refs:
        deeper = [r for r in refs if layer_of[r] > layer_of[ref]]
        for _ in range(spec.extra_calls):
            if deeper:
                calls[ref].append(rng.choice(deeper))

    # Virtual clusters: every Nth method also dispatches to a cluster of
    # impls, each forwarding to a deeper method.
    instantiate: List[str] = []
    cluster_of: Dict[MethodRef, str] = {}
    for i, ref in enumerate(refs):
        if not i or not spec.virtual_cluster_every:
            continue
        if i % spec.virtual_cluster_every:
            continue
        deeper = [r for r in refs if layer_of[r] > layer_of[ref]]
        if not deeper:
            continue
        base = f"{spec.prefix}VB{i}"
        program.add_class(Klass(base, library=spec.library))
        for d in range(spec.dispatch):
            impl = f"{spec.prefix}VI{i}x{d}"
            program.add_class(
                Klass(impl, superclass=base, library=spec.library)
            )
            program.klass(impl).define(
                Method("handle", (StaticCall(rng.choice(deeper)),))
            )
            instantiate.append(impl)
        cluster_of[ref] = base

    from repro.lang.model import Branch

    for ref in refs:
        body: List = [
            Branch(spec.dynamic_weight, (StaticCall(target),))
            for target in calls[ref]
        ]
        if ref in cluster_of:
            body.append(VirtualCall(cluster_of[ref], "handle"))
        if not body:
            body.append(Work(1))
        program.klass(holder).define(Method(ref.method, tuple(body)))

    return refs[0], refs, instantiate


# ----------------------------------------------------------------------
# Hot-context sample streams
# ----------------------------------------------------------------------
#: ``(leaf node, (stack, current id))``: one probe snapshot to decode.
Observation = Tuple[str, Tuple[tuple, int]]

#: Zipf exponent of the popularity curve.
ZIPF_S = 1.2


def lane_chain(depth: int = 40, lanes: int = 2) -> CallGraph:
    """A depth-``depth`` chain with ``lanes`` parallel call sites per hop.

    Lane choices multiply the context count (``lanes**depth``), so a
    narrow width forces Algorithm 2 to anchor every few hops — contexts
    become multi-piece stacks whose outer pieces are shared, which is
    exactly what the decode engine's interning cache exploits.
    """
    graph = CallGraph("main")
    prev = "main"
    for d in range(depth):
        node = f"f{d}"
        for lane in range(lanes):
            graph.add_edge(prev, node, f"d{d}l{lane}")
        prev = node
    return graph


def _walk_snapshot(
    plan: DeltaPathPlan, path: Sequence[Tuple[str, str, str]]
) -> Observation:
    """Drive a fresh probe along ``path``; return (leaf, snapshot)."""
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution(plan.graph.entry)
    probe.enter_function(plan.graph.entry)
    node = plan.graph.entry
    for caller, label, callee in path:
        probe.before_call(caller, label, callee)
        probe.enter_function(callee)
        node = callee
    return node, probe.snapshot(node)


def lane_chain_workload(
    depth: int = 40, contexts: int = 400, seed: int = 1
) -> Tuple[CallGraph, DeltaPathPlan, List[Observation], List[float]]:
    """A seeded hot-context population on a two-lane :func:`lane_chain`.

    Returns ``(graph, plan, observations, weights)``: ``contexts``
    distinct contexts (random lane choices, random depths from
    ``depth // 2``) encoded under a 16-bit plan, which forces anchors
    every few hops, plus their Zipf weights, heaviest first.
    """
    lanes = 2
    rng = random.Random(seed)
    graph = lane_chain(depth, lanes)
    plan = build_plan_from_graph(graph, width=Width(16))
    seen = set()
    observations: List[Observation] = []
    while len(observations) < contexts:
        d = rng.randrange(max(depth // 2, 1), depth)
        path = []
        prev = "main"
        choices = []
        for hop in range(d):
            lane = rng.randrange(lanes)
            choices.append(lane)
            path.append((prev, f"d{hop}l{lane}", f"f{hop}"))
            prev = f"f{hop}"
        key = (d, tuple(choices))
        if key in seen:
            continue
        seen.add(key)
        observations.append(_walk_snapshot(plan, path))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(contexts)]
    return graph, plan, observations, weights


def zipf_stream(
    observations: Sequence[Observation],
    weights: Sequence[float],
    samples: int,
    seed: int,
) -> List[Observation]:
    """``samples`` observations drawn by weight; deterministic in ``seed``."""
    rng = random.Random(seed + 7)
    return rng.choices(observations, weights=weights, k=samples)
