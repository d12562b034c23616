"""Shared machinery of the pipeline benchmark: spans, percentiles, the
host-speed reference loop, the reference tally every answer is checked
against, and the calls that refresh and read the service the same way
on every workload."""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: The program's layers, by module; span names start with one of them
#: (``bench`` is the benchmark's own code).
LAYERS = ("analysis", "plan", "runtime", "service", "query")


# ----------------------------------------------------------------------
# Tracing: spans recorded only from the benchmark's own calls
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, clock(), 0.0, parent, tracer.round_id])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = clock()
        tracer.stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, round id]``.

    A span's layer is its name up to the first dot. Disabled, ``span``
    returns a shared no-op context, so the untraced run pays one call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.round_id = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer not covered by that span's children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _r in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _p, _r) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[index]
        return dict(out)

    def to_json(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "round": r}
            for n, s, e, p, r in self.spans
        ]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds :func:`reference_loop` takes on the host the bounds were set
#: on (2 cores, Python 3.11). Timings are reported scaled to that speed.
REFERENCE_LOOP_S = 0.003


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: dict updates, small
    allocations and a sort, the kind of work the program does.

    On a shared virtual machine the same CPU-bound work runs up to a
    third slower from one minute to the next, and the guest cannot see
    why (CPU time inflates as much as wall time). Run right after a
    timed step, the loop says how fast the host was running then, and
    scaling the step's time by it removes most of that drift. The
    collector is off while it runs, so the size of the program's heap
    cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table: Dict[int, int] = {}
        for i in range(15000):
            table[i & 1023] = table.get((i * 7) & 1023, 0) + i
        pairs = [(str(i), i) for i in range(4000)]
        pairs.sort(reverse=True)
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def speed_now() -> float:
    """The host's speed right now relative to the reference speed, for
    scaling a timing just taken (less than 1 on a slow host)."""
    return REFERENCE_LOOP_S / median(reference_loop() for _ in range(3))


# ----------------------------------------------------------------------
# The reference answers
# ----------------------------------------------------------------------
class Tally:
    """Expected per-context counts, built from the generated paths (or
    the stack-walk truth), independent of the program's decoders."""

    def __init__(self):
        self.counts: Dict[Tuple[str, ...], int] = {}
        self.totals: Dict[str, int] = {}

    def add(self, path: Tuple[str, ...], count: int = 1) -> None:
        self.counts[path] = self.counts.get(path, 0) + count
        totals = self.totals
        for name in set(path):
            totals[name] = totals.get(name, 0) + count

    def top(self, k: int) -> List[Tuple[int, Tuple[str, ...]]]:
        ranked = sorted(((c, p) for p, c in self.counts.items()), key=lambda t: (-t[0], t[1]))
        return ranked[:k]


def dashboard_errors(top, totals, tally: Tally, k: int = 10) -> int:
    """0, or 1 per dashboard answer that differs from the reference."""
    wrong = 0
    if [(c, tuple(p)) for c, p in top] != tally.top(k):
        wrong += 1
    if dict(totals) != tally.totals:
        wrong += 1
    return wrong


def conservation_errors(service) -> Tuple[int, int]:
    """``(failed, wrong)``: samples not aggregated, and 1 when the
    conservation law does not balance."""
    acct = service.accounting()
    failed = acct["submitted"] - acct["aggregated"]
    balance = (
        acct["aggregated"] + acct["dead_lettered"] + acct["epoch_mismatches"]
        + acct["dropped"] + acct["fallback_dropped"] + acct["fallback_pending"]
    )
    return failed, int(balance != acct["submitted"])


# ----------------------------------------------------------------------
# The calls every workload makes the same way
# ----------------------------------------------------------------------
def refresh(service, timed) -> None:
    """Ingest-to-queryable: aggregate everything, then persist it.
    ``timed(name)`` gives the context manager each call runs under."""
    with timed("service.flush"):
        service.flush()
    with timed("query.flush_segments"):
        service.flush_segments()


def dashboard(service, timed):
    """One dashboard read: refreshed engine, top-10, rollups."""
    with timed("query.refresh"):
        engine = service.query()
    with timed("query.topk"):
        top = engine.top_contexts(10)
    with timed("query.rollup"):
        totals = engine.function_totals()
    return top, totals


def walk_snapshot(probe, path: Sequence[tuple]):
    """Drive a live probe (sitting at the entry frame) down a non-empty
    ``path``, snapshot at the leaf, and unwind back to the entry."""
    for caller, label, callee in path:
        probe.before_call(caller, label, callee)
        probe.enter_function(callee)
    leaf = path[-1][2]
    snap = probe.snapshot(leaf)
    for caller, label, callee in reversed(path):
        probe.exit_function(callee)
        probe.after_call(caller, label, callee)
    return leaf, snap


def snapshots_for(probe, entry: str, paths: Sequence[Sequence[tuple]]) -> List[tuple]:
    """``(leaf, snapshot)`` for every non-empty path, in input order,
    walking one probe through the paths' shared prefixes only once."""
    probe.begin_execution(entry)
    probe.enter_function(entry)
    order = sorted(range(len(paths)), key=paths.__getitem__)
    out: List[Optional[tuple]] = [None] * len(paths)
    live: List[tuple] = []
    for index in order:
        path = list(paths[index])
        common = 0
        while common < min(len(live), len(path)) and live[common] == path[common]:
            common += 1
        while len(live) > common:
            caller, label, callee = live.pop()
            probe.exit_function(callee)
            probe.after_call(caller, label, callee)
        for caller, label, callee in path[common:]:
            probe.before_call(caller, label, callee)
            probe.enter_function(callee)
            live.append((caller, label, callee))
        leaf = path[-1][2]
        out[index] = (leaf, probe.snapshot(leaf))
    while live:
        caller, label, callee = live.pop()
        probe.exit_function(callee)
        probe.after_call(caller, label, callee)
    probe.exit_function(entry)
    probe.end_execution()
    return out
