"""``repro.obs`` — unified observability for every layer of the repro.

The paper's pitch is that context encoding is cheap enough to leave on in
production; this package is how the repro *proves* its own overheads.
One process-wide :class:`MetricsRegistry` names counters, gauges and
log2 latency histograms for the layers that do real work — plan
construction (:mod:`repro.core`), incremental repair
(:mod:`repro.core.reencode`), the runtime probes (:mod:`repro.runtime`)
and the collection service (:mod:`repro.service`) — and one process-wide
:class:`Tracer` records nested spans exportable as Chrome trace-event
JSON (``chrome://tracing`` / Perfetto) or JSONL.

Design rules, so observability never invalidates what it measures:

* **Metrics are always on** at coarse-grained call sites (one registry
  update per plan build / re-encode / ingested batch — never per call
  edge).
* **Tracing is off by default**; ``span()`` returns a shared no-op until
  ``configure(tracing=True)`` (the CLI's ``--trace-out`` does this).
* **The probe hot path is gated by a sample rate**: with the default
  rate 0 a probe snapshot costs one integer increment and one integer
  test; ``configure(probe_sample_rate=N)`` times every Nth snapshot into
  ``probe.snapshot_us``.

Quickstart::

    from repro import obs

    obs.counter("myphase.runs").inc()
    with obs.span("myphase.work", size=n) as sp:
        ...
        sp.set("result", m)

    print(obs.expose_prometheus())      # Prometheus text format
    obs.get_tracer().write_chrome("trace.json")

CLI: every subcommand takes ``--metrics-out``/``--trace-out``;
``python -m repro obs`` prints the registry after a demo workload;
``perfbench/``'s traced run reports per-layer timings and
``perfbench/report.py`` the tracing overhead itself (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.registry import (
    Counter,
    Gauge,
    LabeledCounter,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.obs.tracing import NOOP_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "LabeledCounter",
    "LatencyHistogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "configure",
    "counter",
    "expose_prometheus",
    "flatten",
    "gauge",
    "get_profiler",
    "get_registry",
    "get_tracer",
    "histogram",
    "labeled_counter",
    "probe_sample_rate",
    "set_registry",
    "set_tracer",
    "snapshot",
    "span",
    "start_profiler",
    "stop_profiler",
    "tracing_enabled",
]

_registry = MetricsRegistry("repro")
_tracer = Tracer(enabled=False)
_probe_sample_rate = 0
_profiler = None


# ----------------------------------------------------------------------
# Globals
# ----------------------------------------------------------------------
def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    global _registry
    _registry = registry
    return registry


def get_tracer() -> Tracer:
    """The process-wide default tracer (disabled until configured)."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    global _tracer
    _tracer = tracer
    return tracer


def configure(
    *,
    tracing: Optional[bool] = None,
    probe_sample_rate: Optional[int] = None,
) -> None:
    """Flip the two observability switches.

    ``tracing`` enables/disables the default tracer. ``probe_sample_rate``
    sets how often probes time their snapshots (0 disables; N means every
    Nth snapshot). Probes read the rate at construction time, so
    configure *before* building probes.
    """
    global _probe_sample_rate
    if tracing is not None:
        _tracer.enabled = bool(tracing)
    if probe_sample_rate is not None:
        if probe_sample_rate < 0:
            raise ValueError("probe_sample_rate must be >= 0")
        _probe_sample_rate = int(probe_sample_rate)


def probe_sample_rate() -> int:
    return _probe_sample_rate


def tracing_enabled() -> bool:
    return _tracer.enabled


# ----------------------------------------------------------------------
# Conveniences over the default registry / tracer
# ----------------------------------------------------------------------
def counter(name: str) -> Counter:
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    return _registry.gauge(name)


def histogram(name: str) -> LatencyHistogram:
    return _registry.histogram(name)


def labeled_counter(name: str, max_labels: int = 64) -> LabeledCounter:
    return _registry.labeled_counter(name, max_labels)


def span(name: str, **attrs):
    """A span on the default tracer; a shared no-op while disabled."""
    tracer = _tracer
    if not tracer.enabled:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def snapshot() -> Dict[str, object]:
    return _registry.snapshot()


def flatten() -> Dict[str, float]:
    return _registry.flatten()


def expose_prometheus() -> str:
    return _registry.expose_prometheus()


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
def get_profiler():
    """The process-wide profiler, or ``None`` if never started."""
    return _profiler


def start_profiler(hz: float = 100.0, max_samples: int = 100_000):
    """Start (or return the already-running) process-wide profiler.

    The profiler registers its ``profile.*`` metrics on the default
    registry. A second call while running returns the same instance;
    call :func:`stop_profiler` first to change the rate.
    """
    global _profiler
    from repro.obs.profiler import SamplingProfiler

    if _profiler is not None and _profiler.running:
        return _profiler
    _profiler = SamplingProfiler(
        hz=hz, max_samples=max_samples, registry=_registry
    )
    return _profiler.start()


def stop_profiler() -> None:
    """Stop the process-wide profiler if one is running."""
    global _profiler
    if _profiler is not None:
        _profiler.stop()
        _profiler = None
