"""repro.obs — structured tracing and metrics for the simulated cluster.

The observability layer of the engine (see ``docs/observability.md``):

* :class:`Recorder` — span event bus with a virtual-time clock and
  parent/child causal links across machine hops;
* :class:`MetricsRegistry` — counters, gauges, histograms with labels;
* exporters — Chrome trace-event JSON (Perfetto-loadable), JSONL event
  log, Prometheus text format;
* :func:`validate_chrome_trace` — the trace consistency checker used by
  tests and CI;
* :func:`render_timeline` / :func:`utilization` / :func:`imbalance` —
  the per-round ASCII utilization timeline over a recorder;
* :class:`PhaseProfiler` / :func:`peak_rss_bytes` — *wall-clock* phase
  profiling and process memory (``docs/profiling.md``), orthogonal to the
  virtual-time tracer and gated by ``EngineConfig(profile=True)``.

Enabled with ``EngineConfig(observe=True)``; when disabled every hook is
behind a single ``obs is not None`` branch (the sanitizer convention), so
the instrumented hot paths stay unchanged.
"""

from .export import (
    jsonl_lines,
    load_trace_file,
    summarize_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .metrics import MetricsRegistry
from .prof import PhaseProfiler, format_profile, peak_rss_bytes, profiled
from .recorder import Recorder
from .timeline import imbalance, render_timeline, utilization

__all__ = [
    "MetricsRegistry",
    "PhaseProfiler",
    "Recorder",
    "format_profile",
    "imbalance",
    "peak_rss_bytes",
    "profiled",
    "jsonl_lines",
    "load_trace_file",
    "render_timeline",
    "summarize_trace",
    "to_chrome_trace",
    "utilization",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
