"""Structured observability for the sweep/cluster stack.

Dependency-free events, metrics and spans, recorded as single-writer JSONL
sinks under ``<run_dir>/telemetry/`` — the same shard-and-merge shape as
the cluster's result files, so per-worker telemetry aggregates exactly
like per-worker results do.

Disabled by default at near-zero cost: the installed recorder is a no-op
singleton until :func:`configure` (or the scoped :func:`recording`)
installs a real one, and instrumented hot seams guard their span setup on
``recorder.enabled`` so nothing allocates while telemetry is off::

    from repro import telemetry

    telemetry.configure("runs/fig7")        # sink under runs/fig7/telemetry/
    curve = rerr_sweep(..., store="runs/fig7", executor="cluster")
    telemetry.disable()

    # then, from any shell:
    #   python -m repro.telemetry report runs/fig7

Cluster propagation is automatic: a submission made while telemetry is
enabled flags the run manifest, and every worker daemon that serves the
run directory records its own ``worker-<id>.jsonl`` sink there —
coordinator and workers need not share a process or host.
:mod:`repro.telemetry.perf` holds the benchmarks' machine-readable perf
records; :mod:`repro.telemetry.report` is the merged read path.
"""

from repro.telemetry.metrics import Metrics, merge_snapshots
from repro.telemetry.record import (
    LEVELS,
    TELEMETRY_DIRNAME,
    NullRecorder,
    Recorder,
    Span,
    configure,
    disable,
    enabled,
    get_recorder,
    recording,
)

__all__ = [
    "LEVELS",
    "TELEMETRY_DIRNAME",
    "Metrics",
    "NullRecorder",
    "Recorder",
    "Span",
    "configure",
    "disable",
    "enabled",
    "get_recorder",
    "merge_snapshots",
    "recording",
]
