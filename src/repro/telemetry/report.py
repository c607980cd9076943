"""Render a run directory's telemetry sinks: timeline, stages, health.

The read path of the observability layer.  Every process that recorded
into ``<run_dir>/telemetry/`` left a single-writer JSONL sink; this module
merges them (events and spans ordered by timestamp, metric snapshots
folded via :func:`repro.telemetry.metrics.merge_snapshots` — last snapshot
per sink, counters summed) and renders:

``python -m repro.telemetry report <run_dir>``
    Per-stage time breakdown (spans aggregated by name), per-worker item
    spans, queue/worker health counters, and the merged event timeline.

stdout is deliberately the interface here (this file is exempt from
REP007); everything else in the package writes JSONL only.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.record import TELEMETRY_DIRNAME
from repro.utils.serialization import read_jsonl
from repro.utils.tables import Table

__all__ = [
    "telemetry_dir",
    "load_run_records",
    "merged_run_metrics",
    "render_report",
    "main",
]


def telemetry_dir(run_dir: str) -> str:
    return os.path.join(os.path.abspath(run_dir), TELEMETRY_DIRNAME)


def load_run_records(run_dir: str) -> List[dict]:
    """Every record of every sink, annotated with its source, in ts order.

    Each record gains a ``"sink"`` key (the sink basename).  Records
    missing a numeric ``ts`` sort first; malformed lines were already
    dropped by the tolerant JSONL reader.
    """
    directory = telemetry_dir(run_dir)
    try:
        names = sorted(
            name for name in os.listdir(directory) if name.endswith(".jsonl")
        )
    except FileNotFoundError:
        return []
    records: List[dict] = []
    for name in names:
        sink = name[: -len(".jsonl")]
        for record in read_jsonl(os.path.join(directory, name)):
            record["sink"] = sink
            records.append(record)
    records.sort(key=lambda r: (_ts(r), r["sink"]))
    return records


def _ts(record: dict) -> float:
    try:
        return float(record.get("ts", 0.0))
    except (TypeError, ValueError):
        return 0.0


def merged_run_metrics(records_or_run_dir) -> Dict[str, dict]:
    """The aggregate metrics snapshot of a run (or of loaded records).

    Snapshots are cumulative per sink, so only each sink's *last* metrics
    record is folded.  Accepts either a run-directory path or the record
    list :func:`load_run_records` returned (to avoid a double read).
    """
    if isinstance(records_or_run_dir, str):
        records = load_run_records(records_or_run_dir)
    else:
        records = records_or_run_dir
    latest: Dict[str, dict] = {}
    for record in records:
        if record.get("type") == "metrics":
            latest[record.get("sink", "")] = record
    return merge_snapshots(latest.values())


def _span_breakdown(spans: Sequence[dict]) -> Table:
    stats: Dict[str, list] = {}
    order: List[str] = []
    for span in spans:
        name = str(span.get("name", "?"))
        wall = float(span.get("wall_s", 0.0) or 0.0)
        cpu = float(span.get("cpu_s", 0.0) or 0.0)
        entry = stats.get(name)
        if entry is None:
            stats[name] = [1, wall, wall, cpu]
            order.append(name)
        else:
            entry[0] += 1
            entry[1] += wall
            entry[2] = max(entry[2], wall)
            entry[3] += cpu
    table = Table(
        title="per-stage time breakdown (spans by name)",
        headers=["stage", "count", "total [s]", "mean [ms]", "max [ms]", "cpu [s]"],
        float_digits=3,
    )
    for name in sorted(order, key=lambda n: -stats[n][1]):
        count, total, peak, cpu = stats[name]
        table.add_row(name, count, total, total / count * 1e3, peak * 1e3, cpu)
    return table


def _worker_item_table(spans: Sequence[dict], limit: int = 40) -> Tuple[Table, int]:
    table = Table(
        title="worker item spans",
        headers=["worker", "item", "cells", "wall [s]", "completed"],
        float_digits=3,
    )
    items = [s for s in spans if s.get("name") == "worker.item"]
    for span in items[:limit]:
        table.add_row(
            str(span.get("worker", span.get("sink", "?"))),
            str(span.get("item", "?"))[:26],
            span.get("cells", ""),
            float(span.get("wall_s", 0.0) or 0.0),
            str(span.get("completed", "")),
        )
    return table, max(0, len(items) - limit)


def _failure_table(events: Sequence[dict], limit: int = 40) -> Tuple[Table, int]:
    """Item failures and dead-letters, one row per failure event.

    Folds ``worker.item_failed`` (each contained attempt failure) and
    ``queue.dead_lettered`` (attempt budget exhausted) into the report so a
    chaotic run's damage is readable without opening ``queue/failed/``.
    """
    table = Table(
        title="failures (contained attempts + dead letters)",
        headers=["event", "item", "attempt", "exc", "disposition", "message"],
    )
    failures = [
        e
        for e in events
        if e.get("name") in ("worker.item_failed", "queue.dead_lettered")
    ]
    for event in failures[:limit]:
        table.add_row(
            str(event.get("name", "?")),
            str(event.get("item", "?"))[:26],
            str(event.get("attempt", event.get("attempts", ""))),
            str(event.get("exc_type", ""))[:24],
            str(event.get("disposition", event.get("state", "")))[:12],
            str(event.get("message", ""))[:48],
        )
    return table, max(0, len(failures) - limit)


def _format_fields(record: dict, skip: Sequence[str]) -> str:
    parts = []
    for key, value in record.items():
        if key in skip:
            continue
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _timeline_line(record: dict, t0: float) -> str:
    offset = _ts(record) - t0
    kind = record.get("type", "?")
    if kind == "event":
        head = f"{record.get('level', 'info'):>7} {record.get('name', '?')}"
        skip = ("type", "ts", "name", "level", "sink")
    elif kind == "span":
        wall = float(record.get("wall_s", 0.0) or 0.0)
        head = f"   span {record.get('name', '?')} ({wall * 1e3:.1f} ms)"
        skip = ("type", "ts", "name", "start", "wall_s", "cpu_s", "sink",
                "span", "parent")
    else:
        counters = record.get("counters") or {}
        head = f"metrics {len(counters)} counter(s)"
        skip = tuple(record)
    fields = _format_fields(record, skip)
    return (
        f"+{offset:9.3f}s  {head}"
        + (f"  {fields}" if fields else "")
        + f"  [{record.get('sink', '?')}]"
    )


def _health_lines(merged: Dict[str, dict]) -> List[str]:
    counters = merged.get("counters") or {}
    lines = []
    for name in sorted(counters):
        value = counters[name]
        if isinstance(value, float) and value == int(value):
            value = int(value)
        lines.append(f"  {name} = {value}")
    for name in sorted(merged.get("gauges") or {}):
        lines.append(f"  {name} = {merged['gauges'][name]} (gauge)")
    return lines


def render_report(run_dir: str, stream=None, timeline_limit: int = 40) -> int:
    """Print the merged run report; exit code 0, or 1 with no telemetry."""
    stream = sys.stdout if stream is None else stream
    records = load_run_records(run_dir)
    if not records:
        print(f"no telemetry records under {telemetry_dir(run_dir)}", file=stream)
        return 1
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    sinks = sorted({r["sink"] for r in records})
    t0 = _ts(records[0])
    t1 = max(_ts(r) for r in records)
    print(f"run dir: {os.path.abspath(run_dir)}", file=stream)
    print(
        f"sinks: {len(sinks)} ({', '.join(sinks)})\n"
        f"records: {len(records)} ({len(spans)} spans, {len(events)} events) "
        f"over {t1 - t0:.3f}s",
        file=stream,
    )
    if spans:
        print("\n" + _span_breakdown(spans).render(), file=stream)
        item_table, dropped = _worker_item_table(spans)
        if item_table.rows:
            print("\n" + item_table.render(), file=stream)
            if dropped:
                print(f"  ... {dropped} more item span(s)", file=stream)
    failure_table, failures_dropped = _failure_table(events)
    if failure_table.rows:
        print("\n" + failure_table.render(), file=stream)
        if failures_dropped:
            print(f"  ... {failures_dropped} more failure event(s)", file=stream)
    merged = merged_run_metrics(records)
    health = _health_lines(merged)
    if health:
        print("\nqueue / worker health (merged counters):", file=stream)
        for line in health:
            print(line, file=stream)
    timeline = events + [
        s for s in spans if s.get("parent") is None or s.get("name") == "worker.item"
    ]
    timeline.sort(key=_ts)
    if timeline:
        shown = timeline[-timeline_limit:]
        print(
            f"\ntimeline (events + top-level spans, last {len(shown)} of "
            f"{len(timeline)}):",
            file=stream,
        )
        for record in shown:
            print("  " + _timeline_line(record, t0), file=stream)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Render a run directory's telemetry sinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="merged timeline, stages, health")
    report.add_argument("run_dir")
    report.add_argument(
        "--timeline", type=int, default=40, metavar="N",
        help="timeline rows to show (default 40)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    args = build_parser().parse_args(argv)
    return render_report(args.run_dir, stream=stream, timeline_limit=args.timeline)
