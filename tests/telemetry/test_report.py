"""The read path: sink loading, metric merging, report rendering."""

from __future__ import annotations

import io
import os

from repro import telemetry
from repro.telemetry.report import (
    load_run_records,
    main,
    merged_run_metrics,
    render_report,
    telemetry_dir,
)


def make_run(tmp_path):
    """Two sinks shaped like a coordinator + one worker run."""
    with telemetry.recording(str(tmp_path), name="events-host-1", echo=None) as rec:
        with rec.span("engine.plan", jobs=4):
            pass
        rec.event("cluster.spawn", workers=2)
        rec.count("queue.enqueued", 2)
    with telemetry.recording(str(tmp_path), name="worker-w1", echo=None) as rec:
        rec.event("worker.start", worker="w1")
        with rec.span("worker.item", worker="w1", item="group-abc", jobs=2) as span:
            span.note(cells=2, completed=True)
        rec.count("worker.items")
        rec.count("worker.cells", 2)
    return str(tmp_path)


def test_load_run_records_merges_sinks_in_time_order(tmp_path):
    run_dir = make_run(tmp_path)
    records = load_run_records(run_dir)
    assert {r["sink"] for r in records} == {"events-host-1", "worker-w1"}
    timestamps = [r.get("ts", 0.0) for r in records]
    assert timestamps == sorted(timestamps)


def test_merged_run_metrics_sums_across_sinks(tmp_path):
    run_dir = make_run(tmp_path)
    merged = merged_run_metrics(run_dir)
    assert merged["counters"]["queue.enqueued"] == 2
    assert merged["counters"]["worker.items"] == 1
    assert merged["counters"]["worker.cells"] == 2
    # Spans fed the per-stage timers on both sinks.
    assert merged["timers"]["span.worker.item"]["count"] == 1


def test_merged_run_metrics_uses_only_each_sinks_last_snapshot(tmp_path):
    with telemetry.recording(str(tmp_path), name="w", echo=None) as rec:
        rec.count("items")
        rec.flush_metrics()
        rec.count("items")  # close() flushes the cumulative total (2)
    merged = merged_run_metrics(str(tmp_path))
    assert merged["counters"]["items"] == 2  # not 1 + 2


def test_render_report_shows_stages_items_health_and_timeline(tmp_path):
    run_dir = make_run(tmp_path)
    stream = io.StringIO()
    assert render_report(run_dir, stream=stream) == 0
    text = stream.getvalue()
    assert "per-stage time breakdown" in text
    assert "engine.plan" in text and "worker.item" in text
    assert "group-abc" in text  # the worker item table
    assert "queue / worker health" in text
    assert "queue.enqueued = 2" in text
    assert "cluster.spawn" in text  # the timeline
    assert "worker=w1" in text
    assert "contained attempts + dead letters" not in text  # no failures


def test_report_without_telemetry_exits_one(tmp_path):
    stream = io.StringIO()
    assert render_report(str(tmp_path), stream=stream) == 1
    assert "no telemetry records" in stream.getvalue()


def test_cli_main_dispatches_report(tmp_path):
    run_dir = make_run(tmp_path)
    stream = io.StringIO()
    assert main(["report", run_dir, "--timeline", "3"], stream=stream) == 0
    assert main(["report", str(tmp_path / "empty")], stream=stream) == 1


def test_load_run_records_skips_torn_lines_and_foreign_files(tmp_path):
    """A sink whose writer was killed mid-line loses only that line, and
    files that are not ``.jsonl`` sinks are not read at all."""
    run_dir = make_run(tmp_path)
    before = load_run_records(run_dir)
    directory = telemetry_dir(run_dir)
    with open(os.path.join(directory, "worker-w1.jsonl"), "a") as handle:
        handle.write('{"type": "event", "name": "worker.sto')  # killed writer
    with open(os.path.join(directory, "notes.txt"), "w") as handle:
        handle.write('{"type": "event", "name": "not.a.sink"}\n')
    after = load_run_records(run_dir)
    assert after == before
    assert {r["sink"] for r in after} == {"events-host-1", "worker-w1"}


def test_merged_run_metrics_of_a_run_without_telemetry_is_empty(tmp_path):
    assert merged_run_metrics(str(tmp_path)) == {
        "counters": {}, "gauges": {}, "timers": {},
    }


def test_report_tables_contained_failures_and_dead_letters(tmp_path):
    """A chaotic run's damage reads off the report: one row per contained
    attempt failure and per dead letter, none for other warnings."""
    with telemetry.recording(str(tmp_path), name="worker-w0", echo=None) as rec:
        rec.event("worker.item_failed", level="warning", item="group-poison",
                  attempt=1, exc_type="InjectedFault", disposition="retry",
                  message="poisoned group")
        rec.event("queue.dead_lettered", level="error", item="group-poison",
                  attempts=2, exc_type="InjectedFault", state="failed")
        rec.event("queue.nacked", level="warning", item="group-other")
    stream = io.StringIO()
    assert render_report(str(tmp_path), stream=stream) == 0
    text = stream.getvalue()
    assert "failures (contained attempts + dead letters)" in text
    table = text.split("failures (contained attempts + dead letters)")[1]
    table = table.split("timeline")[0]
    rows = [line for line in table.splitlines() if "group-" in line]
    assert len(rows) == 2
    assert "worker.item_failed" in rows[0] and "retry" in rows[0]
    assert "poisoned group" in rows[0]
    assert "queue.dead_lettered" in rows[1] and "failed" in rows[1]
    assert all("InjectedFault" in row for row in rows)


def test_report_shows_only_the_last_timeline_rows(tmp_path):
    with telemetry.recording(str(tmp_path), name="w", echo=None) as rec:
        for index in range(5):
            rec.event("tick", index=index)
    stream = io.StringIO()
    assert render_report(str(tmp_path), stream=stream, timeline_limit=2) == 0
    text = stream.getvalue()
    assert "last 2 of 5" in text
    assert "index=3" in text and "index=4" in text
    assert "index=0" not in text and "index=2" not in text


def test_report_caps_the_worker_item_table(tmp_path):
    with telemetry.recording(str(tmp_path), name="worker-w", echo=None) as rec:
        for index in range(42):
            with rec.span("worker.item", worker="w", item=f"group-{index:02d}"):
                pass
    stream = io.StringIO()
    assert render_report(str(tmp_path), stream=stream) == 0
    text = stream.getvalue()
    assert "... 2 more item span(s)" in text
    items = text.split("worker item spans")[1].split("timeline")[0]
    assert "group-39" in items and "group-40" not in items


def test_report_health_shows_the_latest_gauge_across_sinks(tmp_path):
    with telemetry.recording(str(tmp_path), name="a", echo=None) as rec:
        rec.gauge("queue.pending", 7)
    with telemetry.recording(str(tmp_path), name="b", echo=None) as rec:
        rec.gauge("queue.pending", 3)
        rec.count("worker.items", 2.0)
    stream = io.StringIO()
    assert render_report(str(tmp_path), stream=stream) == 0
    text = stream.getvalue()
    assert "queue.pending = 3 (gauge)" in text
    assert "worker.items = 2\n" in text  # integral floats print as ints
