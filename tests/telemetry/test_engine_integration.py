"""Telemetry through the real sweep engine: spans when on, nothing when off."""

from __future__ import annotations

import os

import numpy as np

from repro import telemetry
from repro.biterror import make_error_fields
from repro.cluster import spawn_local_worker, submit_spec
from repro.quant.qat import quantize_model
from repro.runtime import ResultStore, SerialExecutor, SweepSpec, run_sweep
from repro.telemetry.report import load_run_records, merged_run_metrics
from repro.utils.serialization import read_jsonl


def make_spec(blob_data, small_mlp, rquant8):
    _, test = blob_data
    quantized = quantize_model(small_mlp, rquant8)
    fields = make_error_fields(quantized.num_weights, 8, 2, seed=5)
    spec = SweepSpec(test, batch_size=32)
    spec.add_model("m", small_mlp, rquant8, quantized)
    spec.add_field_set("f", fields)
    for rate in (0.005, 0.01):
        spec.add_field_jobs("m", "f", rate)
    return spec


def test_disabled_sweep_writes_no_telemetry(
    blob_data, small_mlp, rquant8, tmp_path
):
    telemetry.disable()
    store = ResultStore(str(tmp_path))
    run_sweep(make_spec(blob_data, small_mlp, rquant8),
              executor=SerialExecutor(), store=store)
    assert not os.path.exists(tmp_path / "telemetry")


def test_enabled_sweep_records_plan_run_and_group_spans(
    blob_data, small_mlp, rquant8, tmp_path
):
    with telemetry.recording(str(tmp_path), name="t", echo=None):
        store = ResultStore(str(tmp_path))
        results = run_sweep(make_spec(blob_data, small_mlp, rquant8),
                            executor=SerialExecutor(), store=store)
        # Resumed re-run: every cell is warm, so no groups execute.
        run_sweep(make_spec(blob_data, small_mlp, rquant8),
                  executor=SerialExecutor(), store=ResultStore(str(tmp_path)))

    records = load_run_records(str(tmp_path))
    spans = {r["name"]: r for r in records if r["type"] == "span"}
    assert {"engine.plan", "engine.run", "engine.group"} <= set(spans)
    # Group spans nest under the run span.
    groups = [r for r in records
              if r["type"] == "span" and r["name"] == "engine.group"]
    assert all(g["parent"] == spans["engine.run"]["span"] for g in groups)
    assert sum(g["cells"] for g in groups) == len(results)

    merged = merged_run_metrics(str(tmp_path))
    assert merged["counters"]["engine.cells"] == len(results)
    assert merged["counters"]["store.puts"] == len(results)
    assert merged["counters"]["store.resume_hits"] == len(results)
    assert merged["counters"]["engine.clean_decodes"] == 1  # memoized


def test_identical_results_with_and_without_telemetry(
    blob_data, small_mlp, rquant8, tmp_path
):
    telemetry.disable()
    plain = run_sweep(make_spec(blob_data, small_mlp, rquant8),
                      executor=SerialExecutor())
    with telemetry.recording(str(tmp_path), name="t", echo=None):
        observed = run_sweep(make_spec(blob_data, small_mlp, rquant8),
                             executor=SerialExecutor())
    assert plain == observed


def test_forked_workers_never_write_to_the_parents_sink(
    blob_data, small_mlp, rquant8, tmp_path
):
    """A forked daemon drops the recorder it inherits without closing it:
    closing would flush the parent's counters into the parent's sink.  Its
    own counters still reach its own sink, although it exits without
    closing a recorder."""
    run_dir = str(tmp_path)
    with telemetry.recording(str(tmp_path), name="parent", echo=None) as rec:
        rec.count("parent.before_fork")  # counters every child inherits
        # Submitted while recording: the manifest asks workers for sinks.
        submission = submit_spec(run_dir, make_spec(blob_data, small_mlp, rquant8),
                                 lease_timeout=10.0)
        daemon = spawn_local_worker(run_dir, "daemon", poll_interval=0.02)
        daemon.join(timeout=60)
    assert daemon.exitcode == 0
    records = read_jsonl(rec.path)
    assert [record["type"] for record in records].count("metrics") == 1
    # The worker recorded its groups into a sink of its own.
    sinks = {record["sink"] for record in load_run_records(str(tmp_path))
             if record["type"] == "span" and record["name"] == "engine.group"}
    assert sinks and "parent" not in sinks
    assert (merged_run_metrics(str(tmp_path))["counters"]["engine.cells"]
            == len(set(submission.expected_keys)))


def test_trainer_epoch_spans_note_loss_and_lr(tmp_path):
    from repro.core.trainer import Trainer, TrainerConfig
    from repro.data import ArrayDataset

    rng = np.random.default_rng(0)
    dataset = ArrayDataset(
        rng.normal(size=(32, 6)), rng.integers(0, 3, size=32), num_classes=3
    )
    from repro.models import MLP

    model = MLP(in_features=6, num_classes=3, hidden=(8,),
                rng=np.random.default_rng(1))
    config = TrainerConfig(epochs=2, batch_size=8, quantization_aware=False)
    with telemetry.recording(str(tmp_path), name="t", echo=None):
        Trainer(model, None, config).train(dataset)
    records = load_run_records(str(tmp_path))
    train_spans = [r for r in records
                   if r["type"] == "span" and r["name"] == "trainer.train"]
    epoch_spans = [r for r in records
                   if r["type"] == "span" and r["name"] == "trainer.epoch"]
    assert len(train_spans) == 1 and train_spans[0]["epochs"] == 2
    assert [s["epoch"] for s in epoch_spans] == [0, 1]
    assert all(s["parent"] == train_spans[0]["span"] for s in epoch_spans)
    assert all("loss" in s and "lr" in s and "train_error" in s
               for s in epoch_spans)
