"""Tests for shard merging and incremental shard tailing."""

import json
import os

from repro.cluster import JobQueue, ShardTail, merge_shards
from repro.runtime import ResultStore
from repro.utils.serialization import append_jsonl


def _shard(run_dir, name, records):
    path = os.path.join(run_dir, "shards", f"worker-{name}.jsonl")
    append_jsonl(path, records)
    return path


def _cell(key, error, worker="w", **extra):
    record = {"key": key, "error": error, "confidence": 0.5, "worker": worker}
    record.update(extra)
    return record


def test_merge_is_idempotent_under_reruns(tmp_path):
    run_dir = str(tmp_path)
    _shard(run_dir, "a", [_cell("k1", 0.1), _cell("k2", 0.2)])
    first = merge_shards(run_dir)
    assert (first.merged, first.duplicates) == (2, 0)
    second = merge_shards(run_dir)
    assert (second.merged, second.duplicates) == (0, 2)
    # The canonical log did not grow on the second pass.
    with open(os.path.join(run_dir, "results.jsonl")) as handle:
        assert len(handle.readlines()) == 2
    store = ResultStore(run_dir)
    assert store.get("k1").error == 0.1 and store.get("k2").error == 0.2


def test_merge_dedupes_across_shards_and_keeps_metadata(tmp_path):
    run_dir = str(tmp_path)
    # Two workers executed the same requeued group: same keys, same results.
    _shard(run_dir, "a", [_cell("k1", 0.1, worker="a", kind="field", rate=0.01)])
    _shard(run_dir, "b", [_cell("k1", 0.1, worker="b"), _cell("k2", 0.2, worker="b")])
    stats = merge_shards(run_dir)
    assert stats.merged == 2 and stats.duplicates == 1
    with open(os.path.join(run_dir, "results.jsonl")) as handle:
        records = [json.loads(line) for line in handle]
    by_key = {record["key"]: record for record in records}
    assert len(by_key) == 2
    assert by_key["k1"]["kind"] == "field"  # worker annotations survive
    assert by_key["k1"]["rate"] == 0.01


def test_merge_skips_malformed_records(tmp_path):
    run_dir = str(tmp_path)
    path = _shard(run_dir, "a", [_cell("k1", 0.1)])
    with open(path, "a") as handle:
        handle.write('{"key": "k2", "error": "truncat')  # interrupted append
    stats = merge_shards(run_dir)
    assert stats.merged == 1


def test_merge_without_shards_is_a_noop(tmp_path):
    run_dir = str(tmp_path)
    stats = merge_shards(run_dir)
    assert (stats.shards, stats.records, stats.merged) == (0, 0, 0)
    assert len(ResultStore(run_dir)) == 0
    assert not os.path.exists(os.path.join(run_dir, "quarantine.jsonl"))


def test_merge_removes_nothing(tmp_path):
    """Merging only appends to ``results.jsonl``: shards, queue items and
    worker beacons stay, so verify can still trace every stored cell."""
    run_dir = str(tmp_path)
    queue = JobQueue(run_dir)
    queue.enqueue("a", {"jobs": [{"content_key": "k1"}]})
    item = queue.claim("w")
    shard = _shard(run_dir, "w", [_cell("k1", 0.1, item="a", fence=item.fence)])
    queue.complete("a")
    beacon = os.path.join(run_dir, "workers", "w")
    os.makedirs(os.path.dirname(beacon), exist_ok=True)
    with open(beacon, "w") as handle:
        handle.write("1\n")
    with open(shard, "rb") as handle:
        shard_bytes = handle.read()

    assert merge_shards(run_dir).merged == 1
    with open(shard, "rb") as handle:
        assert handle.read() == shard_bytes
    assert queue.done_ids() == ["a"]
    assert os.path.exists(beacon)
    assert ResultStore(run_dir).get("k1").error == 0.1


def test_shard_tail_reads_incrementally_and_tolerates_partial_lines(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    tail = ShardTail(path)
    assert tail.read_new() == []  # missing file
    with open(path, "w") as handle:
        handle.write(json.dumps({"key": "k1"}) + "\n")
        handle.write('{"key": "k2"')  # writer mid-append
    assert [r["key"] for r in tail.read_new()] == ["k1"]
    assert tail.read_new() == []  # partial line not consumed
    with open(path, "a") as handle:
        handle.write(', "error": 0.5}\n')
    assert [r["key"] for r in tail.read_new()] == ["k2"]  # whole record now


def test_shard_tail_counts_torn_terminated_lines(tmp_path):
    """A malformed line that *is* newline-terminated (a writer died and a
    later append supplied the newline) is unrecoverable: the tail skips it,
    keeps reading past it, and counts it as torn."""
    from repro import telemetry

    path = str(tmp_path / "shard.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"key": "k1"}) + "\n")
        handle.write('{"key": "k2", "error": 0.\n')  # torn, then terminated
        handle.write(json.dumps({"key": "k3"}) + "\n")
    tail = ShardTail(path)
    with telemetry.recording(str(tmp_path), name="tail", echo=None):
        assert [r["key"] for r in tail.read_new()] == ["k1", "k3"]
    from repro.telemetry.report import merged_run_metrics

    assert merged_run_metrics(str(tmp_path))["counters"]["io.torn_lines"] == 1
