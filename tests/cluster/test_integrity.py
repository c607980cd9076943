"""The verify/repair audit: every check detects, repair restores clean.

The synthetic tests build a run directory by hand and seed one instance of
every corruption class the verifier knows, so detection is asserted per
check (not "something was found").  The end-to-end test proves a real
cluster run verifies clean, and the repair tests pin the two contracts the
ISSUE names: repair restores a verify-clean state, and it never touches an
intact record (byte-for-byte).
"""

import json
import os
import pathlib
import shutil
import time

import pytest

from repro.cluster import (
    JobQueue,
    QUARANTINE_FILENAME,
    RetryPolicy,
    merge_shards,
    repair_run_dir,
    submit_spec,
    verify_run_dir,
    worker_loop,
)
from repro.runtime import ResultStore
from repro.utils.serialization import (
    append_jsonl,
    jsonl_line,
    parse_jsonl_line,
    read_jsonl,
)

LEASE = 60.0


def _shard_record(key, worker="w1", item="item-a", fence=1):
    return {
        "key": key, "error": 0.1, "confidence": 0.9,
        "worker": worker, "item": item, "fence": fence,
    }


def _store_record(key, worker="w1", item="item-a"):
    # Canonical records carry provenance but (deliberately) no fence.
    return {
        "key": key, "error": 0.1, "confidence": 0.9,
        "worker": worker, "item": item,
    }


@pytest.fixture
def clean_run(tmp_path):
    """A hand-built quiesced run dir: item-a completed at fence 2 (one
    release along the way), item-b at fence 1, matching shard + store."""
    run_dir = str(tmp_path)
    queue = JobQueue(run_dir, lease_timeout=LEASE)
    os.makedirs(os.path.join(run_dir, "shards"))
    queue.enqueue("item-a", {"item": "item-a", "jobs": []})
    assert queue.claim("w0").fence == 1
    queue.release("item-a")
    assert queue.claim("w1").fence == 2
    queue.complete("item-a")
    queue.enqueue("item-b", {"item": "item-b", "jobs": []})
    queue.claim("w1")
    queue.complete("item-b")
    shard = os.path.join(run_dir, "shards", "worker-w1.jsonl")
    append_jsonl(shard, [
        _shard_record("a1", item="item-a", fence=2),
        _shard_record("b1", item="item-b", fence=1),
    ], checksum=True)
    append_jsonl(os.path.join(run_dir, "results.jsonl"), [
        _store_record("a1", item="item-a"),
        _store_record("b1", item="item-b"),
    ], checksum=True)
    return run_dir, queue, shard


def _corrupt(line):
    """An intact checksummed line with its body flipped: parses, fails."""
    tampered = line.replace('"error": 0.1', '"error": 0.5')
    assert tampered != line
    return tampered


def _seed_corruptions(run_dir, queue, shard, duplicate_item=True):
    """One instance of every corruption class; returns expected counts."""
    store = os.path.join(run_dir, "results.jsonl")
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn-shar')  # killed writer
        handle.write("\n")
        handle.write(_corrupt(jsonl_line(_shard_record("c1"), checksum=True)))
        # A zombie's post-lease-loss publishes: fence 1 < item-a's epoch 2.
        handle.write(jsonl_line(
            _shard_record("z1", worker="zombie", fence=1), checksum=True))
        handle.write(jsonl_line(
            _shard_record("z2", worker="zombie", fence=1), checksum=True))
    with open(store, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn-stor')
        handle.write("\n")
        handle.write(_corrupt(jsonl_line(_store_record("c2"), checksum=True)))
        handle.write(jsonl_line(_store_record("a1"), checksum=True))  # dup
        handle.write(jsonl_line(
            _store_record("p1", item="item-p"), checksum=True))  # dead letter
        # A stale-fenced shard line that slipped into the canonical store:
        # its provenance traces back to zombie fence 1.
        handle.write(jsonl_line(
            _store_record("z2", worker="zombie"), checksum=True))
    # Dead-letter item-p so its key p1 counts as leaked.
    dl_queue = JobQueue(
        run_dir, lease_timeout=LEASE,
        retry=RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0),
    )
    dl_queue.enqueue("item-p", {"item": "item-p",
                                "jobs": [{"content_key": "p1"}]})
    item = dl_queue.claim("w1")
    assert dl_queue.nack(item, {"exc_type": "Boom"}, worker="w1") == "failed"
    # An orphaned lease (stale past the timeout, never requeued) ...
    queue.enqueue("item-o", {"item": "item-o", "jobs": []})
    queue.claim("w1")
    old = time.time() - 10 * LEASE
    os.utime(queue._path("leased", "item-o"), (old, old))
    # ... and a lease heartbeaten into the future by a skewed clock.
    queue.enqueue("item-s", {"item": "item-s", "jobs": []})
    queue.claim("w1")
    future = time.time() + 10 * LEASE
    os.utime(queue._path("leased", "item-s"), (future, future))
    expected = {
        "queue.orphan_lease": 1,
        "queue.clock_skew": 1,
        "shard.torn_line": 1,
        "shard.corrupt_line": 1,
        "shard.stale_fence": 2,
        "store.torn_line": 1,
        "store.corrupt_line": 1,
        "store.duplicate_key": 1,
        "store.dead_letter_leak": 1,
        "store.fence_leak": 1,
    }
    if duplicate_item:
        # The same item id in two state directories (a restored backup).
        shutil.copyfile(
            queue._path("done", "item-b"),
            queue._path("pending", "item-b"),
        )
        expected["queue.duplicate_item"] = 1
    return expected


def test_clean_run_dir_verifies_clean(clean_run):
    run_dir, _, _ = clean_run
    report = verify_run_dir(run_dir, lease_timeout=LEASE)
    assert report.clean, report.to_json()
    assert report.counts() == {}
    payload = report.to_json()
    assert payload["clean"] is True and payload["findings"] == []


def test_verify_detects_every_seeded_corruption_class(clean_run):
    run_dir, queue, shard = clean_run
    expected = _seed_corruptions(run_dir, queue, shard)
    report = verify_run_dir(run_dir, lease_timeout=LEASE)
    assert report.counts() == expected
    # Findings carry usable evidence, not just a class name.
    by_check = {f.check: f for f in report.findings}
    assert by_check["shard.stale_fence"].item == "item-a"
    assert by_check["shard.stale_fence"].worker == "zombie"
    assert by_check["store.dead_letter_leak"].key == "p1"
    assert by_check["store.fence_leak"].key == "z2"
    assert by_check["queue.orphan_lease"].item == "item-o"
    assert by_check["queue.clock_skew"].item == "item-s"
    assert by_check["store.duplicate_key"].key == "a1"
    # to_json round-trips through plain JSON (the CI artifact format).
    assert json.loads(json.dumps(report.to_json()))["counts"] == expected


def test_verify_only_filters_to_named_checks_and_families(clean_run):
    run_dir, queue, shard = clean_run
    expected = _seed_corruptions(run_dir, queue, shard)

    exact = verify_run_dir(
        run_dir, lease_timeout=LEASE, only=["store.duplicate_key"]
    )
    assert exact.counts() == {"store.duplicate_key": 1}

    family = verify_run_dir(run_dir, lease_timeout=LEASE, only=["queue"])
    assert family.counts() == {
        check: count
        for check, count in expected.items()
        if check.startswith("queue.")
    }

    combined = verify_run_dir(
        run_dir, lease_timeout=LEASE, only=["shard", "store.torn_line"]
    )
    assert combined.counts() == {
        "shard.torn_line": 1,
        "shard.corrupt_line": 1,
        "shard.stale_fence": 2,
        "store.torn_line": 1,
    }
    # A filter matching nothing reports clean — the filter narrows the
    # report, never invents findings.
    assert verify_run_dir(run_dir, lease_timeout=LEASE, only=["nope"]).clean


def test_repair_dry_run_plans_everything_and_writes_nothing(clean_run):
    run_dir, queue, shard = clean_run
    store = os.path.join(run_dir, "results.jsonl")
    _seed_corruptions(run_dir, queue, shard, duplicate_item=False)
    with open(shard, encoding="utf-8") as handle:
        shard_before = handle.read()
    with open(store, encoding="utf-8") as handle:
        store_before = handle.read()
    report_before = verify_run_dir(run_dir, lease_timeout=LEASE)

    stats = repair_run_dir(run_dir, lease_timeout=LEASE, dry_run=True)
    assert stats.dry_run
    assert stats.changed  # "would change", counted exactly like a real run
    assert stats.leases_reset == 1
    assert stats.leases_requeued == 1
    assert stats.shard_lines_quarantined == 4
    assert stats.store_lines_quarantined == 5
    actions = sorted(p["action"] for p in stats.planned)
    assert actions == sorted(
        ["reset_lease", "requeue_lease"] + ["quarantine"] * 9
    )
    by_action = {p["action"]: p for p in stats.planned}
    assert by_action["reset_lease"]["item"] == "item-s"
    assert by_action["requeue_lease"]["item"] == "item-o"
    quarantines = [p for p in stats.planned if p["action"] == "quarantine"]
    assert all(p["source"] for p in quarantines)
    assert {p["reason"] for p in quarantines} == {
        "torn", "checksum", "fence_stale", "duplicate_key", "dead_letter",
    }

    # Nothing on disk moved: files, quarantine, queue and verdict are as
    # they were before the dry run.
    with open(shard, encoding="utf-8") as handle:
        assert handle.read() == shard_before
    with open(store, encoding="utf-8") as handle:
        assert handle.read() == store_before
    assert not os.path.exists(os.path.join(run_dir, QUARANTINE_FILENAME))
    after = verify_run_dir(run_dir, lease_timeout=LEASE)
    assert after.counts() == report_before.counts()
    # The real repair still works afterwards and does what the plan said.
    real = repair_run_dir(run_dir, lease_timeout=LEASE)
    assert not real.dry_run and real.changed
    assert verify_run_dir(run_dir, lease_timeout=LEASE).clean


def test_repair_dry_run_on_a_clean_run_dir_plans_nothing(clean_run):
    run_dir, _, _ = clean_run
    stats = repair_run_dir(run_dir, lease_timeout=LEASE, dry_run=True)
    assert stats.dry_run and not stats.changed and not stats.planned


@pytest.mark.parametrize("command", ["status", "verify", "repair"])
def test_cli_refuses_a_path_that_is_not_a_run_dir(tmp_path, command, capsys):
    from repro.cluster.cli import main as cluster_main

    missing = str(tmp_path / "no" / "such" / "dir")
    with pytest.raises(SystemExit) as exit_info:
        cluster_main([command, missing])
    assert exit_info.value.code == 2
    assert "no queue/" in capsys.readouterr().err
    assert not os.path.exists(missing)


@pytest.mark.parametrize("audit", [verify_run_dir, repair_run_dir])
def test_audits_refuse_a_dir_without_a_queue_and_create_nothing(tmp_path, audit):
    with pytest.raises(FileNotFoundError, match="no queue/"):
        audit(str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_verify_only_and_repair_dry_run_cli(clean_run, capsys):
    from repro.cluster.cli import main as cluster_main

    run_dir, queue, shard = clean_run
    _seed_corruptions(run_dir, queue, shard, duplicate_item=False)

    code = cluster_main([
        "verify", run_dir, "--lease-timeout", str(LEASE),
        "--only", "store.duplicate_key", "--json",
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"store.duplicate_key": 1}

    code = cluster_main([
        "repair", run_dir, "--lease-timeout", str(LEASE), "--dry-run",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "dry run" in out and "would" in out
    assert "item-s" in out and "item-o" in out
    # Dry run wrote nothing: the damage still verifies dirty.
    assert cluster_main(["verify", run_dir,
                         "--lease-timeout", str(LEASE)]) == 1
    capsys.readouterr()


def test_repair_restores_verify_clean_without_touching_intact_records(
    clean_run,
):
    run_dir, queue, shard = clean_run
    store = os.path.join(run_dir, "results.jsonl")
    with open(shard, encoding="utf-8") as handle:
        intact_shard = handle.read()
    with open(store, encoding="utf-8") as handle:
        intact_store = handle.read()
    # duplicate_item is detect-only (no mechanical winner), so the
    # repair-to-clean contract is asserted over the other ten classes.
    _seed_corruptions(run_dir, queue, shard, duplicate_item=False)

    stats = repair_run_dir(run_dir, lease_timeout=LEASE)
    assert stats.changed
    assert stats.leases_reset == 1  # item-s stamped back to now
    assert stats.leases_requeued == 1  # item-o returned to pending
    assert stats.shard_lines_quarantined == 4  # torn, corrupt, z1, z2
    assert stats.store_lines_quarantined == 5  # torn, corrupt, dup, p1, z2
    assert verify_run_dir(run_dir, lease_timeout=LEASE).clean
    assert "item-o" in JobQueue(run_dir).pending_ids()

    # Intact lines survive byte-for-byte: repair only ever deletes.
    with open(shard, encoding="utf-8") as handle:
        assert handle.read() == intact_shard
    with open(store, encoding="utf-8") as handle:
        assert handle.read() == intact_store

    entries = read_jsonl(os.path.join(run_dir, QUARANTINE_FILENAME))
    reasons = sorted(entry["reason"] for entry in entries)
    assert reasons == sorted([
        "torn", "checksum", "fence_stale", "fence_stale",  # shard
        "torn", "checksum", "duplicate_key", "dead_letter", "fence_stale",
    ])
    # Undecodable lines keep their raw bytes; rejected records their JSON.
    raws = [entry for entry in entries if "raw" in entry]
    assert len(raws) == 4 and all("record" not in entry for entry in raws)
    zombies = [e for e in entries if e["reason"] == "fence_stale"
               and e["source"].startswith("shards/")]
    assert {e["record"]["key"] for e in zombies} == {"z1", "z2"}

    # Idempotent: a second pass finds nothing left to change.
    again = repair_run_dir(run_dir, lease_timeout=LEASE)
    assert not again.changed


def test_repair_is_a_noop_on_a_clean_run_dir(clean_run):
    run_dir, _, shard = clean_run
    store = os.path.join(run_dir, "results.jsonl")
    before = os.stat(store).st_mtime_ns, os.stat(shard).st_mtime_ns
    stats = repair_run_dir(run_dir, lease_timeout=LEASE)
    assert not stats.changed
    # Untouched means untouched: no rewrite of already-clean files.
    assert (os.stat(store).st_mtime_ns, os.stat(shard).st_mtime_ns) == before
    assert not os.path.exists(os.path.join(run_dir, QUARANTINE_FILENAME))


def test_verify_and_repair_cli_workflow(clean_run, capsys, tmp_path):
    from repro.cluster.cli import main as cluster_main

    run_dir, queue, shard = clean_run
    assert cluster_main(["verify", run_dir, "--lease-timeout", str(LEASE)]) == 0
    assert "clean" in capsys.readouterr().out

    _seed_corruptions(run_dir, queue, shard, duplicate_item=False)
    out_path = str(tmp_path / "artifacts" / "verify.json")
    os.makedirs(os.path.dirname(out_path))
    code = cluster_main([
        "verify", run_dir, "--lease-timeout", str(LEASE),
        "--json", "--out", out_path,
    ])
    assert code == 1
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["clean"] is False
    with open(out_path, encoding="utf-8") as handle:
        artifact = json.load(handle)
    assert artifact["counts"]["shard.stale_fence"] == 2

    assert cluster_main(["repair", run_dir,
                         "--lease-timeout", str(LEASE)]) == 0
    out = capsys.readouterr().out
    assert "repair:" in out and "clean" in out
    assert cluster_main(["verify", run_dir,
                         "--lease-timeout", str(LEASE)]) == 0


def test_repair_cli_refuses_live_workers_without_force(clean_run, capsys):
    from repro.cluster.cli import main as cluster_main

    run_dir, _, _ = clean_run
    beacon_dir = os.path.join(run_dir, "workers")
    os.makedirs(beacon_dir, exist_ok=True)
    with open(os.path.join(beacon_dir, "busy"), "w", encoding="utf-8") as fh:
        fh.write("123\n")
    assert cluster_main(["repair", run_dir]) == 2
    assert "live worker" in capsys.readouterr().err
    assert cluster_main(["repair", run_dir, "--force",
                         "--lease-timeout", str(LEASE)]) == 0


def test_a_duplicated_key_reads_as_its_first_record_before_and_after_repair(clean_run):
    """The store's load, ``put`` and ``repair`` agree on which copy wins."""
    run_dir, _, _ = clean_run
    store_path = os.path.join(run_dir, "results.jsonl")
    append_jsonl(store_path, [{**_store_record("a1"), "error": 0.9}], checksum=True)
    assert ResultStore(run_dir).get("a1").error == 0.1
    repair_run_dir(run_dir, lease_timeout=LEASE)
    assert [r["error"] for r in read_jsonl(store_path) if r["key"] == "a1"] == [0.1]
    assert ResultStore(run_dir).get("a1").error == 0.1


def test_real_cluster_run_verifies_clean_end_to_end(grid, tmp_path):
    """The whole stack — fenced claims, checksummed publishes, guarded
    merge — leaves a run directory the auditor finds nothing wrong with."""
    run_dir = str(tmp_path)
    submit_spec(run_dir, grid())
    worker_loop(run_dir, worker_id="w1", poll_interval=0.01)
    merge_shards(run_dir)
    report = verify_run_dir(run_dir)
    assert report.clean, report.to_json()
    assert len(read_jsonl(os.path.join(run_dir, "results.jsonl"))) > 0


def _finished_run(grid, run_dir, merge=True):
    """A real run drained by one in-process worker (and merged)."""
    submit_spec(run_dir, grid())
    worker_loop(run_dir, worker_id="w1", poll_interval=0.01)
    if merge:
        merge_shards(run_dir)


def _lose_one_cell(run_dir):
    """Delete a finished run's first stored cell from the store and the
    shard; returns its canonical record."""
    store = os.path.join(run_dir, "results.jsonl")
    lost = read_jsonl(store)[0]
    for path in (store, os.path.join(run_dir, "shards", "worker-w1.jsonl")):
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        kept = [line for line in lines if parse_jsonl_line(line)[0]["key"] != lost["key"]]
        assert len(kept) == len(lines) - 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)
    return lost


def test_verify_flags_a_done_items_cell_lost_from_store_and_shard(grid, tmp_path):
    """A finished run that lost one cell from both the canonical store and
    its shard is incomplete; items that owe no results yet are not."""
    run_dir = str(tmp_path)
    _finished_run(grid, run_dir)
    lost = _lose_one_cell(run_dir)
    queue = JobQueue(run_dir)
    for state in ("pending", "leased", "failed"):
        item_id = f"item-{state}"
        queue._write(state, item_id, {
            "item": item_id, "jobs": [{"content_key": f"{state}-key"}],
        })

    report = verify_run_dir(run_dir)
    assert report.counts() == {"store.missing_key": 1}, report.to_json()
    (finding,) = report.findings
    assert (finding.key, finding.item) == (lost["key"], lost["item"])
    assert finding.source == f"queue/done/{lost['item']}.json"


def test_a_finished_run_verifies_clean_before_its_merge(grid, tmp_path):
    """Cells a worker has published but nobody has merged yet are in the
    shards, so they are not missing."""
    run_dir = str(tmp_path)
    _finished_run(grid, run_dir, merge=False)
    assert JobQueue(run_dir).done_ids()
    assert read_jsonl(os.path.join(run_dir, "results.jsonl")) == []
    report = verify_run_dir(run_dir)
    assert report.clean, report.to_json()


def test_repair_leaves_a_lost_cell_for_verify_to_report(grid, tmp_path):
    """No rewrite brings a lost cell back: repair plans and changes nothing
    for it, and verify keeps reporting it."""
    run_dir = str(tmp_path)
    _finished_run(grid, run_dir)
    lost = _lose_one_cell(run_dir)
    paths = [pathlib.Path(run_dir, "results.jsonl"),
             pathlib.Path(run_dir, "shards", "worker-w1.jsonl")]
    before = [path.read_bytes() for path in paths]

    dry = repair_run_dir(run_dir, dry_run=True)
    assert not dry.changed and dry.planned == []
    assert not repair_run_dir(run_dir).changed
    assert [path.read_bytes() for path in paths] == before
    assert not os.path.exists(os.path.join(run_dir, QUARANTINE_FILENAME))
    report = verify_run_dir(run_dir)
    assert [(f.check, f.key) for f in report.findings] == [
        ("store.missing_key", lost["key"])
    ]


def test_verify_flags_expected_cells_whose_queue_item_was_lost(grid, tmp_path):
    """A pending item deleted before any claim takes its cells out of every
    queue state: the drained run stores all other cells, and only the
    manifest still names the lost ones.  Repair cannot bring them back;
    resubmitting the spec re-enqueues the group, whose id no state holds."""
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    queue = JobQueue(run_dir)
    lost = submission.enqueued[0]
    lost_keys = [job["content_key"] for job in queue._read("pending", lost)["jobs"]]
    os.unlink(os.path.join(queue.queue_dir, "pending", f"{lost}.json"))
    worker_loop(run_dir, worker_id="w1", poll_interval=0.01)

    report = verify_run_dir(run_dir)
    assert report.counts() == {"queue.missing_item": len(lost_keys)}, report.to_json()
    assert [finding.key for finding in report.findings] == lost_keys
    assert {finding.source for finding in report.findings} == {"manifest.json"}
    assert not repair_run_dir(run_dir).changed
    assert verify_run_dir(run_dir).counts() == report.counts()

    assert submit_spec(run_dir, grid()).enqueued == [lost]
    worker_loop(run_dir, worker_id="w1", poll_interval=0.01)
    assert verify_run_dir(run_dir).clean


@pytest.mark.parametrize("state", ["pending", "leased", "done", "failed", None])
def test_a_lost_cell_is_a_missing_item_only_once_no_queue_item_lists_it(
    grid, tmp_path, state,
):
    """The third condition of ``queue.missing_item``: a cell in neither the
    store nor a shard is still owed while an item in any queue state lists
    it (a done item's lost cell is ``store.missing_key`` instead).  Only
    with the item file gone (``state=None``) is the cell reported lost."""
    run_dir = str(tmp_path)
    _finished_run(grid, run_dir)
    lost = _lose_one_cell(run_dir)
    queue = JobQueue(run_dir)
    done_path = queue._path("done", lost["item"])
    if state is None:
        os.unlink(done_path)
    elif state != "done":
        os.rename(done_path, queue._path(state, lost["item"]))

    report = verify_run_dir(run_dir)
    missing = [f.key for f in report.findings if f.check == "queue.missing_item"]
    assert missing == ([lost["key"]] if state is None else []), report.to_json()
    assert ("store.missing_key" in report.counts()) == (state == "done")


@pytest.mark.parametrize("holder", ["results.jsonl", "shard"])
def test_a_stored_cell_needs_no_queue_item(grid, tmp_path, holder):
    """The first two conditions: once a cell is in the canonical store or
    in a shard line, deleting every queue item that listed it loses no
    work, so verify stays clean."""
    run_dir = str(tmp_path)
    _finished_run(grid, run_dir, merge=holder == "results.jsonl")
    if holder == "results.jsonl":
        shutil.rmtree(os.path.join(run_dir, "shards"))
    queue = JobQueue(run_dir)
    assert queue.done_ids()
    for item_id in queue.done_ids():
        os.unlink(queue._path("done", item_id))
    report = verify_run_dir(run_dir)
    assert report.clean, report.to_json()


def test_a_manifest_without_expected_keys_reports_no_missing_items(grid, tmp_path):
    """Run directories whose manifest lists no expected cells (written
    before the manifest recorded them) have nothing to reconcile against:
    verify audits the rest as before."""
    run_dir = str(tmp_path)
    _finished_run(grid, run_dir)
    lost = _lose_one_cell(run_dir)
    queue = JobQueue(run_dir)
    os.unlink(queue._path("done", lost["item"]))
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert lost["key"] in manifest.pop("expected_keys")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    report = verify_run_dir(run_dir)
    assert report.clean, report.to_json()


def test_verify_cli_fails_a_run_that_lost_a_queue_item(grid, tmp_path, capsys):
    from repro.cluster.cli import main as cluster_main

    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    queue = JobQueue(run_dir)
    lost = submission.enqueued[-1]
    lost_keys = [job["content_key"] for job in queue._read("pending", lost)["jobs"]]
    os.unlink(queue._path("pending", lost))
    worker_loop(run_dir, worker_id="w1", poll_interval=0.01)

    assert cluster_main(["verify", run_dir, "--json", "--only", "queue"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == {"queue.missing_item": len(lost_keys)}
    assert cluster_main(["verify", run_dir, "--only", "store"]) == 0


def test_verify_cli_fails_a_run_that_lost_a_cell(grid, tmp_path, capsys):
    from repro.cluster.cli import main as cluster_main

    run_dir = str(tmp_path)
    _finished_run(grid, run_dir)
    assert cluster_main(["verify", run_dir]) == 0
    capsys.readouterr()
    _lose_one_cell(run_dir)
    assert cluster_main(["verify", run_dir, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["counts"] == {"store.missing_key": 1}
