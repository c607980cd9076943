"""End-to-end service tests: fair dispatch, finalization, reports, CLI.

The acceptance property at the heart of this file: a two-tenant service
run drains both tenants to per-tenant canonical stores that hold exactly
the cells a solo run of each spec produces — same keys, same values, zero
duplicates — because every service dispatch funnels through the unchanged
single-run execution body.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro import telemetry
from repro.cluster import JobQueue
from repro.runtime import ResultStore, SerialExecutor, run_sweep
from repro.service import (
    ServiceRegistry,
    service_status,
    service_worker_loop,
    tenant_report_data,
)
from repro.service.cli import main as service_main
from repro.telemetry.report import load_run_records, merged_run_metrics
from repro.utils.serialization import atomic_write_json, read_jsonl


@pytest.fixture(autouse=True)
def no_recorder_leaks():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture
def registry(tmp_path):
    return ServiceRegistry(str(tmp_path / "svc"))


def canonical_rows(run_dir):
    """The topology-independent view of a canonical store: result facts only."""
    rows = [
        (record["key"], record["error"], record["confidence"])
        for record in read_jsonl(os.path.join(run_dir, "results.jsonl"))
        if isinstance(record.get("key"), str) and "error" in record
    ]
    return sorted(rows)


def test_two_tenants_drain_to_solo_identical_stores(registry, grid):
    spec_a, spec_b = grid(), grid(rates=(0.02,), chip_rate=0.02)
    registry.submit("alice", spec_a, priority=2.0)
    registry.submit("bob", spec_b)
    stats = service_worker_loop(registry.service_dir, worker_id="w0", seed=0)
    assert stats.items > 0
    assert sorted(stats.per_tenant) == ["alice", "bob"]
    assert sorted(stats.finalized) == ["alice", "bob"]

    for tenant_id, spec_builder in (
        ("alice", lambda: grid()),
        ("bob", lambda: grid(rates=(0.02,), chip_rate=0.02)),
    ):
        tenant = registry.get(tenant_id)
        assert tenant.state == "done"
        run_dir = registry.tenant_run_dir(tenant_id)
        assert JobQueue(run_dir).is_drained()
        # Exact-value equality with a solo serial run of the same spec.
        store = ResultStore(run_dir)
        solo = run_sweep(spec_builder(), executor=SerialExecutor())
        assert len(store) == len(solo)
        assert all(store.get(key) == cell for key, cell in solo.items())
        # Zero duplicate content keys in the merged canonical log.
        rows = canonical_rows(run_dir)
        keys = [key for key, _, _ in rows]
        assert len(keys) == len(set(keys))
        # And the canonical rows match what a solo run would put there.
        assert rows == sorted(
            (key, cell.error, cell.confidence) for key, cell in solo.items()
        )


def test_service_dispatch_is_deterministic_under_a_fixed_seed(registry, grid):
    """Same seed + same single-worker service → the same dispatch order."""
    sequences = []
    for attempt in range(2):
        registry2 = ServiceRegistry(
            os.path.join(registry.service_dir, f"run{attempt}")
        )
        registry2.submit("alice", grid(), priority=2.0)
        registry2.submit("bob", grid(rates=(0.02,)))
        stats = service_worker_loop(registry2.service_dir, worker_id="w0", seed=7)
        order = []
        for tenant_id, tenant_stats in stats.per_tenant.items():
            for item_id in tenant_stats.item_ids:
                order.append((tenant_id, item_id))
        sequences.append(sorted(order))
        assert stats.items == len(order)
    assert sequences[0] == sequences[1]


def test_paused_tenants_are_not_served(registry, grid):
    registry.submit("alice", grid())
    registry.submit("bob", grid(rates=(0.02,)))
    registry.pause("bob")
    stats = service_worker_loop(registry.service_dir, worker_id="w0")
    assert "bob" not in stats.per_tenant
    assert registry.get("alice").state == "done"
    assert registry.get("bob").state == "paused"
    assert not JobQueue(registry.tenant_run_dir("bob")).is_drained()
    # Resume → a second worker pass drains bob too.
    registry.resume("bob")
    stats = service_worker_loop(registry.service_dir, worker_id="w1")
    assert "bob" in stats.per_tenant
    assert registry.get("bob").state == "done"


def test_locality_hit_rate_is_counted_in_telemetry(registry, grid):
    with telemetry.recording(registry.service_dir, name="submitter", echo=None):
        registry.submit("alice", grid(), priority=1.0)
        registry.submit("bob", grid(rates=(0.02, 0.04)), priority=1.0)
    # The tenant manifests carry the telemetry flag; the worker configures
    # its own sink in the *service* dir and records dispatch decisions.
    assert not telemetry.enabled()
    stats = service_worker_loop(registry.service_dir, worker_id="w0", seed=0)
    assert not telemetry.enabled()
    merged = merged_run_metrics(registry.service_dir)
    counters = merged["counters"]
    assert counters.get("service.locality_hits", 0) == stats.locality_hits
    assert counters.get("service.locality_misses", 0) == stats.locality_misses
    assert stats.locality_hits + stats.locality_misses == stats.items
    # Two tenants, one worker: at least one cold dispatch per tenant, and
    # with fair interleaving the warm-slack window still yields hits.
    assert stats.locality_misses >= 2
    assert stats.locality_hits > 0
    spans = [
        r for r in load_run_records(registry.service_dir)
        if r.get("type") == "span" and r.get("name") == "service.dispatch"
    ]
    claimed = [s for s in spans if s.get("claimed")]
    assert len(claimed) == stats.items
    assert {s["tenant"] for s in claimed} == {"alice", "bob"}
    assert all(s["reason"] in ("leader", "warm", "steal") for s in spans)


def test_multiple_workers_share_the_service(registry, grid):
    registry.submit("alice", grid(), priority=1.0)
    registry.submit("bob", grid(rates=(0.02,), chip_rate=0.02))
    stats_a = service_worker_loop(registry.service_dir, worker_id="w0", seed=0)
    stats_b = service_worker_loop(registry.service_dir, worker_id="w1", seed=1)
    # The second worker found a drained service (the first was sequential),
    # but both exits leave every tenant done and every store exact.
    assert stats_a.items > 0 and stats_b.items == 0
    for tenant_id in ("alice", "bob"):
        assert registry.get(tenant_id).state == "done"


def test_failed_tenant_lands_in_failed_state(registry, grid, monkeypatch):
    from repro.cluster.queue import RetryPolicy

    registry.submit(
        "poison", grid(rates=(0.005,)),
        retry=RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0),
    )

    def explode(*args, **kwargs):
        raise RuntimeError("poisoned group")

    monkeypatch.setattr("repro.cluster.worker.execute_group", explode)
    stats = service_worker_loop(registry.service_dir, worker_id="w0")
    assert stats.failures > 0
    tenant = registry.get("poison")
    assert tenant.state == "failed"
    assert JobQueue(registry.tenant_run_dir("poison")).failed_ids()


def test_service_status_snapshot(registry, grid):
    registry.submit("alice", grid(), priority=2.0)
    status = service_status(registry.service_dir)
    entry = status["tenants"]["alice"]
    assert entry["state"] == "queued"
    assert entry["priority"] == 2.0
    assert entry["queue"]["pending"] > 0
    assert not entry["complete"]
    service_worker_loop(registry.service_dir, worker_id="w0")
    status = service_status(registry.service_dir)
    entry = status["tenants"]["alice"]
    assert entry["state"] == "done"
    assert entry["complete"]
    assert entry["stored"] == entry["expected"]
    assert entry["queue"]["pending"] == 0


def test_tenant_report_groups_series_by_rate(registry, grid):
    registry.submit("alice", grid(rates=(0.005, 0.01)))
    service_worker_loop(registry.service_dir, worker_id="w0")
    report = tenant_report_data(registry.service_dir)
    entry = report["alice"]
    assert entry["state"] == "done"
    assert entry["cells"] > 0
    rates = {series["rate"] for series in entry["series"]}
    # The swept rates, plus the spec's clean (rate-0) baseline cell.
    assert rates >= {0.005, 0.01}
    for series in entry["series"]:
        assert series["cells"] >= 1
        assert series["min_error"] <= series["mean_error"] <= series["max_error"]
    with pytest.raises(KeyError, match="unknown tenant"):
        tenant_report_data(registry.service_dir, tenant_ids=["ghost"])


def _record_kv_backend(registry, tenant_id):
    """Rewrite the tenant's manifest as a submission on the removed kv
    queue backend recorded it."""
    manifest = registry.tenant_manifest(tenant_id)
    manifest["queue_backend"] = "kv"
    atomic_write_json(
        os.path.join(registry.tenant_run_dir(tenant_id), "manifest.json"), manifest
    )


def test_a_tenant_submitted_on_the_kv_backend_is_refused(registry, grid):
    """Its items lived outside queue/: a worker must not call it drained."""
    registry.submit("alice", grid())
    _record_kv_backend(registry, "alice")
    with pytest.raises(ValueError, match="queue_backend"):
        service_worker_loop(registry.service_dir, worker_id="w0")
    assert registry.get("alice").state == "queued"


def test_service_status_refuses_a_kv_tenant(registry, grid):
    registry.submit("alice", grid())
    _record_kv_backend(registry, "alice")
    with pytest.raises(ValueError, match="queue_backend"):
        service_status(registry.service_dir)


@pytest.mark.parametrize("command", ["status", "verify"])
def test_cli_refuses_a_path_that_is_not_a_service_dir(tmp_path, command, capsys):
    missing = str(tmp_path / "no-such-service")
    with pytest.raises(SystemExit) as exit_info:
        service_main([command, missing])
    assert exit_info.value.code == 2
    assert "tenants.jsonl" in capsys.readouterr().err
    assert not os.path.exists(missing)


def test_cli_end_to_end(registry, grid, tmp_path, capsys):
    spec_path = str(tmp_path / "spec.pkl")
    with open(spec_path, "wb") as handle:
        pickle.dump(grid(), handle)
    service_dir = registry.service_dir
    assert service_main(
        ["submit", service_dir, "alice", "--spec", spec_path, "--priority", "2"]
    ) == 0
    assert "tenant alice" in capsys.readouterr().out
    assert service_main(["pause", service_dir, "alice"]) == 0
    assert service_main(["resume", service_dir, "alice"]) == 0
    capsys.readouterr()
    assert service_main(["worker", service_dir, "--id", "w0"]) == 0
    out = capsys.readouterr().out
    assert "service worker w0" in out and "1 tenant(s) finalized" in out
    assert service_main(["status", service_dir, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["tenants"]["alice"]["state"] == "done"
    assert service_main(["report", service_dir, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alice"]["cells"] > 0
    assert service_main(["report", service_dir]) == 0
    assert "RErr vs rate" in capsys.readouterr().out
    assert service_main(["verify", service_dir]) == 0
    assert "tenant alice: clean" in capsys.readouterr().out
    assert service_main(["workers", service_dir]) == 0
    assert "w0" in capsys.readouterr().out  # beacon still fresh
