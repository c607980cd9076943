"""Unit tests for the deterministic fault-injection harness."""

import json

import pytest

from repro import faults
from repro.biterror import make_error_fields
from repro.cluster import submit_spec, worker_loop
from repro.faults import FAULTS_ENV, FaultPlan, FaultRule, InjectedFault
from repro.quant.qat import quantize_model
from repro.runtime import SweepSpec


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no process-local plan installed."""
    faults.clear()
    yield
    faults.clear()


def test_rule_validation():
    with pytest.raises(ValueError, match="seam"):
        FaultRule(seam="teleport", kind="exception")
    with pytest.raises(ValueError, match="kind"):
        FaultRule(seam="claim", kind="meteor")
    with pytest.raises(ValueError, match="nth"):
        FaultRule(seam="claim", kind="exception", nth=0)
    with pytest.raises(ValueError, match="times"):
        FaultRule(seam="claim", kind="exception", times=0)
    with pytest.raises(ValueError, match="p"):
        FaultRule(seam="claim", kind="exception", p=0.0)
    with pytest.raises(ValueError, match="stall_s"):
        FaultRule(seam="claim", kind="stall", stall_s=-1.0)


def test_nth_arms_and_times_caps():
    plan = FaultPlan([FaultRule(seam="execute", kind="exception", nth=2, times=1)])
    plan.fire("execute", "item")  # visit 1: below nth
    with pytest.raises(InjectedFault):
        plan.fire("execute", "item")  # visit 2: armed
    plan.fire("execute", "item")  # visit 3: times budget spent
    assert plan.fired_counts() == {"execute:exception": 1}


def test_times_none_is_a_permanent_poison():
    plan = FaultPlan([FaultRule(seam="execute", kind="exception", times=None)])
    for _ in range(4):
        with pytest.raises(InjectedFault):
            plan.fire("execute", "item")
    assert plan.fired_counts() == {"execute:exception": 4}


def test_match_pattern_selects_tags():
    plan = FaultPlan(
        [FaultRule(seam="execute", kind="exception", match="group-a*", times=None)]
    )
    plan.fire("execute", "group-b1")  # no match, no visit recorded
    with pytest.raises(InjectedFault):
        plan.fire("execute", "group-a1")
    plan.fire("claim", "group-a1")  # wrong seam


def test_malloc_kind_raises_memory_error():
    plan = FaultPlan([FaultRule(seam="execute", kind="malloc", note="oom")])
    with pytest.raises(MemoryError, match="injected allocation failure"):
        plan.fire("execute", "item")
    plan.fire("execute", "item")  # times=1 default: second visit clean
    assert plan.fired_counts() == {"execute:malloc": 1}


def test_stall_sleeps_and_falls_through():
    import time

    plan = FaultPlan([FaultRule(seam="publish", kind="stall", stall_s=0.05)])
    start = time.monotonic()
    plan.fire("publish", "item")  # stalls, does not raise
    assert time.monotonic() - start >= 0.05
    plan.fire("publish", "item")  # times=1 default: second visit clean


def test_probabilistic_rules_replay_identically():
    def firings(seed):
        plan = FaultPlan(
            [FaultRule(seam="execute", kind="exception", p=0.5, times=None)],
            seed=seed,
        )
        fired = []
        for visit in range(40):
            try:
                plan.fire("execute", f"item-{visit % 5}")
                fired.append(False)
            except InjectedFault:
                fired.append(True)
        return fired

    assert firings(7) == firings(7)  # same seed: identical decisions
    assert any(firings(7)) and not all(firings(7))  # a real coin
    assert firings(7) != firings(8)  # the seed matters


def test_should_tear_is_cooperative_and_fire_ignores_torn_rules():
    plan = FaultPlan([FaultRule(seam="publish", kind="torn_write")])
    plan.fire("publish", "item")  # torn rules never fire() — no visit burned
    assert plan.should_tear("publish", "item")
    assert not plan.should_tear("publish", "item")  # times=1
    assert plan.fired_counts() == {"publish:torn_write": 1}
    # And the reverse: exception rules don't answer should_tear.
    plan2 = FaultPlan([FaultRule(seam="publish", kind="exception")])
    assert not plan2.should_tear("publish", "item")


def test_json_and_env_round_trip(monkeypatch):
    plan = FaultPlan(
        [
            FaultRule(seam="claim", kind="sigkill", nth=2, note="crashy"),
            FaultRule(seam="execute", kind="exception", match="group-a*",
                      times=None, p=0.25),
        ],
        seed=42,
    )
    restored = FaultPlan.from_json(plan.to_json())
    assert restored.rules == plan.rules
    assert restored.seed == plan.seed

    env = plan.to_env()
    assert set(env) == {FAULTS_ENV}
    monkeypatch.setenv(FAULTS_ENV, env[FAULTS_ENV])
    from_env = faults.plan_from_env()
    assert from_env.rules == plan.rules and from_env.seed == plan.seed

    monkeypatch.setenv(FAULTS_ENV, "{not json")
    with pytest.raises(json.JSONDecodeError):
        faults.plan_from_env()  # malformed schedules must not pass silently


def test_from_json_validates_every_rule_and_ignores_unknown_fields():
    """A hand-written schedule passes the same validators as a coded one;
    fields this version does not know are dropped, not fatal."""
    with pytest.raises(ValueError, match="seam"):
        FaultPlan.from_json({"rules": [{"seam": "teleport", "kind": "exception"}]})
    with pytest.raises(ValueError, match="times"):
        FaultPlan.from_json({"rules": [
            {"seam": "claim", "kind": "exception", "scope": "run", "times": None},
        ]})
    plan = FaultPlan.from_json({"rules": [
        {"seam": "claim", "kind": "sigkill", "comment": "from a newer writer"},
    ]})
    assert plan.rules == [FaultRule(seam="claim", kind="sigkill")]
    assert plan.seed == 0
    assert FaultPlan.from_json({}).rules == []


def test_submission_records_its_schedule_for_replay(blob_data, small_mlp, rquant8, tmp_path):
    """The manifest carries the submitted schedule verbatim, so the exact
    plan a failed run ran under can be re-armed through ``FAULTS_ENV``."""
    from repro.cluster.broker import read_manifest

    _, test = blob_data
    quantized = quantize_model(small_mlp, rquant8)
    spec = SweepSpec(test, batch_size=32)
    spec.add_model("m", small_mlp, rquant8, quantized)
    spec.add_field_set("f", make_error_fields(quantized.num_weights, 8, 2, seed=5))
    spec.add_field_jobs("m", "f", 0.01)
    plan = FaultPlan(
        [
            FaultRule(seam="execute", kind="exception", match="group-a*",
                      times=None, note="poison"),
            FaultRule(seam="publish", kind="stall_resume", stall_s=0.5, p=0.25),
            FaultRule(seam="heartbeat", kind="clock_skew", skew_s=90.0,
                      times=2, scope="run"),
        ],
        seed=99,
    )
    submit_spec(str(tmp_path / "chaos"), spec, fault_plan=plan)
    replayed = FaultPlan.from_json(read_manifest(str(tmp_path / "chaos"))["faults"])
    assert replayed.rules == plan.rules and replayed.seed == plan.seed
    assert replayed.to_env() == plan.to_env()

    submit_spec(str(tmp_path / "calm"), spec)
    assert read_manifest(str(tmp_path / "calm"))["faults"] is None


def test_install_precedence(blob_data, small_mlp, rquant8, monkeypatch, tmp_path):
    assert faults.current() is None
    faults.fire("execute", "x")  # no plan: free no-op
    assert not faults.should_tear("publish", "x")

    _, test = blob_data
    quantized = quantize_model(small_mlp, rquant8)
    spec = SweepSpec(test, batch_size=32)
    spec.add_model("m", small_mlp, rquant8, quantized)
    spec.add_field_set("f", make_error_fields(quantized.num_weights, 8, 2, seed=5))
    spec.add_field_jobs("m", "f", 0.01)
    submission = submit_spec(str(tmp_path), spec)
    poison = FaultPlan([FaultRule(seam="execute", kind="exception")])
    monkeypatch.setenv(FAULTS_ENV, poison.to_env()[FAULTS_ENV])
    # An installed plan, even an empty one, wins over the environment.
    mine = FaultPlan()
    faults.install(mine)
    stats = worker_loop(str(tmp_path), worker_id="w0", poll_interval=0.01)
    assert stats.failures == 0 and stats.items == len(submission.enqueued)
    assert faults.current() is mine
    faults.clear()
    assert faults.current() is None


def test_stall_resume_sleeps_and_survives():
    """The zombie-maker: a pause the process *outlives* (unlike sigkill), so
    the worker resumes after its lease has been reassigned elsewhere."""
    import time

    plan = FaultPlan(
        [FaultRule(seam="publish", kind="stall_resume", stall_s=0.05)]
    )
    start = time.monotonic()
    plan.fire("publish", "item")  # stalls, raises nothing, resumes
    assert time.monotonic() - start >= 0.05
    assert plan.fired_counts() == {"publish:stall_resume": 1}


def test_clock_skew_is_cooperative_and_reports_its_offset():
    plan = FaultPlan(
        [FaultRule(seam="heartbeat", kind="clock_skew", skew_s=120.0)]
    )
    plan.fire("heartbeat", "item")  # cooperative kinds never fire()
    assert plan.clock_skew("heartbeat", "item") == 120.0
    assert plan.clock_skew("heartbeat", "item") is None  # times=1 spent
    # Rules of other kinds do not answer the clock_skew query.
    plan2 = FaultPlan([FaultRule(seam="heartbeat", kind="exception")])
    assert plan2.clock_skew("heartbeat", "item") is None


def test_disk_full_is_cooperative():
    plan = FaultPlan([FaultRule(seam="publish", kind="disk_full")])
    plan.fire("publish", "item")  # no visit burned by fire()
    assert plan.should_fill_disk("publish", "item")
    assert not plan.should_fill_disk("publish", "item")  # times=1
    assert not plan.should_tear("publish", "item")  # distinct kinds


def test_run_scope_requires_a_finite_budget():
    with pytest.raises(ValueError, match="scope"):
        FaultRule(seam="execute", kind="exception", scope="orbit")
    with pytest.raises(ValueError, match="times"):
        FaultRule(seam="execute", kind="exception", scope="run", times=None)


def test_run_scoped_budget_is_shared_across_bound_plans(tmp_path):
    """Two plans bound to one run dir model two worker processes: the rule's
    firing budget is fleet-wide, claimed through O_EXCL slot files."""
    import os

    budget_dir = str(tmp_path / "faults")

    def make_plan():
        return FaultPlan(
            [FaultRule(seam="execute", kind="exception", times=1, scope="run")]
        ).bind(budget_dir)

    a, b = make_plan(), make_plan()
    with pytest.raises(InjectedFault):
        a.fire("execute", "item")  # worker A claims the only slot
    b.fire("execute", "item")  # worker B: budget spent fleet-wide
    a.fire("execute", "item")  # and A itself cannot re-fire
    assert os.listdir(budget_dir) == ["rule-0-slot-0"]
    assert a.fired_counts() == {"execute:exception": 1}
    assert b.fired_counts() == {}


def test_unbound_run_scope_falls_back_to_process_budget():
    """Without bind() (no run dir to share through) the rule still honors
    its local times budget — chaos in plain unit tests keeps working."""
    plan = FaultPlan(
        [FaultRule(seam="execute", kind="exception", times=1, scope="run")]
    )
    with pytest.raises(InjectedFault):
        plan.fire("execute", "item")
    plan.fire("execute", "item")  # local budget spent
