"""Cluster workers share the host's CPUs, and a fork never inherits a dead pool."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro.cluster.worker as cluster_worker
from helpers import thread_budget
from repro.biterror import make_error_fields
from repro.cluster import ClusterExecutor, JobQueue, spawn_local_worker, submit_spec
from repro.models import MLP
from repro.nn import _threads
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SweepSpec, run_sweep
from repro.utils.serialization import append_jsonl, read_jsonl

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


def cpu_share(workers):
    return max(1, len(os.sched_getaffinity(0)) // workers)


@pytest.fixture
def no_thread_vars(monkeypatch):
    for name in _threads.THREAD_VARS:
        monkeypatch.delenv(name, raising=False)


def _spec(blob_data, rates=(0.01, 0.02, 0.03, 0.04)):
    _, test = blob_data
    model = MLP(in_features=test.input_shape[0], num_classes=test.num_classes,
                hidden=(8,), rng=np.random.default_rng(1))
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    spec = SweepSpec(test, batch_size=16)
    spec.add_model("m", model, quantizer, quantized)
    spec.add_field_set("f", make_error_fields(quantized.num_weights, 8, 2, seed=3))
    for rate in rates:
        spec.add_field_jobs("m", "f", rate)
    return spec


@pytest.fixture
def budgets_log(monkeypatch, tmp_path):
    """Make every worker log its process and BLAS budget per item; return
    a reader of the log."""
    log = str(tmp_path / "budgets.jsonl")
    execute_group = cluster_worker.execute_group

    def logged(context, jobs, **kwargs):
        append_jsonl(log, [{"pid": os.getpid(), "budget": _threads.blas_threads()}])
        return execute_group(context, jobs, **kwargs)

    monkeypatch.setattr(cluster_worker, "execute_group", logged)
    return lambda: read_jsonl(log)


@pytest.fixture
def spawned_budgets(blob_data, budgets_log, tmp_path):
    """BLAS thread counts a forked daemon, one of ``workers``, runs its items with."""

    def run(workers, parent_budget, spec=None):
        run_dir = str(tmp_path / "run")
        submit_spec(run_dir, spec or _spec(blob_data), lease_timeout=10.0)
        with thread_budget(parent_budget):
            daemon = spawn_local_worker(run_dir, "daemon", poll_interval=0.02,
                                        workers=workers)
            daemon.join(timeout=60)
        assert daemon.exitcode == 0
        records = budgets_log()
        assert records and all(r["pid"] == daemon.pid for r in records)
        return {r["budget"] for r in records}

    return run


def test_spawned_cluster_workers_get_their_share_of_the_cpus(no_thread_vars,
                                                             spawned_budgets):
    # The coordinator's own count is not the share, so inheriting it fails.
    assert spawned_budgets(2, parent_budget=cpu_share(2) + 1) == {cpu_share(2)}


def test_a_thread_variable_the_user_set_is_left_alone(no_thread_vars, monkeypatch,
                                                      spawned_budgets):
    # Set after numpy loaded: this process's BLAS never read it.
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert spawned_budgets(1, parent_budget=2) == {1}
    assert _threads.worker_share(2) is None


def test_daemons_share_the_cpus_among_the_workers_forked(blob_data, no_thread_vars,
                                                         forks, tmp_path):
    # Without clean stats the spec has a clean job: two groups, so of the
    # four workers allowed the coordinator forks one daemon, one of two.
    pair = _spec(blob_data, rates=(0.01,))
    executor = ClusterExecutor(run_dir=str(tmp_path / "run"), max_workers=4,
                               lease_timeout=10.0, poll_interval=0.02)
    run_sweep(pair, executor=executor)
    assert forks == [2]


def test_the_coordinator_serves_at_the_daemons_share_and_restores_its_own(
        blob_data, no_thread_vars, budgets_log, tmp_path):
    parent_budget = cpu_share(2) + 1
    executor = ClusterExecutor(run_dir=str(tmp_path / "run"), max_workers=2,
                               lease_timeout=10.0, poll_interval=0.02)
    with thread_budget(parent_budget):
        run_sweep(_spec(blob_data), executor=executor)
        assert _threads.blas_threads() == parent_budget
    mine = [r["budget"] for r in budgets_log() if r["pid"] == os.getpid()]
    assert mine and set(mine) == {cpu_share(2)}


def test_a_replacement_daemon_shares_the_cpus_among_the_workers_left(
        blob_data, forks, tmp_path):
    # One daemon of four workers has died; two items are left, so one
    # replacement serves beside the coordinator as one of two workers.
    run_dir = str(tmp_path / "run")
    submission = submit_spec(run_dir, _spec(blob_data, rates=(0.01,)), lease_timeout=10.0)
    assert len(submission.enqueued) == 2
    dead = multiprocessing.get_context("fork").Process(target=os._exit, args=(0,))
    dead.start()
    dead.join()
    executor = ClusterExecutor(run_dir=run_dir, max_workers=4, lease_timeout=10.0,
                               poll_interval=0.02)
    alive, restarts_left = executor._babysit(run_dir, [dead], 4, JobQueue(run_dir))
    for proc in [dead, *alive]:
        proc.join(timeout=60)
        assert proc.exitcode == 0
        proc.close()
    assert forks == [2]
    assert restarts_left == 3 and len(alive) == 1


def test_forked_daemons_read_a_thread_variable_set_after_numpy_loaded(
        no_thread_vars, monkeypatch, spawned_budgets):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # The budget the daemon would inherit, and its share of this host's CPUs
    # on a host with two or more.
    assert spawned_budgets(1, parent_budget=2) == {1}


#: After a threaded forward has started this process's tile pool, a cluster
#: sweep (whose forked daemons keep a budget of 2, since the user set one)
#: must finish and match the serial sweep: each child needs its own pool.
FORK_AFTER_THREADS = textwrap.dedent("""
    import numpy as np

    import repro.nn.conv as conv_module
    import repro.nn.module as module_module
    from repro.biterror import make_error_fields
    from repro.cluster import ClusterExecutor
    from repro.data import synthetic_cifar10
    from repro.models import SimpleNet
    from repro.nn import _threads
    from repro.quant import FixedPointQuantizer, rquant
    from repro.quant.qat import quantize_model
    from repro.runtime import SerialExecutor, SweepSpec, run_sweep

    # One-sample tiles: every conv pass and every eval conv-block walk spreads.
    conv_module._TILE_BYTES = module_module._BLOCK_TILE_BYTES = 1
    if _threads._binding() is None:
        state = [2]
        fake = (lambda: state[0], lambda n: state.__setitem__(0, n))
        _threads._binding = lambda: fake
    _threads.set_blas_threads(2)
    data = synthetic_cifar10(samples_per_class=2, image_size=8)
    model = SimpleNet(widths=(4,), rng=np.random.default_rng(0))
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    fields = make_error_fields(quantized.num_weights, 8, 2, seed=1)


    def build():
        spec = SweepSpec(data, batch_size=8)
        spec.add_model("m", model, quantizer, quantized)
        spec.add_field_set("f", fields)
        for rate in (0.01, 0.02, 0.03):
            spec.add_field_jobs("m", "f", rate)
        return spec


    model.eval()(data.inputs[:4])
    assert _threads._pool is not None, "the forward did not start a pool"
    serial = run_sweep(build(), executor=SerialExecutor())
    forked = run_sweep(build(), executor=ClusterExecutor(max_workers=2))
    assert forked == serial
    print("ok")
""")


def test_a_cluster_sweep_after_threaded_regions_finishes_and_matches_serial():
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2")
    # A session of its own, so a hung run's forked daemons die with it.
    process = subprocess.Popen([sys.executable, "-c", FORK_AFTER_THREADS], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("the cluster sweep hung")
    assert process.returncode == 0, stderr
    assert stdout.strip() == "ok"
