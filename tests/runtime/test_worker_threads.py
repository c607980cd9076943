"""Worker processes share the host's CPUs, and a fork never inherits a dead pool."""

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
from repro.cluster import ClusterExecutor
from repro.models import MLP
from repro.nn import _threads
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import ParallelExecutor, SweepSpec, group_jobs, run_sweep
from repro.runtime import executors as executors_module
from repro.utils.serialization import append_jsonl, read_jsonl

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


def cpu_share(workers):
    return max(1, len(os.sched_getaffinity(0)) // workers)


@pytest.fixture
def no_thread_vars(monkeypatch):
    for name in _threads.THREAD_VARS:
        monkeypatch.delenv(name, raising=False)


def _spec(blob_data):
    _, test = blob_data
    model = MLP(in_features=test.input_shape[0], num_classes=test.num_classes,
                hidden=(8,), rng=np.random.default_rng(1))
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    spec = SweepSpec(test, batch_size=16)
    spec.add_model("m", model, quantizer, quantized)
    spec.add_field_set("f", make_error_fields(quantized.num_weights, 8, 2, seed=3))
    for rate in (0.01, 0.02, 0.03, 0.04):
        spec.add_field_jobs("m", "f", rate)
    return spec


@pytest.fixture
def spawned_budgets(blob_data, monkeypatch, tmp_path):
    """BLAS thread counts ClusterExecutor's forked daemons run their items with.

    The daemons inherit the patched ``execute_group``, which logs each
    item's process and budget before running it.
    """
    log = str(tmp_path / "budgets.jsonl")
    execute_group = cluster_worker.execute_group

    def logged(context, jobs, **kwargs):
        append_jsonl(log, [{"pid": os.getpid(), "budget": _threads.blas_threads()}])
        return execute_group(context, jobs, **kwargs)

    monkeypatch.setattr(cluster_worker, "execute_group", logged)

    def run(workers, parent_budget):
        executor = ClusterExecutor(run_dir=str(tmp_path / "run"), max_workers=workers,
                                   lease_timeout=10.0, poll_interval=0.02)
        with thread_budget(parent_budget):
            run_sweep(_spec(blob_data), executor=executor)
        records = read_jsonl(log)
        assert records and all(r["pid"] != os.getpid() for r in records)  # no fallback
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


def _budget_in_worker(group):
    return [(job.content_key, _threads.blas_threads()) for job in group]


def _fork_pool_budgets(spec, monkeypatch):
    monkeypatch.setattr(executors_module, "_run_group_in_worker", _budget_in_worker)
    executor = ParallelExecutor(max_workers=2, start_method="fork")
    outputs = list(executor.run(spec.context(), group_jobs(spec.jobs)))
    return {budget for output in outputs for _, budget in output}


def test_fork_pool_workers_get_their_share_of_the_cpus(blob_data, no_thread_vars, monkeypatch):
    budgets = _fork_pool_budgets(_spec(blob_data), monkeypatch)
    if _threads._binding() is None:
        assert budgets == {1}  # no settable BLAS: no budget beyond one thread
    else:
        assert budgets == {cpu_share(2)}


def test_fork_pool_workers_read_a_thread_variable_set_after_numpy_loaded(
        blob_data, no_thread_vars, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with thread_budget(2):  # what the workers would inherit
        assert _fork_pool_budgets(_spec(blob_data), monkeypatch) == {1}


#: After a threaded forward has started this process's tile pool, a fork
#: pool sweep (whose workers keep a budget of 2, since the user set one)
#: must finish and match the serial sweep: each child needs its own pool.
FORK_AFTER_THREADS = textwrap.dedent("""
    import numpy as np

    import repro.nn.conv as conv_module
    from repro.biterror import make_error_fields
    from repro.data import synthetic_cifar10
    from repro.models import SimpleNet
    from repro.nn import _threads
    from repro.quant import FixedPointQuantizer, rquant
    from repro.quant.qat import quantize_model
    from repro.runtime import ParallelExecutor, SerialExecutor, SweepSpec, run_sweep

    conv_module._TILE_BYTES = 1  # one-sample tiles: every conv pass spreads
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
    forked = run_sweep(build(), executor=ParallelExecutor(max_workers=2, start_method="fork"))
    assert forked == serial
    print("ok")
""")


def test_a_fork_pool_after_threaded_regions_finishes_and_matches_serial():
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2")
    # A session of its own, so a hung run's pool children die with it.
    process = subprocess.Popen([sys.executable, "-c", FORK_AFTER_THREADS], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("the fork pool sweep hung")
    assert process.returncode == 0, stderr
    assert stdout.strip() == "ok"
