"""The per-process thread budget: tile regions, their failure modes, lazy start."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.activations as activations_module
import repro.nn.conv as conv_module
import repro.nn.normalization as normalization_module
import repro.nn.pooling as pooling_module
from helpers import thread_budget
from repro.models import SimpleNet
from repro.nn import _threads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


def record_runs(n, tile):
    runs = []
    _threads.spread(n, tile, lambda first, last: runs.append((first, last)))
    return sorted(runs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), tile=st.integers(1, 12), budget=st.integers(1, 4))
def test_runs_are_contiguous_whole_tiles_covering_the_batch(n, tile, budget):
    seen = []
    with thread_budget(budget):
        _threads.spread(n, tile, lambda first, last: seen.append(
            (first, last, _threads.blas_threads())))
        assert _threads.blas_threads() == budget  # restored
    runs = sorted((first, last) for first, last, _ in seen)
    assert runs[0][0] == 0 and runs[-1][1] == n
    assert all(first < last for first, last in runs)
    assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
    assert all(first % tile == 0 for first, _ in runs)  # tiles start where they always do
    assert len(runs) == min(budget, -(-n // tile))
    assert {threads for _, _, threads in seen} == {1}  # a single run is pinned too


def test_a_budget_of_one_or_a_single_tile_runs_inline():
    caller = threading.get_ident()
    for budget, n, tile in ((1, 10, 1), (2, 5, 8), (3, 5, 8), (3, 4, 4)):
        seen = []
        with thread_budget(budget):
            _threads.spread(n, tile, lambda first, last: seen.append(
                (first, last, threading.get_ident(), _threads.blas_threads())))
            assert _threads.blas_threads() == budget  # restored
        assert seen == [(0, n, caller, 1)]


def test_a_single_tile_pass_leaves_no_blas_worker_spinning():
    # A fresh interpreter, so no other test's BLAS call can still be spinning,
    # and without OPENBLAS_THREAD_TIMEOUT, so OpenBLAS spins as long as it
    # does by default.  For 4 images at 32x32 the passes of Conv2d(3, 16)
    # and Conv2d(32, 64) are a single tile.
    if _threads._binding() is None:
        pytest.skip("no BLAS whose thread count can be set")
    code = (
        "import time; import numpy as np; "
        "from repro.models import SimpleNet; from repro.nn import _threads; "
        "_threads.set_blas_threads(2); "
        "model = SimpleNet(widths=(16, 32, 64), rng=np.random.default_rng(0)).eval(); "
        "model(np.random.default_rng(1).normal(size=(4, 3, 32, 32))); "
        "before = time.process_time(); time.sleep(0.1); "
        "print(time.process_time() - before)"
    )
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 0.02  # CPU burned while the process slept


def test_runs_run_at_once_on_their_own_threads_with_blas_pinned_to_one():
    all_running = threading.Barrier(3, timeout=30)
    seen = []

    def work(first, last):
        seen.append((threading.get_ident(), _threads.blas_threads()))
        all_running.wait()  # breaks unless the three runs overlap

    with thread_budget(3):
        _threads.spread(6, 1, work)
        assert _threads.blas_threads() == 3  # restored
    assert len({ident for ident, _ in seen}) == 3
    assert {threads for _, threads in seen} == {1}


def test_a_region_opened_inside_a_tile_runs_inline():
    inner = []

    def work(first, last):
        _threads.spread(4, 1, lambda a, b: inner.append((a, b, threading.get_ident())))

    with thread_budget(2):
        _threads.spread(2, 1, work)
    assert sorted((a, b) for a, b, _ in inner) == [(0, 4), (0, 4)]


@pytest.mark.parametrize("tile, failing", [
    pytest.param(1, 0, id="0"),  # the caller's run
    pytest.param(1, 5, id="5"),  # a pool thread's run
    pytest.param(8, 0, id="single-tile"),  # the one run, inline
])
def test_an_exception_in_any_tile_reaches_the_caller_and_blas_is_restored(tile, failing):
    finished, pinned = [], []

    def work(first, last):
        pinned.append(_threads.blas_threads())
        if first <= failing < last:
            raise ValueError(f"tile {failing}")
        time.sleep(0.01)
        finished.append((first, last))

    with thread_budget(3):
        with pytest.raises(ValueError, match=f"tile {failing}"):
            _threads.spread(6, tile, work)
        assert _threads.blas_threads() == 3
        assert pinned == [1] * len(pinned)
        # Every other run had finished, and the region is free again.
        assert len(finished) == min(3, -(-6 // tile)) - 1
        assert len(record_runs(6, 1)) == 3


def test_simplenet_is_bit_identical_at_budget_4_under_constant_thread_switches(monkeypatch):
    # One sample per tile in every layer, so every region spreads.
    for module in (conv_module, normalization_module, activations_module, pooling_module):
        monkeypatch.setattr(module, "_TILE_BYTES", 1)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 3, 16, 16))
    grad_logits = rng.normal(size=(8, 10))
    passes = []
    interval = sys.getswitchinterval()
    started = time.monotonic()
    sys.setswitchinterval(1e-6)
    try:
        for budget in (1, 4, 4, 4):
            model = SimpleNet(widths=(8, 16), rng=np.random.default_rng(3))
            with thread_budget(budget):
                logits = model(x)
                grad_x = model.backward(grad_logits)
            passes.append([logits, grad_x] + [p.grad for p in model.parameters()])
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60
    for threaded in passes[1:]:
        for got, want in zip(threaded, passes[0]):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_simplenet_is_bit_identical_across_budgets_at_default_tile_sizes():
    # 4 images at 32x32: the passes of Conv2d(3, 16) and Conv2d(32, 64) are a
    # single tile, the others spread over the budget.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3, 32, 32))
    grad_logits = rng.normal(size=(4, 10))
    passes = []
    for budget in (1, 2):
        model = SimpleNet(widths=(16, 32, 64), rng=np.random.default_rng(3))
        with thread_budget(budget):
            logits = model(x)
            grad_x = model.backward(grad_logits)
        passes.append([logits, grad_x] + [p.grad for p in model.parameters()])
    for got, want in zip(passes[1], passes[0]):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_import_starts_no_thread_and_no_pool_machinery():
    code = (
        "import sys, threading; import repro, repro.nn, repro.runtime, repro.cluster; "
        "assert 'concurrent.futures' not in sys.modules, 'pool imported'; "
        "assert threading.active_count() == 1, threading.enumerate()"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
