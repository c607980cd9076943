"""The per-process thread budget: tile regions, their failure modes, lazy start."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

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


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_runs_are_contiguous_whole_tiles_covering_the_batch(budget):
    with thread_budget(budget):
        runs = record_runs(10, 3)
    assert runs[0][0] == 0 and runs[-1][1] == 10
    assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
    assert all(first % 3 == 0 for first, _ in runs)  # tiles start where they always do
    assert len(runs) == min(budget, 4)  # 4 tiles of 3, 3, 3 and 1 samples


def test_a_budget_of_one_or_a_single_tile_runs_inline():
    caller = threading.get_ident()
    for budget, n, tile in ((1, 10, 1), (3, 5, 8)):
        seen = []
        with thread_budget(budget):
            _threads.spread(n, tile, lambda first, last: seen.append(
                (first, last, threading.get_ident())))
        assert seen == [(0, n, caller)]


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


@pytest.mark.parametrize("failing", [0, 5])  # the caller's run; a pool thread's run
def test_an_exception_in_any_tile_reaches_the_caller_and_blas_is_restored(failing):
    finished = []

    def work(first, last):
        if first <= failing < last:
            raise ValueError(f"tile {failing}")
        time.sleep(0.01)
        finished.append((first, last))

    with thread_budget(3):
        with pytest.raises(ValueError, match=f"tile {failing}"):
            _threads.spread(6, 1, work)
        assert _threads.blas_threads() == 3
        # Every other run had finished, and the region is free again.
        assert len(finished) == 2
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
