"""Shared pytest fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import repro.cluster.coordinator as coordinator
from repro.data import make_blob_dataset, train_test_split
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def blob_data():
    """A small, well separated vector classification task (train, test)."""
    dataset = make_blob_dataset(
        num_classes=4,
        samples_per_class=40,
        num_features=12,
        separation=3.5,
        rng=np.random.default_rng(7),
    )
    return train_test_split(dataset, test_fraction=0.25, rng=np.random.default_rng(8))


@pytest.fixture
def small_mlp() -> MLP:
    return MLP(in_features=12, num_classes=4, hidden=(24,), rng=np.random.default_rng(3))


@pytest.fixture
def rquant8() -> FixedPointQuantizer:
    return FixedPointQuantizer(rquant(8))


@pytest.fixture
def forks(monkeypatch):
    """The ``workers`` share of every daemon ClusterExecutor forks."""
    calls = []
    spawn = coordinator.spawn_local_worker

    def recorded(run_dir, worker_id, **kwargs):
        calls.append(kwargs["workers"])
        return spawn(run_dir, worker_id, **kwargs)

    monkeypatch.setattr(coordinator, "spawn_local_worker", recorded)
    return calls
