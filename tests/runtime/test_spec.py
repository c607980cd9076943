"""Tests for SweepSpec / EvalJob content keys and job enumeration."""

import pickle

import numpy as np
import pytest

from repro.biterror import ChipProfile, make_error_fields
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SweepSpec, chip_digest, field_digest, model_digest


@pytest.fixture()
def setup(blob_data):
    train, test = blob_data
    model = MLP(
        in_features=test.input_shape[0], num_classes=test.num_classes,
        hidden=(16,), rng=np.random.default_rng(0),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    return model, quantizer, quantized, test


def build_spec(setup, seed=3):
    model, quantizer, quantized, test = setup
    fields = make_error_fields(quantized.num_weights, 8, 3, seed=seed)
    spec = SweepSpec(test, batch_size=32)
    spec.add_model("m", model, quantizer, quantized)
    spec.add_field_set("f", fields)
    spec.add_field_jobs("m", "f", 0.01)
    return spec


def test_content_keys_are_stable_across_builds(setup):
    a = build_spec(setup)
    b = build_spec(setup)
    assert [j.content_key for j in a.jobs] == [j.content_key for j in b.jobs]


def test_content_keys_separate_cells(setup):
    spec = build_spec(setup)
    spec.add_field_jobs("m", "f", 0.02)
    keys = [j.content_key for j in spec.jobs]
    assert len(set(keys)) == len(keys)  # clean + 3 fields @ 0.01 + 3 @ 0.02


def test_content_keys_track_field_state_not_names(setup):
    """Two field sets with identical state produce identical job keys."""
    model, quantizer, quantized, test = setup
    fields_a = make_error_fields(quantized.num_weights, 8, 2, seed=5)
    fields_b = make_error_fields(quantized.num_weights, 8, 2, seed=5)
    spec = SweepSpec(test)
    spec.add_model("m", model, quantizer, quantized)
    spec.add_field_set("a", fields_a)
    spec.add_field_set("b", fields_b)
    jobs_a = spec.add_field_jobs("m", "a", 0.01)
    jobs_b = spec.add_field_jobs("m", "b", 0.01)
    assert [j.content_key for j in jobs_a] == [j.content_key for j in jobs_b]
    different = make_error_fields(quantized.num_weights, 8, 2, seed=6)
    spec.add_field_set("c", different)
    jobs_c = spec.add_field_jobs("m", "c", 0.01)
    assert set(j.content_key for j in jobs_c).isdisjoint(
        j.content_key for j in jobs_a
    )


def test_zero_rate_adds_no_field_jobs_and_duplicates_are_idempotent(setup):
    spec = build_spec(setup)
    before = spec.num_jobs
    assert spec.add_field_jobs("m", "f", 0.0) == []
    again = spec.add_field_jobs("m", "f", 0.01)
    assert spec.num_jobs == before
    assert [j.content_key for j in again] == [
        j.content_key for j in spec.cell_jobs("m", "field", "f", 0.01)
    ]


def test_clean_job_and_precomputed_clean_stats(setup):
    model, quantizer, quantized, test = setup
    spec = SweepSpec(test)
    spec.add_model("with_clean", model, quantizer, quantized)
    assert spec.clean_job("with_clean") is not None
    spec2 = SweepSpec(test)
    spec2.add_model(
        "precomputed", model, quantizer, quantized, clean_stats=(0.25, 0.9)
    )
    assert spec2.clean_job("precomputed") is None
    assert spec2.models["precomputed"].clean_stats == (0.25, 0.9)
    assert spec2.num_jobs == 0


def test_chip_jobs_cover_offsets(setup):
    model, quantizer, quantized, test = setup
    chip = ChipProfile(rows=64, columns=32, seed=2)
    spec = SweepSpec(test)
    spec.add_model("m", model, quantizer, quantized)
    spec.add_chip("c", chip)
    jobs = spec.add_chip_jobs("m", "c", 0.02, offsets=(0, 100, 200))
    assert [j.offset for j in jobs] == [0, 100, 200]
    assert len({j.content_key for j in jobs}) == 3
    # Zero-rate chip jobs execute (stuck-at cells read back the payload).
    assert len(spec.add_chip_jobs("m", "c", 0.0, offsets=(0,))) == 1


def test_duplicate_registration_rejected(setup):
    model, quantizer, quantized, test = setup
    spec = SweepSpec(test)
    spec.add_model("m", model, quantizer, quantized)
    with pytest.raises(ValueError, match="duplicate model"):
        spec.add_model("m", model, quantizer, quantized)
    fields = make_error_fields(quantized.num_weights, 8, 1, seed=0)
    spec.add_field_set("f", fields)
    with pytest.raises(ValueError, match="duplicate field-set"):
        spec.add_field_set("f", fields)
    chip = ChipProfile(rows=16, columns=16, seed=0)
    spec.add_chip("c", chip)
    with pytest.raises(ValueError, match="duplicate chip"):
        spec.add_chip("c", chip)
    with pytest.raises(ValueError, match="batch_size"):
        SweepSpec(test, batch_size=0)


def test_digests_distinguish_backends_and_state(setup):
    model, quantizer, quantized, test = setup
    dense = make_error_fields(quantized.num_weights, 8, 1, seed=1)[0]
    sparse = make_error_fields(
        quantized.num_weights, 8, 1, seed=1, backend="sparse"
    )[0]
    assert field_digest(dense) != field_digest(sparse)
    chip_a = ChipProfile(rows=32, columns=16, seed=1)
    chip_b = ChipProfile(rows=32, columns=16, seed=2)
    chip_a_sparse = ChipProfile(rows=32, columns=16, seed=1, backend="sparse")
    assert chip_digest(chip_a) != chip_digest(chip_b)
    assert chip_digest(chip_a) != chip_digest(chip_a_sparse)
    # The model digest tracks the quantized codes.
    other = quantizer.quantize(
        [c.astype(np.float64) + 1.0 for c in quantized.codes]
    )
    assert model_digest(model, quantized) != model_digest(model, other)


def test_model_digest_tracks_forward_hyperparameters(setup):
    """Same layer types + same weights but different config must not collide."""
    _, quantizer, _, test = setup
    from repro.nn.pooling import MaxPool2d

    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    # Identical weights, same module types — only a scalar hyperparameter
    # differs; a digest collision here would serve stale cached results.
    from repro.models import MLP as _MLP

    a = _MLP(in_features=6, num_classes=3, hidden=(8,), rng=rng_a)
    b = _MLP(in_features=6, num_classes=3, hidden=(8,), rng=rng_b)
    qa = quantizer.quantize([p.data for p in a.parameters()])
    assert model_digest(a, qa) == model_digest(b, qa)
    pool_a, pool_b = MaxPool2d(kernel_size=2), MaxPool2d(kernel_size=3)
    assert _config_differs(pool_a, pool_b)
    # Attach the differently-configured module as a submodule.
    a.pool = pool_a
    b.pool = pool_b
    assert model_digest(a, qa) != model_digest(b, qa)


def _config_differs(mod_a, mod_b):
    from repro.runtime.spec import _module_config

    return _module_config(mod_a) != _module_config(mod_b)


def test_add_chip_jobs_rejects_conflicting_offsets(setup):
    model, quantizer, quantized, test = setup
    chip = ChipProfile(rows=32, columns=32, seed=5)
    spec = SweepSpec(test)
    spec.add_model("m", model, quantizer, quantized)
    spec.add_chip("c", chip)
    spec.add_chip_jobs("m", "c", 0.02, offsets=(0, 100))
    # Same offsets: idempotent.
    assert len(spec.add_chip_jobs("m", "c", 0.02, offsets=(0, 100))) == 2
    with pytest.raises(ValueError, match="offsets"):
        spec.add_chip_jobs("m", "c", 0.02, offsets=(0, 100, 200))


def test_content_keys_include_engine_schema_version(setup, monkeypatch):
    """Semantic changes bump the schema version, invalidating warm stores."""
    import repro.runtime.spec as spec_module

    before = [j.content_key for j in build_spec(setup).jobs]
    monkeypatch.setattr(spec_module, "ENGINE_SCHEMA_VERSION", 2)
    after = [j.content_key for j in build_spec(setup).jobs]
    assert set(before).isdisjoint(after)


def _unpickled_with_subsample(spec, size):
    """The spec as an older version pickled it: with a ``subsample`` field."""
    spec.__dict__["subsample"] = size
    return pickle.loads(pickle.dumps(spec))


def test_a_spec_unpickled_with_a_subsample_size_is_refused(setup, tmp_path):
    """Its keys folded the subset size in: serving them on the full dataset
    would store wrong numbers under them, through any entry point."""
    from repro.cluster import submit_spec
    from repro.runtime import run_sweep
    from repro.service import ServiceRegistry

    old = _unpickled_with_subsample(build_spec(setup), 8)
    with pytest.raises(ValueError, match="subsample=8"):
        old.context()
    with pytest.raises(ValueError, match="subsample=8"):
        run_sweep(old)
    with pytest.raises(ValueError, match="subsample=8"):
        submit_spec(str(tmp_path / "run"), old)
    registry = ServiceRegistry(str(tmp_path / "service"))
    with pytest.raises(ValueError, match="subsample=8"):
        registry.submit("tenant", old)
    assert registry.get("tenant") is None


def test_a_spec_unpickled_with_no_subsample_size_still_runs(setup):
    """Full-dataset specs recorded ``subsample=None`` and never folded it
    into a key, so they keep their keys and results."""
    from repro.runtime import run_sweep

    fresh = build_spec(setup)
    old = _unpickled_with_subsample(build_spec(setup), None)
    assert [j.content_key for j in old.jobs] == [j.content_key for j in fresh.jobs]
    assert run_sweep(old) == run_sweep(fresh)
