"""Multi-seed benchmark protocol."""
import os

import pytest

from qembed.benchmark import run_benchmark
from qembed.data import generate_synthetic
from qembed.metrics import median, population_sd
from qembed.model import make_bypass_model
from qembed.training import TrainingConfig


def fast_config():
    return TrainingConfig(
        learning_rate=0.05, max_epochs=8, batch_size=8, optimizer="adam",
        validation_fraction=0.2, patience=8,
    )


def test_sweep_runs_once_per_seed_and_is_recomputable(tmp_path):
    history_dir = tmp_path / "runs"
    summary = run_benchmark(
        make_dataset=lambda seed: generate_synthetic(40, 4, 6.0, seed),
        make_model=lambda seed: make_bypass_model(in_dim=4, seed=seed),
        config=fast_config(),
        seeds=[0, 1, 2],
        method="toy",
        history_dir=str(history_dir),
    )
    assert summary.seeds == (0, 1, 2)
    assert len(summary.f1_scores) == 3
    files = sorted(os.listdir(history_dir))
    assert files == ["history_seed0.csv", "history_seed1.csv", "history_seed2.csv"]
    assert abs(summary.median_f1 - median(summary.f1_scores)) < 1e-12
    assert abs(summary.sd_f1 - population_sd(summary.f1_scores)) < 1e-12


def test_fixed_dataset_varies_only_init_and_shuffle():
    data = generate_synthetic(30, 3, 6.0, 99)
    summary = run_benchmark(
        make_dataset=lambda seed: data,
        make_model=lambda seed: make_bypass_model(in_dim=3, seed=seed),
        config=fast_config(),
        seeds=[5, 6],
    )
    assert len(summary.f1_scores) == 2


def test_requires_two_seeds():
    with pytest.raises(ValueError):
        run_benchmark(
            make_dataset=lambda seed: generate_synthetic(20, 3, 6.0, seed),
            make_model=lambda seed: make_bypass_model(in_dim=3, seed=seed),
            config=fast_config(),
            seeds=[0],
        )


def test_negative_seed_is_rejected_before_any_run():
    built = []

    def make_dataset(seed):
        built.append(seed)
        return generate_synthetic(20, 3, 6.0, seed)

    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        run_benchmark(
            make_dataset=make_dataset,
            make_model=lambda seed: make_bypass_model(in_dim=3, seed=seed),
            config=fast_config(),
            seeds=[2, -1],
        )
    assert built == []


def test_failing_run_names_its_seed():
    def broken_model(seed):
        if seed == 1:
            raise ValueError("boom")
        return make_bypass_model(in_dim=3, seed=seed)

    with pytest.raises(RuntimeError, match="seed 1"):
        run_benchmark(
            make_dataset=lambda seed: generate_synthetic(20, 3, 6.0, seed),
            make_model=broken_model,
            config=fast_config(),
            seeds=[0, 1, 2],
        )
