"""Cross-seed benchmark sweep: train per seed, collect held-out F1 scores,
summarize as median plus population standard deviation."""
from __future__ import annotations

import os
from dataclasses import replace
from typing import Callable, Sequence

from .metrics import BenchmarkSummary, summarize_f1
from .model import HybridModel
from .training import TrainingConfig, train


def run_benchmark(
    make_dataset: Callable[[int], list],
    make_model: Callable[[int], HybridModel],
    config: TrainingConfig,
    seeds: Sequence[int],
    method: str = "qembed",
    history_dir: str | None = None,
) -> BenchmarkSummary:
    """One training run per seed; the seed drives data generation (when the
    dataset factory uses it), model init, and shuffling. The recorded F1 is
    the validation F1 at each run's best-validation-loss epoch. A failing
    run aborts the sweep naming its seed, and a seed listed twice is
    rejected. With history_dir set, each run's history lands in
    history_seed{seed}.csv."""
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is listed more than once")
    if history_dir is not None:
        os.makedirs(history_dir, exist_ok=True)
    scores = []
    for seed in seeds:
        try:
            dataset = make_dataset(seed)
            model = make_model(seed)
            run_config = replace(config, seed=seed)
            _, history = train(dataset, model, run_config)
        except Exception as exc:
            raise RuntimeError(f"benchmark run failed for seed {seed}: {exc}") from exc
        scores.append(history.records[history.best_epoch].val_f1)
        if history_dir is not None:
            history.write_csv(os.path.join(history_dir, f"history_seed{seed}.csv"))
    return summarize_f1(method, seeds, scores)
