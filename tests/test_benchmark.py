"""Multi-seed benchmark protocol."""
import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from qembed.benchmark import run_benchmark
from qembed.data import generate_synthetic
from qembed.metrics import median, population_sd
from qembed.model import make_bypass_model
from qembed.training import TrainingConfig, train


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


# ---------------------------------------------------------------------------
# Seeds trained side by side: W = min(seeds, CPUs in the affinity mask)
# shards seeds[w::W], shard 0 in the calling process, the rest in forked
# workers. Each test fixes the mask, so the shards do not depend on the
# machine.
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def fix_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def toy_dataset(seed):
    return generate_synthetic(40, 4, 6.0, seed)


def toy_model(seed):
    return make_bypass_model(in_dim=4, seed=seed)


@needs_fork
@pytest.mark.parametrize("cpus", [2, 1])
def test_each_history_equals_a_solo_run_of_its_seed(cpus, tmp_path, monkeypatch):
    """Every seed's history CSV has the bytes of `train` on that seed
    alone, at two shards (one forked worker) and at one (no process)."""
    fix_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    summary = run_benchmark(toy_dataset, toy_model, fast_config(), [0, 1, 2],
                            history_dir=str(tmp_path))
    assert forks == [os.getpid()] * (cpus - 1)
    assert multiprocessing.active_children() == []
    scores = []
    for seed in (0, 1, 2):
        _, history = train(toy_dataset(seed), toy_model(seed), replace(fast_config(), seed=seed))
        assert (tmp_path / f"history_seed{seed}.csv").read_text() == history.csv_text()
        scores.append(history.records[history.best_epoch].val_f1)
    assert summary.f1_scores == tuple(scores)


@needs_fork
@pytest.mark.parametrize("failing, named", [({1, 2}, 1), ({2, 3}, 2)])
def test_first_failing_seed_in_list_order_is_named(failing, named, tmp_path, monkeypatch):
    """Seeds [0, 1, 2, 3] in two shards, [0, 2] here and [1, 3] in the
    worker: whichever shard fails first in list order is named, with the
    exception it raised, and only the seeds before it have history files."""
    fix_cpus(monkeypatch, 2)
    parent = os.getpid()

    def make_model(seed):
        if seed in failing:
            raise ValueError(f"boom in the {'parent' if os.getpid() == parent else 'worker'}")
        return toy_model(seed)

    with pytest.raises(RuntimeError) as error:
        run_benchmark(toy_dataset, make_model, fast_config(), [0, 1, 2, 3],
                      history_dir=str(tmp_path))
    where = "worker" if named % 2 else "parent"
    assert str(error.value) == f"benchmark run failed for seed {named}: boom in the {where}"
    assert type(error.value.__cause__) is ValueError
    assert sorted(os.listdir(tmp_path)) == [f"history_seed{s}.csv" for s in range(named)]
    assert multiprocessing.active_children() == []


@needs_fork
def test_an_exception_that_cannot_be_pickled_keeps_its_message(monkeypatch):
    fix_cpus(monkeypatch, 2)

    class TwoPartError(Exception):
        def __init__(self, first, second):
            super().__init__(f"{first} and {second}")

    def make_model(seed):
        if seed == 1:
            raise TwoPartError("bad", "worse")
        return toy_model(seed)

    with pytest.raises(RuntimeError, match="^benchmark run failed for seed 1: bad and worse$"):
        run_benchmark(toy_dataset, make_model, fast_config(), [0, 1, 2])
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_worker_that_dies_fails_its_shards_first_seed(monkeypatch):
    """Seeds [0, 1, 2, 3]: the worker trains seed 1, then exits at seed 3
    without sending anything, so seed 1's result is lost with it."""
    fix_cpus(monkeypatch, 2)
    parent = os.getpid()

    def make_model(seed):
        if seed == 3 and os.getpid() != parent:
            os._exit(3)
        return toy_model(seed)

    with pytest.raises(RuntimeError, match=(
        r"^benchmark run failed for seed 1: the worker process training seeds \[1, 3\] "
        r"exited with code 3$"
    )):
        run_benchmark(toy_dataset, make_model, fast_config(), [0, 1, 2, 3])
    assert multiprocessing.active_children() == []


@needs_fork
def test_an_interrupt_in_the_calling_process_terminates_the_workers(monkeypatch):
    """A BaseException out of shard 0 stops the sweep at once: the worker,
    stuck in its first seed, is terminated and joined before it propagates."""
    fix_cpus(monkeypatch, 2)
    parent = os.getpid()

    class Interrupt(BaseException):
        pass

    def make_model(seed):
        if os.getpid() != parent:
            time.sleep(60)
        raise Interrupt

    started = time.perf_counter()
    with pytest.raises(Interrupt):
        run_benchmark(toy_dataset, make_model, fast_config(), [0, 1])
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []
