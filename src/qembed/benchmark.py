"""Cross-seed benchmark sweep: train per seed, collect held-out F1 scores,
summarize as median plus population standard deviation."""
from __future__ import annotations

import os
import pickle
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
    run aborts the sweep naming its seed, and a negative seed or one listed
    twice is rejected before any run. With history_dir set, each run's
    history lands in history_seed{seed}.csv.

    Seeds train side by side, in up to one process per CPU of the calling
    process's affinity mask: W = min(len(seeds), CPUs) shards seeds[w::W],
    shard 0 in this process and each other shard in a worker forked from
    it (none where fork is unavailable or this process is a daemon). Each
    factory runs in the process that trains its seed, so state a factory
    keeps does not come back from a worker. Every number and file is the
    same at any W; `taskset -c 0 qembed benchmark ...` runs the whole sweep
    in one process. Results are read in list order: the first failing seed
    in the list is the one named, though later seeds in other shards may
    already have trained, and history files are written only for the seeds
    before it. A worker that dies without sending its results fails its
    shard's first seed."""
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is listed more than once")
    if history_dir is not None:
        os.makedirs(history_dir, exist_ok=True)
    outcomes = _train_seeds(make_dataset, make_model, config, seeds)
    scores = []
    for seed in seeds:
        history = outcomes[seed]
        if isinstance(history, Exception):
            raise RuntimeError(f"benchmark run failed for seed {seed}: {history}") from history
        scores.append(history.records[history.best_epoch].val_f1)
        if history_dir is not None:
            history.write_csv(os.path.join(history_dir, f"history_seed{seed}.csv"))
    return summarize_f1(method, seeds, scores)


def _train_shard(make_dataset, make_model, config: TrainingConfig, shard):
    """Yields (seed, TrainingHistory) for the shard's seeds in order, and
    stops after the first that fails, yielding (seed, exception) for it."""
    for seed in shard:
        try:
            dataset = make_dataset(seed)
            model = make_model(seed)
            _, history = train(dataset, model, replace(config, seed=seed))
        except Exception as exc:
            yield seed, exc
            return
        yield seed, history


def _shard_worker(conn, make_dataset, make_model, config: TrainingConfig, shard) -> None:
    """A worker's whole job: trains its shard, then sends its (seed,
    outcome) list in one message, so that a pipe's buffer filling up never
    stops it while it still has seeds to train. An exception that does not
    survive a pickle round trip goes as a RuntimeError with its message."""
    outcomes = list(_train_shard(make_dataset, make_model, config, shard))
    seed, outcome = outcomes[-1]
    if isinstance(outcome, Exception):
        try:
            pickle.loads(pickle.dumps(outcome))
        except Exception:
            outcomes[-1] = seed, RuntimeError(str(outcome))
    conn.send(outcomes)
    conn.close()


def _train_seeds(make_dataset, make_model, config: TrainingConfig, seeds: list[int]) -> dict:
    """seed -> TrainingHistory or the exception that ended its run, for each
    shard's seeds up to and including its first failure."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_shards = min(len(seeds), cpus)
    if n_shards > 1:
        # imported here, not at the top, so that `import qembed` does not
        # pay for it
        import multiprocessing

        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
        ):
            n_shards = 1
    if n_shards == 1:
        return dict(_train_shard(make_dataset, make_model, config, seeds))
    # fork, not spawn: the factories are the caller's closures (the CLI's
    # are lambdas), which a fork hands over as they are and a spawned
    # process could only get by pickling. The threads of OpenBLAS's pool
    # are the only ones numpy starts, and OpenBLAS stops them at a fork.
    context = multiprocessing.get_context("fork")
    shards = [seeds[w::n_shards] for w in range(n_shards)]
    workers = []
    try:
        for shard in shards[1:]:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_shard_worker, args=(sender, make_dataset, make_model, config, shard)
            )
            process.start()
            workers.append((process, receiver, shard))
            # the worker holds the only sending end, so its exit ends the pipe
            sender.close()
        outcomes = dict(_train_shard(make_dataset, make_model, config, shards[0]))
        for process, receiver, shard in workers:
            try:
                outcomes.update(receiver.recv())
            except EOFError:
                # the pipe ended with nothing in it: the worker died
                process.join()
                outcomes[shard[0]] = RuntimeError(
                    f"the worker process training seeds {shard} exited with code "
                    f"{process.exitcode}"
                )
    except BaseException:
        for process, _, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receiver, _ in workers:
            process.join()
            receiver.close()
    return outcomes
