"""qembed benchmark: one command per workload that runs qembed from outside,
checks its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload toy-1q --seed 1 --seconds 55 --trace 0

Workloads: toy-1q, encoder-1q, wide-12q (see workloads.py). A run times
one fresh set-up process (prepare.py), then repeats the workload's cycle of
ops, each cycle led by one more set-up process, until the next cycle would
end past `--seconds`.

On a shared host other tenants slow every op by up to 2x, in bursts of
milliseconds that come and go for minutes at a time, so raw times of the
same code differ between runs with how busy the host was. After every op
the run times machine.reference_task(), fixed work that shares no code
with qembed; the speed factor is REFERENCE_S over its mean time in the
run. Each time metric is the mean over every repeat of its op in the run
times that factor, i.e. seconds at the host's uncontended speed; each
rate is total work over total time so corrected. predict_p50_us is the
lowest median of any LATENCY_BLOCK consecutive online predict calls, the
median call when no burst hit. The 99th percentile of all of them is
printed and recorded but is no metric of the result: it is the tail the
bursts make, and it spread by 0.09-0.37 of its median between the
quartiles of 5-10 seeds. The uncorrected figures and the factor are kept
in the result record.

--trace 0  end-to-end metrics, tracing off.
--trace 1  per-layer metrics. Cycles alternate untraced and traced; the
           traced ones wrap qembed's functions (spans.py). Counts are per
           cycle and must be equal in every traced cycle; the circuit
           counts are checked against the workload's circuit shape.
           The tracing overhead is traced minus untraced train_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record (machine, workload
parameters, per-cycle samples, op log) goes to
.perfbench_out/<workload>/result-seed<seed>-trace<trace>.json, and a
traced run also writes every span to spans-seed<seed>.npz there.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict, namedtuple
from pathlib import Path

import machine

# Per-row predict calls per latency block: 5-50 ms of calls, short enough
# that some blocks fall between the host's bursts.
LATENCY_BLOCK = 200
WORKLOAD_NAMES = ("toy-1q", "encoder-1q", "wide-12q")

Done = namedtuple("Done", "value seconds")

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("predict_rows_per_s", "1/s"),
    ("predict_p50_us", "us"),
    ("audit_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class Run:
    """Op accounting for one benchmark run.

    An op is one CLI call or one library phase. It fails on an exception,
    a nonzero exit or a failed output check, and counts once either way.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops: list[dict] = []
        # metric -> (cycle, seconds, units of work done in those seconds)
        self.samples: dict[str, list[tuple[int, float, int]]] = defaultdict(list)
        # cycle -> per-row online predict latencies, in ns
        self.latency_ns: dict[int, list[int]] = defaultdict(list)
        self.cycle = -1
        self.tracer = None

    def op(self, name: str, fn, check=None):
        """Time fn(); then run check(value), which returns a list of problems.
        Returns Done(value, seconds), or None when the op failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_op = self.attempted
        start = time.perf_counter()
        try:
            value = fn()
            seconds = time.perf_counter() - start
            problems = list(check(value)) if check else []
        except Exception as exc:  # any failure of the program under test is a failed op
            seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        self.ops.append({"cycle": self.cycle, "op": name, "s": seconds, "ok": not problems})
        start = time.perf_counter()
        machine.reference_task()
        self.sample("reference_s", time.perf_counter() - start)
        if problems:
            self.fail(name, problems)
            return None
        return Done(value, seconds)

    def fail(self, name: str, problems) -> None:
        self.failed += 1
        for problem in problems:
            message = f"cycle {self.cycle} {name}: {problem}"
            self.problems.append(message)
            print(f"FAILED {message}", file=sys.stderr)

    def sample(self, metric: str, seconds: float, work: int = 1) -> None:
        self.samples[metric].append((self.cycle, seconds, work))

    def add_latencies(self, latency_ns: list[int]) -> None:
        self.latency_ns[self.cycle].extend(latency_ns)

    def mean(self, metric: str, cycles, rate: bool = False) -> float:
        """Mean seconds of the samples taken in the given cycles, or with
        rate=True their total work over their total seconds; 0.0 when there
        is none."""
        picked = [(s, w) for c, s, w in self.samples[metric] if c in cycles]
        if not picked:
            return 0.0
        seconds = sum(s for s, _ in picked)
        return sum(w for _, w in picked) / seconds if rate else seconds / len(picked)


def probe_setup(workload, seed: int, directory: Path, run: Run) -> None:
    """Sample the seconds from spawning one set-up process to its `ready` line."""
    script = Path(__file__).with_name("prepare.py")
    argv = [sys.executable, str(script), workload.name, str(seed), str(directory)]

    def once():
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {code}")
        return ready

    done = run.op("setup", once)
    if done:
        run.sample("setup_s", done.value)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def lowest_block_median(run: Run, cycles) -> float:
    """Each cycle's online predict latencies cut into runs of LATENCY_BLOCK
    consecutive calls (a shorter remainder is dropped); the lowest median of
    any block, 0.0 without one."""
    medians = []
    for c in cycles:
        calls = run.latency_ns.get(c, [])
        for i in range(0, len(calls) - LATENCY_BLOCK + 1, LATENCY_BLOCK):
            medians.append(_nearest_rank(sorted(calls[i:i + LATENCY_BLOCK]), 0.50))
    return min(medians, default=0.0)


def end_to_end(run: Run, cycles: list[int]) -> tuple[dict, dict]:
    """Each time is the mean of its samples in the given cycles and the one
    before them, times the speed factor of the same span; each rate is their
    total work over their total time so corrected. predict_p50_us is the
    lowest block median of the online predict calls; info holds their 99th
    percentile over the whole run, which is no metric."""
    keep = set(cycles) | {-1}
    factor = machine.REFERENCE_S / run.mean("reference_s", keep)
    latency = sorted(v for c in cycles for v in run.latency_ns.get(c, ())) or [0]
    times = ("setup_s", "train_s", "audit_s", "sweep_s")
    uncorrected = {m: run.mean(m, keep) for m in times}
    uncorrected.update(train_samples_per_s=run.mean("train_s", keep, rate=True),
                       predict_rows_per_s=run.mean("predict_rows_per_s", keep, rate=True))
    values = {
        "setup_s": uncorrected["setup_s"] * factor,
        "train_s": uncorrected["train_s"] * factor,
        "train_samples_per_s": uncorrected["train_samples_per_s"] / factor,
        "predict_rows_per_s": uncorrected["predict_rows_per_s"] / factor,
        "predict_p50_us": lowest_block_median(run, cycles) / 1e3,
        "audit_s": uncorrected["audit_s"] * factor,
        "sweep_s": uncorrected["sweep_s"] * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {metric: sum(1 for c, _, _ in run.samples[metric] if c in keep)
              for metric in run.samples}
    info = {"speed_factor": factor, "uncorrected": uncorrected,
            "predict_p99_us": _nearest_rank(latency, 0.99) / 1e3,
            "latency_samples": len(latency), "samples_per_metric": counts}
    return values, info


# Layers whose call counts are reported as `<layer>.calls`.
CALL_COUNTS = (
    "statevector.run_circuit",
    "circuits.quantum_forward",
    "autodiff.circuit_angle_gradients",
    "encoder.encode_with_cache",
    "encoder.encode_backward",
    "model.model_forward",
)


def layer_values(summary: dict) -> tuple[dict, dict]:
    """(exact counts, seconds) of one traced cycle."""
    layers, counters = summary["layers"], summary["counters"]
    counts = {f"{name}.calls": layers[name]["calls"] for name in CALL_COUNTS}
    counts.update({
        "statevector.gates_applied": counters["statevector.gates_applied"],
        "statevector.bytes_computed": counters["statevector.bytes_computed"],
        "checkpoint.bytes": counters["checkpoint.bytes"],
        "gradcheck.loss_evals": summary["gradcheck_loss_evals"],
        "autodiff.circuits_per_gradient": (
            summary["gradient_circuits"] / summary["gradient_calls"]
            if summary["gradient_calls"] else 0.0
        ),
        "autodiff.circuit_evals_per_sample_step": (
            summary["sample_step_circuits"] / summary["sample_steps"]
            if summary["sample_steps"] else 0.0
        ),
    })
    for name, layer in layers.items():
        counts[f"{name}.errors"] = layer["errors"]

    def s(name, field="s"):
        return layers[name][field]

    load_s = s("data.load_embeddings")
    seconds = {
        "statevector.run_circuit.self_s": s("statevector.run_circuit", "self_s"),
        "circuits.quantum_forward.s": s("circuits.quantum_forward"),
        "circuits.build.self_s": s("circuits.build_z_feature_map", "self_s")
        + s("circuits.build_real_amplitudes", "self_s"),
        "autodiff.circuit_angle_gradients.s": s("autodiff.circuit_angle_gradients"),
        "autodiff.backward.self_s": s("autodiff.backward", "self_s"),
        "encoder.encode_with_cache.s": s("encoder.encode_with_cache"),
        "encoder.encode_backward.s": s("encoder.encode_backward"),
        "model.model_forward.self_s": s("model.model_forward", "self_s"),
        "training.train.self_s": s("training.train", "self_s"),
        "training.evaluate.self_s": s("training.evaluate", "self_s"),
        "data.load_embeddings.s": load_s,
        "data.load_embeddings.rows_per_s": counters["data.rows_loaded"] / load_s if load_s else 0.0,
        "data.write_embeddings.s": s("data.write_embeddings"),
        "checkpoint.save_checkpoint.s": s("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.s": s("checkpoint.load_checkpoint"),
        "gradcheck.gradient_check.self_s": s("gradcheck.gradient_check", "self_s"),
        "benchmark.run_benchmark.self_s": s("benchmark.run_benchmark", "self_s"),
        "cli.main.self_s": s("cli.main", "self_s"),
    }
    return counts, seconds


def per_layer(run: Run, workload, summaries: list[dict], plain: list[int], traced: list[int]) -> dict:
    counts, _ = layer_values(summaries[0])
    for later in summaries[1:]:
        if layer_values(later)[0] != counts:
            run.fail("trace-counts", ["per-cycle counts differ between traced cycles"])
            break
    want = workload.circuits_per_sample_step
    got = counts["autodiff.circuit_evals_per_sample_step"]
    if got != want or counts["autodiff.circuits_per_gradient"] != want - 1:
        run.fail("trace-counts", [
            f"circuit evals per sample-step {got}, expected {want}; "
            f"circuits per gradient {counts['autodiff.circuits_per_gradient']}, expected {want - 1}"
        ])
    per_cycle = [layer_values(s)[1] for s in summaries]
    values = dict(counts)
    for name in per_cycle[0]:
        values[name] = _median([c[name] for c in per_cycle])

    values["trace.overhead_train_s"] = (
        run.mean("train_s", set(traced)) - run.mean("train_s", set(plain))
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        machine.bootstrap()
    except machine.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    directory = machine.OUT / workload.name
    directory.mkdir(parents=True, exist_ok=True)
    run = Run()
    probe_setup(workload, args.seed, directory, run)
    run.op("warm", lambda: workload.warm(directory))

    tracer = spans.Tracer() if args.trace else None
    summaries: list[dict] = []
    plain: list[int] = []
    traced: list[int] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        run.cycle = len(plain) + len(traced)
        tracing = tracer is not None and run.cycle % 2 == 1
        start = time.perf_counter()
        probe_setup(workload, args.seed, directory, run)
        if tracing:
            mark = tracer.mark()
            tracer.install()
            run.tracer = tracer
        try:
            workload.cycle(run, directory, args.seed)
        finally:
            if tracing:
                tracer.uninstall()
                run.tracer = None
        end = time.perf_counter()
        (traced if tracing else plain).append(run.cycle)
        if tracing:
            summaries.append(tracer.summarize(mark))
        enough = traced if tracer is not None else plain
        if enough and time.perf_counter() + (end - start) > deadline:
            break

    context = {**workload.describe(), "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "machine": machine.describe()}
    e2e, info = end_to_end(run, plain)
    record = {"context": context, "cycles": {"plain": plain, "traced": traced},
              **info, "end_to_end": e2e, "samples": run.samples, "ops": run.ops}
    if tracer is not None:
        metrics = per_layer(run, workload, summaries, plain, traced)
        record.update(per_layer=metrics, trace_summaries=summaries, missing=tracer.missing)
        tracer.write(directory / f"spans-seed{args.seed}.npz")
    else:
        metrics = e2e
    record["problems"] = run.problems
    (directory / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    units = dict(END_TO_END)
    print(f"qembed benchmark {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} plain + {len(traced)} traced cycle(s), "
          f"{run.attempted} ops, {run.failed} failed")
    print("context " + json.dumps(context))
    print(f"speed factor {info['speed_factor']:.4f}; predict latency samples: "
          f"{info['latency_samples']}, p99 {info['predict_p99_us']:.6g} us; samples per metric: "
          f"{json.dumps(info['samples_per_metric'])}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units.get(name, unit_of(name))}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, unit_of(name))}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(per_layer_name: str) -> str:
    if per_layer_name.endswith("rows_per_s"):
        return "1/s"
    if per_layer_name.endswith((".s", "_s")):
        return "s"
    if per_layer_name.endswith("bytes") or per_layer_name.endswith("bytes_computed"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
