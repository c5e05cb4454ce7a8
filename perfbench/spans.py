"""In-memory span tracer that wraps qembed's functions from outside the package.

qembed's modules bind each other with `from .x import f`, so patching a
function where it is defined misses every caller that imported it. The
tracer replaces the function object at every `qembed.*` module attribute
that holds it (the package re-exports included) and restores them all on
`uninstall()`. Callers outside the package must look functions up through
their module at call time (`qembed.training.train(...)`) to be traced.

Each call records one span: name, start, end, parent span and op id, kept
in flat arrays until the run writes them out. Counts that the spans cannot
express (gates applied, checkpoint bytes, CSV rows) are summed by hooks.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (defining module, function): the public entry points of each layer.
TARGETS = (
    ("statevector", "run_circuit"),
    ("circuits", "quantum_forward"),
    ("circuits", "build_z_feature_map"),
    ("circuits", "build_real_amplitudes"),
    ("encoder", "encode_with_cache"),
    ("encoder", "encode_backward"),
    ("autodiff", "circuit_angle_gradients"),
    ("autodiff", "backward"),
    ("model", "model_forward"),
    ("training", "train"),
    ("training", "evaluate"),
    ("training", "predict"),
    ("data", "load_embeddings"),
    ("data", "write_embeddings"),
    ("data", "generate_synthetic"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("gradcheck", "draw_samples"),
    ("gradcheck", "gradient_check"),
    ("benchmark", "run_benchmark"),
    ("cli", "main"),
)

NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)

COUNTERS = (
    "statevector.gates_applied",
    "statevector.bytes_computed",
    "checkpoint.bytes",
    "data.rows_loaded",
)


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.errors = [0] * len(NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current_op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "qembed" or key.startswith("qembed."))
        ]
        self.missing = []
        for nid, (module, function) in enumerate(TARGETS):
            original = getattr(sys.modules.get(f"qembed.{module}"), function, None)
            if original is None:
                self.missing.append(NAMES[nid])
                continue
            wrapper = self._wrap(nid, original, self._hook(NAMES[nid]))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _hook(self, name: str):
        counters = self.counters
        if name == "statevector.run_circuit":
            def after(args, kwargs, result):
                gates = len(_arg(args, kwargs, 1, "gates"))
                counters["statevector.gates_applied"] += gates
                # every gate reads and writes all 2**n complex128 amplitudes
                counters["statevector.bytes_computed"] += gates * (2**result.n_qubits) * 32
            return after
        if name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
            def after(args, kwargs, result):
                counters["checkpoint.bytes"] += _file_size(_arg(args, kwargs, 0, "path"))
            return after
        if name == "data.load_embeddings":
            def after(args, kwargs, result):
                counters["data.rows_loaded"] += len(result)
            return after
        return None

    def _wrap(self, nid: int, fn, after):
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, errors, clock, tracer = self._stack, self.errors, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(end)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- reading ----------------------------------------------------------
    def mark(self) -> tuple[int, list[int], dict[str, int]]:
        """Snapshot to pass to `summarize` once the section of interest ends."""
        return len(self.end), list(self.errors), dict(self.counters)

    def summarize(self, mark) -> dict:
        """Per-name calls, inclusive and self seconds, errors and counters
        for the spans recorded since `mark`, plus the derived circuit counts."""
        first, errors_before, counters_before = mark
        start = np.array(self.start[first:], dtype=float)
        end = np.array(self.end[first:], dtype=float)
        names = np.array(self.name[first:], dtype=np.int64)
        parent = np.array(self.parent[first:], dtype=np.int64) - first
        parent[parent < 0] = -1
        dur = end - start
        has_parent = parent >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        k = len(NAMES)
        calls = np.bincount(names, minlength=k)
        inclusive = np.bincount(names, weights=dur, minlength=k)
        self_time = np.bincount(names, weights=dur - child_time, minlength=k)

        nid = {n: i for i, n in enumerate(NAMES)}
        circuits = _descendant_counts(names == nid["statevector.run_circuit"], parent)
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)

        cag = names == nid["autodiff.circuit_angle_gradients"]
        steps, step_evals = _sample_steps(
            names, parent_name, circuits, nid["training.train"],
            nid["model.model_forward"], nid["autodiff.backward"],
        )
        out = {
            "spans": int(len(dur)),
            "layers": {
                NAMES[i]: {
                    "calls": int(calls[i]),
                    "s": float(inclusive[i]),
                    "self_s": float(self_time[i]),
                    "errors": self.errors[i] - errors_before[i],
                }
                for i in range(k)
            },
            "counters": {c: self.counters[c] - counters_before[c] for c in COUNTERS},
            "gradient_calls": int(cag.sum()),
            "gradient_circuits": int(circuits[cag].sum()),
            "sample_steps": steps,
            "sample_step_circuits": step_evals,
            "gradcheck_loss_evals": int(
                np.sum(
                    (names == nid["model.model_forward"])
                    & (parent_name == nid["gradcheck.gradient_check"])
                )
            ),
        }
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(NAMES),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int32),
            name=np.array(self.name, dtype=np.int16),
            op=np.array(self.op, dtype=np.int32),
        )


def _descendant_counts(selected: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """For every span, how many selected spans lie inside it (itself included)."""
    counts = selected.astype(np.int64)
    frontier = parent[selected]
    while frontier.size:
        frontier = frontier[frontier >= 0]
        np.add.at(counts, frontier, 1)
        frontier = parent[frontier]
    return counts


def _sample_steps(names, parent_name, circuits, train_id, forward_id, backward_id):
    """(sample steps, circuits they ran) inside training loops.

    A sample step is a model_forward directly under train followed by a
    backward; validation forwards have no backward and are not counted.
    """
    steps = evals = 0
    forward_circuits = 0
    for i in np.nonzero(parent_name == train_id)[0]:
        if names[i] == forward_id:
            forward_circuits = int(circuits[i])
        elif names[i] == backward_id:
            steps += 1
            evals += forward_circuits + int(circuits[i])
    return steps, evals
