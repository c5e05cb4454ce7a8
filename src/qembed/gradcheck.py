"""Finite-difference audit of every trainable parameter's gradient.

Perturbs each scalar parameter by +-h, re-evaluates the loss of every
sample in one `readout_p0` pass, and compares each sample's central
difference against its analytic/parameter-shift gradient from backward().
Sample inputs are redrawn when a ReLU pre-activation or the readout
probability sits too close to a kink or clamp, where central differences
are unreliable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import backward, bce_loss
from .model import HybridModel, model_forward, named_parameters, readout_p0

DEFAULT_H = 1e-5
DEFAULT_ABS_TOL = 1e-6
DEFAULT_REL_TOL = 1e-4
RELU_MARGIN = 1e-3
PROB_MARGIN = 1e-4


@dataclass
class GroupDeviation:
    name: str
    max_abs_dev: float = 0.0
    max_rel_dev: float = 0.0
    checked: int = 0
    ok: bool = True


def _sample_is_clean(model: HybridModel, cache) -> bool:
    if not PROB_MARGIN < cache.p0 < 1.0 - PROB_MARGIN:
        return False
    if cache.encoder_cache is not None:
        for lc in cache.encoder_cache.layer_caches:
            if np.min(np.abs(lc.hpre)) < RELU_MARGIN:
                return False
    return True


def draw_samples(
    model: HybridModel,
    n_samples: int,
    rng: np.random.Generator,
    image_shape: tuple[int, int, int] | None = None,
) -> list[tuple[np.ndarray, int]]:
    """Random (input, label) pairs kept away from ReLU kinks and prob clamps."""
    if n_samples < 1:
        raise ValueError(f"gradient check needs at least 1 sample, got {n_samples}")
    if not model.bypass and image_shape is None:
        raise ValueError("image_shape is required for encoder models")
    samples: list[tuple[np.ndarray, int]] = []
    attempts = 0
    while len(samples) < n_samples:
        attempts += 1
        if attempts > 100 * n_samples:
            raise RuntimeError("could not draw enough well-conditioned samples")
        if model.bypass:
            x = rng.normal(0.0, 1.0, size=model.reduction.in_dim)
        else:
            x = rng.normal(0.0, 1.0, size=image_shape)
        label = int(rng.integers(0, 2))
        cache = model_forward(model, x)
        if _sample_is_clean(model, cache):
            samples.append((x, label))
    return samples


def gradient_check(
    model: HybridModel,
    samples,
    h: float = DEFAULT_H,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[bool, dict[str, GroupDeviation]]:
    """Compare backward() against central differences on every parameter.

    Passes when |analytic - fd| <= max(abs_tol, rel_tol * max(|analytic|, |fd|))
    holds for every scalar entry on every sample.
    """
    params = named_parameters(model)
    groups = {name: GroupDeviation(name=name) for name in params}
    all_ok = True
    xs = [x for x, _ in samples]
    labels = [label for _, label in samples]
    analytic = []
    for x, label in samples:
        grads = backward(model, model_forward(model, x), label)
        analytic.append({name: g.reshape(-1) for name, g in grads.items()})
    for name, array in params.items():
        group = groups[name]
        flat = array.flat
        for j in range(array.size):
            original = float(flat[j])
            flat[j] = original + h
            ups = _losses(model, xs, labels)
            flat[j] = original - h
            downs = _losses(model, xs, labels)
            flat[j] = original
            for grads, up, down in zip(analytic, ups, downs):
                fd = (up - down) / (2.0 * h)
                a = float(grads[name][j])
                dev = abs(a - fd)
                scale = max(abs(a), abs(fd))
                rel = dev / scale if scale > 0 else 0.0
                group.checked += 1
                group.max_abs_dev = max(group.max_abs_dev, dev)
                group.max_rel_dev = max(group.max_rel_dev, rel)
                if dev > max(abs_tol, rel_tol * scale):
                    group.ok = False
                    all_ok = False
    return all_ok, groups


def _losses(model: HybridModel, xs, labels) -> list[float]:
    return [
        bce_loss(p0, 1.0 - p0, label)
        for p0, label in zip(readout_p0(model, xs).tolist(), labels)
    ]


def format_report(groups: dict[str, GroupDeviation]) -> str:
    name_width = max(len(name) for name in groups)
    lines = [f"{'parameter':<{name_width}}  {'max_abs_dev':>12}  {'max_rel_dev':>12}  status"]
    for name in groups:
        g = groups[name]
        status = "ok" if g.ok else "FAIL"
        lines.append(
            f"{name:<{name_width}}  {g.max_abs_dev:>12.3e}  {g.max_rel_dev:>12.3e}  {status}"
        )
    return "\n".join(lines)
