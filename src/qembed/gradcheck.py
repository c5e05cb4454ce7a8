"""Finite-difference audit of every trainable parameter's gradient.

Perturbs each scalar parameter by +-h, re-evaluates the loss of every
sample, and compares each sample's central difference against its
analytic/parameter-shift gradient: row s of training's row step
(`training.row_gradients`) over all samples. Encoder scalars are shifted
in stacked copies of the encoder weights (`encoder.stack_weights`), never
in the model: one encoder forward scores every sample under a block of
shifted copies, and the reduction and circuit score the block's (copies x
samples) feature rows in one `model.features_p0` pass. Reduction and
ansatz scalars are shifted in place, one at a time, and restored; they
leave the samples' features as they are, so their losses read the
features of the row step's own encoder forward. The sample inputs
must stack into one row array (`model.as_rows`), checked once before any
parameter moves. `draw_samples` redraws a candidate input whose ReLU
pre-activations (from its own lone-image `encode_with_cache`) or readout
probability sit too close to a kink or clamp, where central differences
are unreliable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import bce_loss
from .encoder import EncoderWeights, encode, encode_with_cache, stack_weights
from .encoder import named_parameters as encoder_named_parameters
from .model import (
    _ENCODE_BLOCK_ROWS,
    HybridModel,
    as_rows,
    features_p0,
    model_forward,
    named_parameters,
)
from .training import _row_step

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


def _sample_is_clean(p0: float, encoder_cache) -> bool:
    if not PROB_MARGIN < p0 < 1.0 - PROB_MARGIN:
        return False
    if encoder_cache is not None:
        for lc in encoder_cache.layer_caches:
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
        x = rng.normal(0.0, 1.0, size=model.reduction.in_dim if model.bypass else image_shape)
        feat, encoder_cache = x, None
        if not model.bypass:
            feat, encoder_cache = encode_with_cache(x, model.encoder_weights, model.encoder_config)
        label = int(rng.integers(0, 2))
        if _sample_is_clean(model_forward(model, feat).p0, encoder_cache):
            samples.append((x, label))
    return samples


def gradient_check(
    model: HybridModel,
    samples,
    h: float = DEFAULT_H,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[bool, dict[str, GroupDeviation]]:
    """Compare analytic gradients (`row_gradients`) against central
    differences on every parameter.

    Passes when |analytic - fd| <= max(abs_tol, rel_tol * max(|analytic|, |fd|))
    holds for every scalar entry on every sample, an iterable of (input,
    label) pairs. `h` must be finite and > 0, the tolerances finite and
    >= 0. The model's parameters are left as they were, also when a loss
    evaluation raises.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {tol}")
    params = named_parameters(model)
    groups = {name: GroupDeviation(name=name) for name in params}
    all_ok = True
    samples = list(samples)
    labels = [label for _, label in samples]
    xs = as_rows(model, [x for x, _ in samples])
    if not samples:
        return all_ok, groups
    _, grads, feats = _row_step(model, xs, labels, True)
    analytic = {name: g.reshape(len(xs), -1) for name, g in grads.items()}
    if not model.bypass:
        # +h and -h copies of as many scalars as fit in one encoder block of
        # copies x samples, and at least one pair
        pairs = max(1, _ENCODE_BLOCK_ROWS // (2 * len(xs)))
        stacked = stack_weights(model.encoder_weights, 2 * pairs)
    for name, array in params.items():
        group = groups[name]
        if name.startswith("encoder."):
            key = name.removeprefix("encoder.")
            shifted = _encoder_shifted_losses(model, stacked, key, xs, labels, h)
        else:
            shifted = _shifted_losses(model, array, feats, labels, h)
        for j, ups, downs in shifted:
            for a, up, down in zip(analytic[name][:, j].tolist(), ups, downs):
                fd = (up - down) / (2.0 * h)
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


def _shifted_losses(model: HybridModel, array: np.ndarray, feats, labels, h: float):
    """(j, losses at +h, losses at -h) for every scalar j of a reduction or
    ansatz array, which is shifted in place and restored: these scalars leave
    the samples' encoder features `feats` as they are."""
    flat = array.flat
    for j in range(array.size):
        original = float(flat[j])
        try:
            flat[j] = original + h
            ups = _losses(model, feats, labels)
            flat[j] = original - h
            downs = _losses(model, feats, labels)
        finally:
            flat[j] = original
        yield j, ups, downs


def _encoder_shifted_losses(
    model: HybridModel, stacked: EncoderWeights, key: str, xs, labels, h: float
):
    """(j, losses at +h, losses at -h) for every scalar j of encoder array
    `key`, in order, read from `stacked` copies of the encoder weights.

    Each block shifts one scalar per pair of copies, +h in the first and -h
    in the second, encodes every sample against all copies at once and
    restores the copies; the live weights are never written.
    """
    flat = encoder_named_parameters(model.encoder_weights)[key].reshape(-1)
    rows = encoder_named_parameters(stacked)[key].reshape(len(stacked.head_b), -1)
    pairs, n = len(rows) // 2, len(xs)
    for start in range(0, flat.size, pairs):
        stop = min(start + pairs, flat.size)
        for i, j in enumerate(range(start, stop)):
            original = float(flat[j])
            rows[2 * i, j] = original + h
            rows[2 * i + 1, j] = original - h
        k = 2 * (stop - start)
        feats = encode(xs, stacked, model.encoder_config)[:k]
        rows[:, start:stop] = flat[start:stop]
        losses = _losses(model, feats.reshape(-1, feats.shape[-1]), labels * k)
        for i, j in enumerate(range(start, stop)):
            yield j, losses[2 * i * n : (2 * i + 1) * n], losses[(2 * i + 1) * n : (2 * i + 2) * n]


def _losses(model: HybridModel, feats, labels) -> list[float]:
    return [
        bce_loss(p0, 1.0 - p0, label)
        for p0, label in zip(features_p0(model, feats).tolist(), labels)
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
