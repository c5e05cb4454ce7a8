"""Finite-difference audit of every trainable parameter's gradient.

Perturbs each scalar parameter by +-h, re-evaluates the loss of every
sample, and compares each sample's central difference against its
analytic/parameter-shift gradient: row s of training's row step
(`training.row_gradients`) over all samples. Every array follows one
rule: it is shifted in C-contiguous copies of it alone on a leading copy
axis, never in the model, each block holding the +h and -h copies of as
many of its scalars as fit in `_BLOCK_ROWS` (copy x sample) rows. Each
block's P(0) pass names the scalar of its first non-finite row (the pass's
`circuits.NonFiniteRowError` carries that row's index), and all of an
array's P(0) rows are scored in one `autodiff.bce_losses` pass, whose
central differences are folded into its group as one array. An encoder
block starts its copies where the shifted array is first read: a layer's
copies at that layer's input, and the head's at the final tokens, both
from the row step's block `EncodeCache` (`encoder.encode_from`); only the
patch projection, positional rows and class token encode the samples
again, the ops upstream of the array once for the samples. Either way the
reduction and circuit score the feature rows in one `model.features_p0`
pass. A reduction block reduces the row step's features against each copy
(`autodiff.reduce_rows` on its copy axis) and scores all its rows in one
`model.reduced_p0` pass; an ansatz block runs one such pass of the row
step's reductions per copy. The sample inputs must stack into one row
array (`model.as_rows`), checked once before any copy is made.
`draw_samples` redraws a candidate input whose ReLU pre-activations or
readout probability sit too close to a kink or clamp, where central
differences are unreliable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .autodiff import bce_losses, reduce_rows
from .circuits import NON_FINITE_FEATURES, NonFiniteRowError
from .encoder import encode, encode_from, encode_with_cache, with_array
from .model import HybridModel, as_rows, features_p0, model_forward, named_parameters
from .model import reduced_p0
from .training import row_gradients

DEFAULT_H = 1e-5
DEFAULT_ABS_TOL = 1e-6
DEFAULT_REL_TOL = 1e-4
RELU_MARGIN = 1e-3
PROB_MARGIN = 1e-4

# (copy x sample) rows per block of the audit: the +h and -h copies
# of as many scalars of one array as fit, and at least one pair
_BLOCK_ROWS = 128


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
    layers = [] if encoder_cache is None else encoder_cache.layer_caches
    return not any(np.min(np.abs(lc.hpre)) < RELU_MARGIN for lc in layers)


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
    >= 0. The model's parameters are never written; a shift that makes
    features non-finite is reported with its parameter, scalar and `h`.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {tol}")
    params = named_parameters(model)
    groups = {name: GroupDeviation(name=name) for name in params}
    samples = list(samples)
    labels = [label for _, label in samples]
    xs = as_rows(model, [x for x, _ in samples])
    if not samples:
        return True, groups
    _, grads, feats, cache = row_gradients(model, xs, labels)
    for name, array in params.items():
        ups, downs = _shifted_losses(model, name, array, xs, feats, cache, labels, h)
        analytic = grads[name].reshape(len(xs), -1).T
        _record(groups[name], analytic, (ups - downs) / (2.0 * h), abs_tol, rel_tol)
    return all(g.ok for g in groups.values()), groups


def _record(group: GroupDeviation, a: np.ndarray, fd: np.ndarray, abs_tol, rel_tol) -> None:
    """Fold analytic gradients `a` and central differences `fd` into
    `group`, entry by entry the bits of Python's `abs`, `max` and `>`: a NaN
    deviation neither raises a maximum nor fails the group."""
    dev, a, fd = np.abs(a - fd), np.abs(a), np.abs(fd)
    scale = np.where(fd > a, fd, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0, dev / scale, 0.0)
    group.checked += dev.size
    group.max_abs_dev = float(np.fmax.reduce(dev, axis=None, initial=group.max_abs_dev))
    group.max_rel_dev = float(np.fmax.reduce(rel, axis=None, initial=group.max_rel_dev))
    group.ok = group.ok and not (dev > np.fmax(abs_tol, rel_tol * scale)).any()


def _shifted_losses(model: HybridModel, name: str, live: np.ndarray, xs, feats, cache, labels,
                    h: float):
    """(losses at +h, losses at -h) of every scalar of array `name`, `live`
    in the model, each (scalars, samples), from the row step's rows `xs`,
    features `feats` and encode `cache`.

    Blocks of pairs of copies of the array on a leading copy axis shift one
    scalar each, +h in the first and -h in the second: (K, *shape) for a
    head array, and for an encoder array (K, 1, *shape), or (K, 1, 1, n)
    for a layer vector added along the token axis. Every other array is the
    model's own. A row whose circuit angles are not finite names its
    scalar. The blocks' P(0) rows are scored in one `bce_losses` pass.
    """
    flat, n = live.reshape(-1), len(labels)
    pairs = min(live.size, max(1, _BLOCK_ROWS // (2 * n)))
    lead = (2 * pairs,)
    if name.startswith("encoder."):
        lead += (1, 1) if name.startswith("encoder.layer.") and live.ndim == 1 else (1,)
    copies = np.broadcast_to(live, lead + live.shape).copy()
    rows = copies.reshape(2 * pairs, -1)
    p0 = []
    for start in range(0, live.size, pairs):
        i = np.arange(min(pairs, live.size - start))
        rows[2 * i, start + i] = flat[start + i] + h
        rows[2 * i + 1, start + i] = flat[start + i] - h
        try:
            p0.append(_copies_p0(model, name, copies[: 2 * len(i)], xs, feats, cache))
        except NonFiniteRowError as exc:
            # the p0 pass names the first non-finite (copy, sample) row
            j = start + exc.row // (2 * n)
            message = f"shifting {name} scalar {j} by h={h!r}: {NON_FINITE_FEATURES}"
            raise ValueError(message) from None
        rows[:, start + i] = flat[start + i]
    losses = bce_losses(np.concatenate(p0), labels * (2 * live.size)).reshape(-1, 2, n)
    return losses[:, 0], losses[:, 1]


def _copies_p0(model: HybridModel, name: str, copies: np.ndarray, xs, feats, cache) -> np.ndarray:
    """P(0) of every sample against every copy of array `name`, copy by
    copy: a reduction copy reduces the samples' features `feats`, and the
    ansatz angles' copies each run one readout of the features'
    reductions. An encoder copy encodes from the samples' tokens at its
    own layer's input in the row step's `cache`, or at its final tokens
    for a head copy; a copy of an array the patches feed encodes the
    samples `xs`."""
    if name == "ansatz.theta":
        # the row step ran these reductions' angles, so none is non-finite
        y = reduce_rows(feats, model.reduction)
        return np.concatenate([reduced_p0(model, y, theta) for theta in copies])
    if name.startswith("reduction."):
        shifted = {name.removeprefix("reduction."): copies}
        layer = SimpleNamespace(**{**vars(model.reduction), **shifted})
        # a shift that overflows a reduction is named by the readout
        with np.errstate(over="ignore"):
            y = reduce_rows(feats, layer)
        return reduced_p0(model, y.reshape(-1, y.shape[-1]), model.theta)
    key = name.removeprefix("encoder.")
    weights = with_array(model.encoder_weights, key, copies)
    # a shift that overflows the encoder is named by the readout
    with np.errstate(over="ignore", invalid="ignore"):
        if key.startswith("layer."):
            first = int(key.split(".")[1])
            encoded = encode_from(cache.layer_caches[first].x, first, weights, model.encoder_config)
        elif key.startswith("head."):
            encoded = encode_from(cache.top, len(weights.layers), weights, model.encoder_config)
        else:
            encoded = encode(xs, weights, model.encoder_config)
    return features_p0(model, encoded.reshape(-1, encoded.shape[-1]))


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
