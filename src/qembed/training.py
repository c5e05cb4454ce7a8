"""Training loop for the hybrid model, plus prediction and evaluation.

One epoch walks the shuffled training split in mini-batches. An encoder
model embeds the batch's images as one block (`encode_with_cache` on a
leading row axis); every sample is then reduced, pushed through the
circuit, measured and differentiated on its own, and one block
`encode_backward` takes the rows of their feature gradients back through
the encoder (none runs when the encoder is frozen). Gradients are summed
in batch order, each row the bits of its sample's own gradient, and
averaged over the batch before the optimizer step (batch_size=1 recovers
the strict per-sample loop). Early stopping watches
the validation loss with a patience/min_delta plateau rule, and the
returned model carries the parameters of the best validation epoch.

Runs are deterministic: one seeded generator drives the validation split,
the per-epoch shuffles, and nothing else.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import backward, bce_loss, reduce_input_gradient
from .encoder import encode_backward, encode_with_cache
from .encoder import named_parameters as encoder_named_parameters
from .metrics import MetricsReport, compute_metrics
from .model import (
    HybridModel,
    check_image_shape,
    model_forward,
    named_parameters,
    readout_p0,
    set_parameters,
    snapshot_parameters,
)

OPTIMIZERS = ("sgd", "sgd-momentum", "adam")


@dataclass
class TrainingConfig:
    learning_rate: float = 0.1
    max_epochs: int = 100
    batch_size: int = 16
    optimizer: str = "sgd-momentum"
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    patience: int = 20
    min_delta: float = 1e-4
    validation_fraction: float = 0.2
    freeze_encoder: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_f1: float
    grad_norm: float


@dataclass
class TrainingHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    wall_time_s: float = 0.0

    def csv_text(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_f1,grad_norm"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.val_f1!r},{r.grad_norm!r}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.csv_text())


class _SgdMomentum:
    def __init__(self, lr: float, beta: float):
        self.lr = lr
        self.beta = beta
        self.velocity: dict | None = None

    def step(self, params: dict, grads: dict) -> None:
        if self.velocity is None:
            self.velocity = {name: np.zeros_like(g) for name, g in grads.items()}
        for name, g in grads.items():
            v = self.velocity[name]
            v *= self.beta
            v += g
            params[name] -= self.lr * v


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict | None = None
        self.v: dict | None = None

    def step(self, params: dict, grads: dict) -> None:
        if self.m is None:
            self.m = {name: np.zeros_like(g) for name, g in grads.items()}
            self.v = {name: np.zeros_like(g) for name, g in grads.items()}
        self.t += 1
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(config: TrainingConfig):
    if config.optimizer == "sgd":
        # beta 0: the velocity is the gradient itself
        return _SgdMomentum(config.learning_rate, 0.0)
    if config.optimizer == "sgd-momentum":
        return _SgdMomentum(config.learning_rate, config.momentum)
    return _Adam(
        config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps
    )


def stratified_split(labels, fraction: float, rng: np.random.Generator):
    """(train_indices, val_indices), stratified by label.

    fraction 0 keeps everything in the training set and validates on it.
    With a positive fraction each class contributes its share, and the split
    is nudged so both sides end up non-empty.
    """
    n = len(labels)
    if fraction == 0.0:
        idx = list(range(n))
        return idx, list(idx)
    by_label: dict[int, list[int]] = {}
    for i, y in enumerate(labels):
        by_label.setdefault(int(y), []).append(i)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for y in sorted(by_label):
        group = np.array(by_label[y])
        rng.shuffle(group)
        k = int(round(fraction * len(group)))
        k = min(k, len(group) - 1) if len(group) > 1 else 0
        val_idx.extend(int(i) for i in group[:k])
        train_idx.extend(int(i) for i in group[k:])
    if not val_idx and len(train_idx) > 1:
        val_idx.append(train_idx.pop())
    if not train_idx:
        raise ValueError("validation split left no training samples")
    if not val_idx:
        val_idx = list(train_idx)
    return sorted(train_idx), sorted(val_idx)


def _check_dataset(dataset, model: HybridModel) -> None:
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    first_shape = np.asarray(dataset[0].features).shape
    for rec in dataset:
        if rec.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {rec.label!r} (id={rec.id!r})")
        shape = np.asarray(rec.features).shape
        if shape != first_shape:
            raise ValueError(
                f"inconsistent feature shapes: {shape} vs {first_shape} (id={rec.id!r})"
            )
    if model.bypass and first_shape != (model.reduction.in_dim,):
        raise ValueError(
            f"feature dimension {first_shape} does not match reduction "
            f"in_dim {model.reduction.in_dim}"
        )
    # a batch of 2-D inputs would stack into one 3-D array and read as one image
    if not model.bypass:
        check_image_shape(first_shape, f" (id={dataset[0].id!r})")


def decide_label(p0: float) -> int:
    """1 iff p0 >= 0.5; the tie p0 = 0.5 resolves to label 1."""
    return 1 if p0 >= 0.5 else 0


def _mean_loss_and_f1(model: HybridModel, dataset, indices) -> tuple[float, float]:
    p0s = readout_p0(model, [dataset[i].features for i in indices]).tolist()
    labels = [dataset[i].label for i in indices]
    losses = [bce_loss(p0, 1.0 - p0, label) for p0, label in zip(p0s, labels)]
    preds = [decide_label(p0) for p0 in p0s]
    return float(np.mean(losses)), compute_metrics(preds, labels).f1


def train(dataset, model: HybridModel, config: TrainingConfig) -> tuple[HybridModel, TrainingHistory]:
    """Fit the model; returns it holding the best-validation-loss parameters."""
    _check_dataset(dataset, model)
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    labels = [rec.label for rec in dataset]
    train_idx, val_idx = stratified_split(labels, config.validation_fraction, rng)

    params = named_parameters(model)
    if config.freeze_encoder:
        trainable = {k: v for k, v in params.items() if not k.startswith("encoder.")}
    else:
        trainable = params
    optimizer = _make_optimizer(config)
    # the model without its encoder, sharing the reduction and theta arrays:
    # per-sample forwards and backwards start from the encoded features
    head = model if model.bypass else replace(model, encoder_config=None, encoder_weights=None)
    train_encoder = not model.bypass and not config.freeze_encoder

    history = TrainingHistory()
    best_val = math.inf
    best_snapshot = snapshot_parameters(model)
    plateau_ref = math.inf
    epochs_without_improvement = 0

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        epoch_losses: list[float] = []
        batch_norms: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_idx[i] for i in order[start : start + config.batch_size]]
            grad_sum = {name: np.zeros_like(arr) for name, arr in trainable.items()}
            feats = [dataset[i].features for i in batch]
            if not model.bypass:
                feats, encoder_cache = encode_with_cache(
                    np.asarray(feats, dtype=float), model.encoder_weights, model.encoder_config
                )
            g_feats = []
            for i, feat in zip(batch, feats):
                rec = dataset[i]
                cache = model_forward(head, feat)
                loss = bce_loss(cache.p0, cache.p1, rec.label)
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch}, sample id={rec.id!r}"
                    )
                epoch_losses.append(loss)
                grads = backward(head, cache, rec.label)
                for name, g in grads.items():
                    grad_sum[name] += g
                if train_encoder:
                    # the bias gradient is the gradient at the reduction's output
                    g_feats.append(reduce_input_gradient(grads["reduction.b"], model.reduction))
            if train_encoder:
                g_encoder = encode_backward(
                    np.array(g_feats), encoder_cache, model.encoder_weights, model.encoder_config
                )
                for name, rows in encoder_named_parameters(g_encoder).items():
                    for g in rows:
                        grad_sum[f"encoder.{name}"] += g
            inv = 1.0 / len(batch)
            for name in grad_sum:
                grad_sum[name] *= inv
            batch_norms.append(
                math.sqrt(sum(float(np.sum(g * g)) for g in grad_sum.values()))
            )
            optimizer.step(trainable, grad_sum)

        val_loss, val_f1 = _mean_loss_and_f1(model, dataset, val_idx)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                val_loss=val_loss,
                val_f1=val_f1,
                grad_norm=float(np.mean(batch_norms)),
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = snapshot_parameters(model)
            history.best_epoch = epoch
        if val_loss < plateau_ref - config.min_delta:
            plateau_ref = val_loss
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                break

    set_parameters(model, best_snapshot)
    history.wall_time_s = time.perf_counter() - started
    return model, history


def predict(model: HybridModel, x) -> tuple[int, float, float]:
    """(label, p0, p1); label 1 iff p0 >= 0.5 (P(0) is the class-1 probability)."""
    p0 = float(readout_p0(model, [x])[0])
    return decide_label(p0), p0, 1.0 - p0


def evaluate(model: HybridModel, dataset) -> MetricsReport:
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    p0s = readout_p0(model, [rec.features for rec in dataset])
    return compute_metrics([decide_label(p0) for p0 in p0s], [rec.label for rec in dataset])
