"""Training loop for the hybrid model, plus prediction and evaluation.

`train` reads the dataset once, as one row array checked by
`model.as_rows` and for finite values; mini-batches and the validation
split are its row subsets. One epoch walks the shuffled training split in
mini-batches. `row_gradients` is the one training and audit step: an
encoder model embeds the batch's images as one block (`encode_with_cache`
on a leading row axis); the head is set up once for the block (one
`reduce_rows` and one ansatz gate list at the current theta); every row
is then pushed through the circuit, measured and differentiated on its own
(`model_forward`, `backward`, each row's feature map and 2P+1 circuits),
and one block `encode_backward` takes the rows of their feature gradients
back through the encoder (none runs when the encoder is frozen). Each row
is the bits of its own sample's BCE gradient on P(0).

The update stage works on one flat float64 vector of the trainable
parameters, in `named_parameters` order. Per mini-batch the row gradients
become one (rows, P) matrix, whose rows numpy's `sum(axis=0)` adds in
batch order, scaled by 1/rows (batch_size=1 recovers the strict
per-sample loop); the gradient norm sums each parameter array's squares
on its own, in order; SGD, momentum and Adam step the whole vector and
keep their state as vectors; and the vector's segments are copied into
the model's own arrays, which keep their identity. Every bit is that of
one optimizer step per array.

Early stopping watches the validation loss with a patience/min_delta
plateau rule; the vector's copy at the best validation epoch goes back
into the model's trainable arrays at the end.

Runs are deterministic: one seeded generator drives the validation split,
the per-epoch shuffles, and nothing else.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import backward, bce_losses, parameter_dict, reduce_input_gradient
from .autodiff import reduce_rows
from .circuits import build_real_amplitudes
from .encoder import encode_backward, encode_with_cache
from .metrics import MetricsReport, compute_metrics
from .model import (
    HybridModel,
    as_rows,
    model_forward,
    named_parameters,
    readout_p0,
    row_p0,
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
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if not 0.0 <= self.min_delta < math.inf:
            raise ValueError(f"min_delta must be finite and >= 0, got {self.min_delta}")
        for name in ("momentum", "adam_beta1", "adam_beta2", "validation_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")


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
        self.velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.velocity is None:
            self.velocity = np.zeros_like(grad)
        v = self.velocity
        v *= self.beta
        v += grad
        params -= self.lr * v


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(grad)
            self.v = np.zeros_like(grad)
        self.t += 1
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**self.t)
        v_hat = v / (1 - self.beta2**self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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


def _check_dataset(dataset) -> None:
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    for rec in dataset:
        if rec.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {rec.label!r} (id={rec.id!r})")


def decide_label(p0: float) -> int:
    """1 iff p0 >= 0.5; the tie p0 = 0.5 resolves to label 1."""
    return 1 if p0 >= 0.5 else 0


def _mean_loss_and_f1(model: HybridModel, rows, labels) -> tuple[float, float]:
    p0s = readout_p0(model, rows)
    losses = bce_losses(p0s, labels)
    return float(np.mean(losses)), compute_metrics(list(map(decide_label, p0s.tolist())), labels).f1


def row_gradients(model: HybridModel, rows: np.ndarray, labels, encoder: bool = True):
    """(losses, grads, feats, cache) of the rows of a row array
    (`model.as_rows`): each row's BCE loss, every parameter's gradients with
    a leading row axis (row s the bits of row s's gradient alone), their
    features, and the block's `EncodeCache` (None for a bypass model).

    An encoder model encodes the block once (`encode_with_cache`); the
    block's reductions and ansatz gate list are made once; each row runs
    one `model_forward` and one `backward`, the losses one `bce_losses`
    pass, and with `encoder` set one block `encode_backward` gives the
    encoder gradients (without it, `grads` holds no encoder keys). `labels`
    must hold one label per row, and there must be at least one row.
    """
    if len(rows) == 0:
        raise ValueError("cannot compute gradients of zero rows")
    if len(labels) != len(rows):
        raise ValueError(f"{len(rows)} row(s) but {len(labels)} label(s)")
    feats, cache = rows, None
    if not model.bypass:
        feats, cache = encode_with_cache(rows, model.encoder_weights, model.encoder_config)
    # the head's set-up, shared by every row: theta moves only in train's
    # update stage, between calls
    reduced = reduce_rows(feats, model.reduction)
    ansatz = build_real_amplitudes(model.theta, model.ansatz)
    p0s, steps = [], []
    for feat, y, label in zip(feats, reduced, labels):
        forward = model_forward(model, feat, y, ansatz)
        p0s.append(forward.p0)
        steps.append(backward(model, forward, label))
    g_encoder = None
    if encoder and not model.bypass:
        # the bias gradient is the gradient at the reduction's output
        g_feats = [reduce_input_gradient(g["reduction.b"], model.reduction) for g in steps]
        g_encoder = encode_backward(
            np.array(g_feats), cache, model.encoder_weights, model.encoder_config
        )
    head = [np.array([g[name] for g in steps]) for name in steps[0]]
    return bce_losses(p0s, labels).tolist(), parameter_dict(*head, g_encoder), feats, cache


def train(dataset, model: HybridModel, config: TrainingConfig) -> tuple[HybridModel, TrainingHistory]:
    """Fit the model; returns it holding the best-validation-loss parameters."""
    _check_dataset(dataset)
    started = time.perf_counter()
    xs = as_rows(model, [rec.features for rec in dataset])
    finite = np.isfinite(xs.reshape(len(xs), -1)).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))}: input values must be finite")
    rng = np.random.default_rng(config.seed)
    labels = [rec.label for rec in dataset]
    train_idx, val_idx = stratified_split(labels, config.validation_fraction, rng)
    val_rows, val_labels = xs[val_idx], [labels[i] for i in val_idx]

    arrays = [
        array
        for name, array in named_parameters(model).items()
        if not (config.freeze_encoder and name.startswith("encoder."))
    ]
    # the trainable parameters as one vector: array k is segment k, in
    # named_parameters order
    ends = np.cumsum([a.size for a in arrays]).tolist()
    segments = list(zip([0] + ends[:-1], ends))
    vector = np.concatenate([a.ravel() for a in arrays])
    optimizer = _make_optimizer(config)

    def load(values: np.ndarray) -> None:
        for array, (a, b) in zip(arrays, segments):
            array[...] = values[a:b].reshape(array.shape)

    history = TrainingHistory()
    best_val = math.inf
    best = vector.copy()
    plateau_ref = math.inf
    epochs_without_improvement = 0

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        epoch_losses: list[float] = []
        batch_norms: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_idx[i] for i in order[start : start + config.batch_size]]
            losses, grads, _, _ = row_gradients(
                model, xs[batch], [labels[i] for i in batch], encoder=not config.freeze_encoder
            )
            epoch_losses.extend(losses)
            # grads holds the trainable arrays' rows, in order; numpy adds
            # the rows of the (rows, P) matrix in batch order
            matrix = np.concatenate([g.reshape(len(batch), -1) for g in grads.values()], axis=1)
            grad = matrix.sum(axis=0)
            grad *= 1.0 / len(batch)
            # one sum of squares per array, as np.sum adds each array's
            # squares in an order that depends on its size
            sq = grad * grad
            batch_norms.append(math.sqrt(sum(float(sq[a:b].sum()) for a, b in segments)))
            optimizer.step(vector, grad)
            load(vector)

        val_loss, val_f1 = _mean_loss_and_f1(model, val_rows, val_labels)
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
            best = vector.copy()
            history.best_epoch = epoch
        if val_loss < plateau_ref - config.min_delta:
            plateau_ref = val_loss
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                break

    load(best)
    history.wall_time_s = time.perf_counter() - started
    return model, history


def predict(model: HybridModel, x) -> tuple[int, float, float]:
    """(label, p0, p1); label 1 iff p0 >= 0.5 (P(0) is the class-1 probability)."""
    p0 = row_p0(model, x)
    return decide_label(p0), p0, 1.0 - p0


def evaluate(model: HybridModel, dataset) -> MetricsReport:
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    p0s = readout_p0(model, [rec.features for rec in dataset])
    return compute_metrics([decide_label(p0) for p0 in p0s], [rec.label for rec in dataset])
