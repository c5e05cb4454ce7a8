"""The full trainable hybrid state and its forward evaluation.

A HybridModel is either an encoder model (images -> transformer features)
or a bypass model (inputs are already feature vectors, the practical
stand-in for a frozen pre-trained embedding). Both feed the reduction
layer, whose outputs parameterize the feature map, followed by the ansatz
and a single-qubit readout. `model_forward` keeps the head intermediates
(reduction, circuit, readout) of one feature row, for an encoder model the
encoder's output; training's row step (`training.row_gradients`) runs the
encoder, and the reduction and ansatz once per block of rows. Inference
reads P(0) of many rows through `readout_p0`, which runs the encoder over
a row axis, once per block of rows, the reduction once over all rows, and
the circuit through `circuits.readout_rows`, which blocks the rows
itself, each row model_forward's p0 of its features bit for bit.
Its inputs must stack into one float row array, (rows, in_dim) for a
bypass model and (rows, H, W, C) for an encoder model: `as_rows` converts
them once and checks their shapes at the boundary, naming the first bad
row; `readout_rows` names a row whose features are not finite. Training
reads its rows through `as_rows` too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ReductionLayer, parameter_dict, reduce, reduce_rows
from .circuits import (
    AnsatzSpec,
    FeatureMapSpec,
    QuantumForwardResult,
    _ansatz_angles,
    _check_specs,
    quantum_forward,
    readout_rows,
)
from .encoder import EncoderConfig, EncoderWeights, encode, init_encoder_weights
from .statevector import GateOp


@dataclass
class HybridModel:
    reduction: ReductionLayer
    theta: np.ndarray
    feature_map: FeatureMapSpec
    ansatz: AnsatzSpec
    encoder_config: EncoderConfig | None = None
    encoder_weights: EncoderWeights | None = None
    readout_qubit: int = 0

    def __post_init__(self) -> None:
        _check_specs(self.feature_map, self.ansatz)
        self.theta = _ansatz_angles(self.theta, self.ansatz)
        if self.reduction.n_out != self.feature_map.n_qubits:
            raise ValueError(
                f"reduction emits {self.reduction.n_out} value(s) but the "
                f"feature map expects {self.feature_map.n_qubits}"
            )
        if (self.encoder_config is None) != (self.encoder_weights is None):
            raise ValueError("encoder config and weights must be provided together")
        if self.encoder_config is not None:
            if self.encoder_config.out_dim != self.reduction.in_dim:
                raise ValueError(
                    f"encoder out_dim {self.encoder_config.out_dim} does not match "
                    f"reduction in_dim {self.reduction.in_dim}"
                )
        check_head(self.feature_map.n_qubits, self.readout_qubit, self.reduction.in_dim)

    @property
    def bypass(self) -> bool:
        return self.encoder_config is None


def check_head(n_qubits: int, readout_qubit: int, in_dim: int) -> None:
    """The head's ranges, checked by `HybridModel` and `head_shapes`."""
    if in_dim < 1:
        raise ValueError(f"in_dim must be at least 1, got {in_dim}")
    if not 0 <= readout_qubit < n_qubits:
        raise ValueError(f"readout_qubit must be in [0, {n_qubits}), got {readout_qubit}")


@dataclass
class ForwardCache:
    """Everything backward() needs from one feature row's forward pass: the
    row, and the circuit's readout with the gate list it ran, which
    backward's parameter shifts reuse."""

    feat: np.ndarray
    result: QuantumForwardResult

    @property
    def p0(self) -> float:
        return self.result.p0


def model_forward(
    model: HybridModel,
    feat,
    reduced: np.ndarray | None = None,
    ansatz: list[GateOp] | None = None,
) -> ForwardCache:
    """Reduce -> quantum circuit -> readout marginal of one feature row (an
    encoder model's row is the encoder's output).

    `training.row_gradients` passes what a mini-batch's rows share, made
    once per batch: the row's reduction `reduced` (`reduce`'s bits, from
    one `reduce_rows`), and `quantum_forward`'s `ansatz` at `model.theta`.
    Without them the row makes its own."""
    feat = np.asarray(feat, dtype=float)
    if reduced is None:
        reduced = reduce(feat, model.reduction)
    result = quantum_forward(
        reduced, model.theta, model.feature_map, model.ansatz, model.readout_qubit, ansatz
    )
    return ForwardCache(feat=feat, result=result)


# Rows per encoder block in readout_p0. A block's intermediates grow with its
# rows: one block of 1 000 rows raised peak RSS by 11 MiB, blocks of 128 by
# 1.5 MiB and blocks of 32 by 0.5 MiB, while the rows per second stop rising
# at about 32.
_ENCODE_BLOCK_ROWS = 32

# as in the gradient audit, a row whose features overflow the encoder or the
# reduction is named by the readout (`NonFiniteRowError`), with no numpy warning
@np.errstate(over="ignore", invalid="ignore")
def readout_p0(model: HybridModel, inputs) -> np.ndarray:
    """P(0) of every row of `inputs` (rows that stack into one array, see
    `as_rows`), in order: model_forward's p0 of each row's features, bit
    for bit."""
    return features_p0(model, inputs if model.bypass else encode_rows(model, inputs))


def encode_rows(model: HybridModel, inputs) -> np.ndarray:
    """(rows, out_dim) encoder features of the (rows, H, W, C) images
    `inputs`, encoded in blocks along the row axis, each row the bits of
    encoding it alone."""
    x = as_rows(model, inputs)
    feats = np.empty((len(x), model.encoder_config.out_dim))
    if len(x) == 1:
        # a lone image encodes about 5% faster without the row axis, at the
        # same bits (medians 117 us against 123 us for the default 4x4x1
        # config, interleaved on a 2-core VM)
        feats[0] = encode(x[0], model.encoder_weights, model.encoder_config)
        return feats
    for start in range(0, len(x), _ENCODE_BLOCK_ROWS):
        stop = start + _ENCODE_BLOCK_ROWS
        feats[start:stop] = encode(x[start:stop], model.encoder_weights, model.encoder_config)
    return feats


def features_p0(model: HybridModel, feats) -> np.ndarray:
    """P(0) of every row of the (rows, in_dim) features `feats`, in order:
    `reduced_p0` of their reductions. An error for a circuit angle that is
    not finite names the first such row by its index in `feats`."""
    x = as_rows(model, feats, features=True)
    return reduced_p0(model, reduce_rows(x, model.reduction), model.theta)


def reduced_p0(model: HybridModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """P(0) of every row of the (rows, n_qubits) reduction outputs `y`, in
    order, the ansatz at angles `theta`: `circuits.readout_rows` with the
    model's specs, which runs the rows in blocks and names a row whose
    circuit angle is not finite by its index in `y`."""
    return readout_rows(y, theta, model.feature_map, model.ansatz, model.readout_qubit)


def as_rows(model: HybridModel, inputs, features: bool = False) -> np.ndarray:
    """`inputs` as one float row array, (rows, in_dim) for a bypass model or
    when `features`, else (rows, H, W, C). An input that does not stack into
    it is checked row by row, in order, and the error names the first row of
    the wrong shape; if every row's shape is right, numpy's own error for a
    value that is not a number is raised."""
    width = model.reduction.in_dim if features or model.bypass else None
    try:
        x = np.asarray(inputs, dtype=float)
    except (TypeError, ValueError) as exc:
        error = exc
    else:
        if x.ndim == 4 if width is None else x.shape[1:] == (width,):
            return x
        if x.shape == (0,):
            return np.empty((0, 0, 0, 0) if width is None else (0, width))
        # every row has the shape x.shape[1:], which is the wrong one
        check_input_shape(x.shape[1:], width, "row 0: " if len(x) else "")
    first = None
    for i, row in enumerate(inputs):
        shape = np.shape(row)
        check_input_shape(shape, width, f"row {i}: ")
        first = first or shape
        if shape != first:
            raise ValueError(f"row {i}: inconsistent feature shapes: {shape} vs {first}")
    raise error


def check_input_shape(shape: tuple, width: int | None, where: str = "") -> None:
    """Reject a shape that is not one model input: `width` features, or when
    `width` is None one (H, W, C) image (not a 2-D input, nor an image with
    a leading row axis). `where` starts the message."""
    if width is None and len(shape) != 3:
        raise ValueError(f"{where}encoder input must be an (H, W, C) image, got shape {shape}")
    if width is not None and shape != (width,):
        raise ValueError(f"{where}input of shape {shape} does not match reduction in_dim {width}")


def head_shapes(in_dim: int, ansatz: AnsatzSpec, readout_qubit: int) -> dict[str, tuple[int, ...]]:
    """The shape of each head array `named_parameters` names, in its order,
    for a reduction from `in_dim` features into `ansatz`; nothing is
    allocated. Runs `check_head` first."""
    n = ansatz.n_qubits
    check_head(n, readout_qubit, in_dim)
    return {"reduction.w": (in_dim, n), "reduction.b": (n,),
            "ansatz.theta": (ansatz.parameter_count(),)}


def named_parameters(model: HybridModel) -> dict[str, np.ndarray]:
    """Live references to every trainable array, keyed by canonical name."""
    return parameter_dict(
        model.reduction.w, model.reduction.b, model.theta, model.encoder_weights
    )


def set_parameters(model: HybridModel, values: dict[str, np.ndarray]) -> None:
    """Copy values into the model's live arrays (shapes must match)."""
    params = named_parameters(model)
    for name, value in values.items():
        if name not in params:
            raise KeyError(f"unknown parameter {name!r}")
        np.copyto(params[name], value)


def _init_model(
    rng, in_dim, n_qubits, fm_repetitions, fm_scale, ansatz_layers, readout_qubit, **encoder
) -> HybridModel:
    """Specs, then each head array drawn from `rng` at its `head_shapes`
    shape, after any encoder weights, so that a seed always gives the same
    model.

    Reduction weights start uniform at a tenth of the fan-in/fan-out limit:
    they give circuit angles, which must start well inside one period of
    the pi-periodic readout. The bias starts where the readout sits at
    p0 = 0.5, the steepest point of the cos^2 curve, away from the
    clamped-log gradient blowup at p0 near 0 or 1. Ansatz angles start as
    normal(0, 0.1) rotations.
    """
    fm = FeatureMapSpec(n_qubits=n_qubits, repetitions=fm_repetitions, scale=fm_scale)
    an = AnsatzSpec(n_qubits=n_qubits, layers=ansatz_layers)
    shapes = head_shapes(in_dim, an, readout_qubit)
    limit = 0.1 * math.sqrt(6.0 / (in_dim + n_qubits))
    w = rng.uniform(-limit, limit, size=shapes["reduction.w"])
    b = np.full(shapes["reduction.b"], math.pi / (2.0 * fm.scale))
    theta = rng.normal(0.0, 0.1, size=shapes["ansatz.theta"])
    return HybridModel(ReductionLayer(w, b), theta, fm, an, readout_qubit=readout_qubit, **encoder)


def make_bypass_model(
    in_dim: int,
    n_qubits: int = 1,
    fm_repetitions: int = 2,
    fm_scale: float = 2.0,
    ansatz_layers: int = 1,
    seed: int = 0,
    readout_qubit: int = 0,
) -> HybridModel:
    """Bypass-encoder model for precomputed feature vectors."""
    circuit = (n_qubits, fm_repetitions, fm_scale, ansatz_layers, readout_qubit)
    return _init_model(np.random.default_rng(seed), in_dim, *circuit)


def make_encoder_model(
    encoder_config: EncoderConfig,
    image_shape: tuple[int, int, int],
    n_qubits: int = 1,
    fm_repetitions: int = 2,
    fm_scale: float = 2.0,
    ansatz_layers: int = 1,
    seed: int = 0,
    readout_qubit: int = 0,
) -> HybridModel:
    """Full stack: trainable encoder feeding the reduction layer and circuit."""
    rng = np.random.default_rng(seed)
    weights = init_encoder_weights(encoder_config, image_shape, rng)
    circuit = (n_qubits, fm_repetitions, fm_scale, ansatz_layers, readout_qubit)
    return _init_model(
        rng, encoder_config.out_dim, *circuit, encoder_config=encoder_config, encoder_weights=weights
    )
