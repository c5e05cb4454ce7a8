"""Flat `key = value` run configuration with a fixed, namespaced schema.

Blank lines and `#` comments are ignored; unknown keys are errors. Booleans
are written `true`/`false`. CLI overrides arrive as `key=value` strings.
"""
from __future__ import annotations

from .circuits import AnsatzSpec, FeatureMapSpec
from .encoder import EncoderConfig
from .model import HybridModel, make_bypass_model, make_encoder_model
from .training import TrainingConfig

# key -> (type, default)
SCHEMA: dict[str, tuple[type, object]] = {
    "model.bypass_encoder": (bool, True),
    "model.n_qubits": (int, 1),
    "model.readout_qubit": (int, 0),
    "fm.reps": (int, 2),
    "fm.scale": (float, 2.0),
    "ansatz.layers": (int, 1),
    "reduction.in_dim": (int, 16),
    "encoder.patch": (int, 2),
    "encoder.dim": (int, 8),
    "encoder.depth": (int, 2),
    "encoder.heads": (int, 2),
    "encoder.ffn_hidden": (int, 16),
    "encoder.out_dim": (int, 16),
    "encoder.class_token": (bool, True),
    "encoder.image_h": (int, 4),
    "encoder.image_w": (int, 4),
    "encoder.channels": (int, 1),
    "train.lr": (float, 0.1),
    "train.epochs": (int, 100),
    "train.batch": (int, 16),
    "train.optimizer": (str, "sgd-momentum"),
    "train.momentum": (float, 0.9),
    "train.beta1": (float, 0.9),
    "train.beta2": (float, 0.999),
    "train.adam_eps": (float, 1e-8),
    "train.seed": (int, 0),
    "train.patience": (int, 20),
    "train.min_delta": (float, 1e-4),
    "train.val_fraction": (float, 0.2),
    "train.freeze_encoder": (bool, False),
}


def default_config() -> dict:
    return {key: default for key, (_, default) in SCHEMA.items()}


def _parse_value(key: str, text: str):
    if key not in SCHEMA:
        raise ValueError(f"unknown config key {key!r}")
    kind, _ = SCHEMA[key]
    text = text.strip()
    if kind is bool:
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(f"{key}: expected true or false, got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key}: cannot parse {text!r} as {kind.__name__}") from None


def parse_config_file(path) -> dict:
    """Defaults overlaid with the file's assignments."""
    config = default_config()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            config[key.strip()] = _parse_value(key.strip(), value)
    return config


def apply_overrides(config: dict, assignments) -> dict:
    """Apply `key=value` strings (from --set flags) on top of a config dict."""
    for assignment in assignments:
        if "=" not in assignment:
            raise ValueError(f"override {assignment!r} must look like key=value")
        key, value = assignment.split("=", 1)
        config[key.strip()] = _parse_value(key.strip(), value)
    return config


def training_config_from(config: dict) -> TrainingConfig:
    return TrainingConfig(
        learning_rate=config["train.lr"],
        max_epochs=config["train.epochs"],
        batch_size=config["train.batch"],
        optimizer=config["train.optimizer"],
        momentum=config["train.momentum"],
        adam_beta1=config["train.beta1"],
        adam_beta2=config["train.beta2"],
        adam_eps=config["train.adam_eps"],
        seed=config["train.seed"],
        patience=config["train.patience"],
        min_delta=config["train.min_delta"],
        validation_fraction=config["train.val_fraction"],
        freeze_encoder=config["train.freeze_encoder"],
    )


def encoder_config_from(config: dict) -> EncoderConfig:
    return EncoderConfig(
        patch_size=config["encoder.patch"],
        embed_dim=config["encoder.dim"],
        layers=config["encoder.depth"],
        heads=config["encoder.heads"],
        ffn_hidden=config["encoder.ffn_hidden"],
        out_dim=config["encoder.out_dim"],
        use_class_token=config["encoder.class_token"],
    )


def image_shape_from(config: dict) -> tuple[int, int, int]:
    return (
        config["encoder.image_h"],
        config["encoder.image_w"],
        config["encoder.channels"],
    )


def specs_from(config: dict) -> tuple[FeatureMapSpec, AnsatzSpec]:
    n = config["model.n_qubits"]
    return (
        FeatureMapSpec(n_qubits=n, repetitions=config["fm.reps"], scale=config["fm.scale"]),
        AnsatzSpec(n_qubits=n, layers=config["ansatz.layers"]),
    )


def model_from_config(config: dict, seed: int, in_dim: int | None = None) -> HybridModel:
    """Build a fresh model; `in_dim` (e.g. the dataset's feature dimension)
    overrides reduction.in_dim for bypass models."""
    shared = dict(
        n_qubits=config["model.n_qubits"],
        fm_repetitions=config["fm.reps"],
        fm_scale=config["fm.scale"],
        ansatz_layers=config["ansatz.layers"],
        seed=seed,
        readout_qubit=config["model.readout_qubit"],
    )
    if config["model.bypass_encoder"]:
        dim = in_dim if in_dim is not None else config["reduction.in_dim"]
        return make_bypass_model(in_dim=dim, **shared)
    return make_encoder_model(encoder_config_from(config), image_shape_from(config), **shared)
