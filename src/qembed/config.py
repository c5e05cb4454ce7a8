"""Flat `key = value` run configuration with a fixed, namespaced schema.

Blank lines and `#` comments are ignored; an unknown key, an unparsable
value or a repeated key in a file is an error naming its `path:line`.
Booleans are written `true`/`false`. CLI overrides arrive as `key=value`
strings. `load_config` also checks the values' ranges, through the
objects they build, before any data file is read.
"""
from __future__ import annotations

from .circuits import AnsatzSpec, FeatureMapSpec
from .encoder import EncoderConfig, check_image_shape, parameter_shapes as encoder_parameter_shapes
from .model import HybridModel, check_head, make_bypass_model, make_encoder_model
from .training import TrainingConfig

# config key -> EncoderConfig field; checkpoint `meta` lines use the same keys
ENCODER_FIELDS = {
    "encoder.patch": "patch_size",
    "encoder.dim": "embed_dim",
    "encoder.depth": "layers",
    "encoder.heads": "heads",
    "encoder.ffn_hidden": "ffn_hidden",
    "encoder.out_dim": "out_dim",
    "encoder.class_token": "use_class_token",
}

IMAGE_KEYS = ("encoder.image_h", "encoder.image_w", "encoder.channels")

# config key -> field of the circuit specs that `specs_from` builds
SPEC_FIELDS = {
    "model.n_qubits": "n_qubits",
    "fm.reps": "repetitions",
    "fm.scale": "scale",
    "ansatz.layers": "layers",
}

# config key -> argument of `model.check_head`, the model builder's range check
HEAD_FIELDS = {"model.readout_qubit": "readout_qubit", "reduction.in_dim": "in_dim"}

# config key -> TrainingConfig field, whose default is the key's default
TRAINING_FIELDS = {
    "train.lr": "learning_rate",
    "train.epochs": "max_epochs",
    "train.batch": "batch_size",
    "train.optimizer": "optimizer",
    "train.momentum": "momentum",
    "train.beta1": "adam_beta1",
    "train.beta2": "adam_beta2",
    "train.adam_eps": "adam_eps",
    "train.seed": "seed",
    "train.patience": "patience",
    "train.min_delta": "min_delta",
    "train.val_fraction": "validation_fraction",
    "train.freeze_encoder": "freeze_encoder",
}

_TRAINING_DEFAULTS = vars(TrainingConfig())

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
    **{
        key: (type(_TRAINING_DEFAULTS[field]), _TRAINING_DEFAULTS[field])
        for key, field in TRAINING_FIELDS.items()
    },
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
    """Defaults overlaid with the file's assignments; a key may be set once."""
    return _read_config_file(path)[0]


def _read_config_file(path) -> tuple[dict, dict[str, int]]:
    """`parse_config_file`'s config, and the line that set each key the
    file sets."""
    config = default_config()
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                config[key] = _parse_value(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate key {key!r} (first set on line {first_line[key]})"
                )
            first_line[key] = lineno
    return config, first_line


def apply_overrides(config: dict, assignments) -> dict:
    """Apply `key=value` strings (from --set flags) on top of a config dict."""
    for assignment in assignments:
        if "=" not in assignment:
            raise ValueError(f"override {assignment!r} must look like key=value")
        key, value = assignment.split("=", 1)
        config[key.strip()] = _parse_value(key.strip(), value)
    return config


def load_config(path, assignments) -> dict:
    """The config file at `path` (None: the defaults) with the `key=value`
    `assignments` on top, checked: the training config, the circuit specs
    and, for an encoder model, the encoder config are built from it, and
    the range checks of the model builder (`model.check_head`) and of an
    encoder model's image shape (`encoder.check_image_shape`) run, so a value
    they reject fails here, before any data file is read. The error names
    the value's key, after the `path:line` that set it when the file did."""
    config, lines = _read_config_file(path) if path else (default_config(), {})
    apply_overrides(config, assignments)
    for assignment in assignments:
        lines.pop(assignment.split("=", 1)[0].strip(), None)
    checks = [(training_config_from, TRAINING_FIELDS), *model_checks(config)]
    if not config["model.bypass_encoder"]:
        # encoder.check_image_shape names each value as its key does, less the prefix
        checks.append((_check_image, {key: key.removeprefix("encoder.") for key in IMAGE_KEYS}))
    run_checks(checks, config, path, lines)
    return config


def model_checks(config: dict) -> list:
    """The (check, fields) pairs of the model `config` describes, for
    `run_checks`: its circuit specs, an encoder model's encoder config, and
    the model builder's head ranges (`model.check_head`)."""
    checks = [(specs_from, SPEC_FIELDS)]
    if not config["model.bypass_encoder"]:
        checks.append((encoder_config_from, ENCODER_FIELDS))
    return checks + [(_check_head, HEAD_FIELDS)]


def run_checks(checks, config: dict, path, lines: dict[str, int]) -> None:
    """Run each `check(config)` of the (check, fields) pairs, in order. Its
    error names the field it rejects first, and is raised again naming
    that field's key in `fields`, after the `path:line` that set the key
    when `lines` holds it."""
    for check, fields in checks:
        try:
            check(config)
        except ValueError as exc:
            field = str(exc).split(" ", 1)[0]
            key = next((k for k, f in fields.items() if f == field), None)
            if key is None:
                raise
            where = f"{path}:{lines[key]}: " if key in lines else ""
            raise ValueError(f"{where}{exc} (config key {key})") from None


def _check_head(config: dict) -> None:
    # an encoder model's reduction takes encoder.out_dim values, not in_dim
    in_dim = config["reduction.in_dim" if config["model.bypass_encoder"] else "encoder.out_dim"]
    check_head(config["model.n_qubits"], config["model.readout_qubit"], in_dim)


def _check_image(config: dict) -> None:
    check_image_shape(image_shape_from(config), config["encoder.patch"])


def training_config_from(config: dict) -> TrainingConfig:
    return TrainingConfig(**{field: config[key] for key, field in TRAINING_FIELDS.items()})


def encoder_config_from(config: dict) -> EncoderConfig:
    return EncoderConfig(**{field: config[key] for key, field in ENCODER_FIELDS.items()})


def image_shape_from(config: dict) -> tuple[int, int, int]:
    return tuple(config[key] for key in IMAGE_KEYS)


def specs_from(config: dict) -> tuple[FeatureMapSpec, AnsatzSpec]:
    n = config["model.n_qubits"]
    return (
        FeatureMapSpec(n_qubits=n, repetitions=config["fm.reps"], scale=config["fm.scale"]),
        AnsatzSpec(n_qubits=n, layers=config["ansatz.layers"]),
    )


def parameter_shapes(config: dict) -> dict[str, tuple[int, ...]]:
    """The shape of every array `model.named_parameters` names, in its
    order, for the model `config` describes; nothing is allocated."""
    n, theta = config["model.n_qubits"], (specs_from(config)[1].parameter_count(),)
    in_dim = config["reduction.in_dim" if config["model.bypass_encoder"] else "encoder.out_dim"]
    shapes = {"reduction.w": (in_dim, n), "reduction.b": (n,), "ansatz.theta": theta}
    if not config["model.bypass_encoder"]:
        encoder = encoder_parameter_shapes(encoder_config_from(config), image_shape_from(config))
        shapes.update((f"encoder.{name}", shape) for name, shape in encoder.items())
    return shapes


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
