"""Versioned textual checkpoint container for the full model state.

Layout (UTF-8, LF line endings):

    qembed-checkpoint v1
    meta <key> <value>          # model structure, one per line
    param <name> <d0> [<d1>]    # then one line of row-major float64 values
    <v0> <v1> ...

Floats are written with repr(), which round-trips float64 exactly, so a
save/load cycle is lossless and identical runs produce identical files.
"""
from __future__ import annotations

import numpy as np

from .config import ENCODER_FIELDS, IMAGE_KEYS, SCHEMA, encoder_config_from, model_from_config
from .encoder import EncoderConfig
from .model import HybridModel, named_parameters, set_parameters

MAGIC = "qembed-checkpoint v1"


def _meta(model: HybridModel) -> dict[str, object]:
    """The model's structure as the typed values of its `meta` lines."""
    meta = {
        "readout_qubit": model.readout_qubit,
        "fm.n_qubits": model.feature_map.n_qubits,
        "fm.reps": model.feature_map.repetitions,
        "fm.scale": float(model.feature_map.scale),
        "ansatz.layers": model.ansatz.layers,
        "reduction.in_dim": model.reduction.in_dim,
        "reduction.n_out": model.reduction.n_out,
        "encoder.present": not model.bypass,
    }
    if not model.bypass:
        for key, field in ENCODER_FIELDS.items():
            meta[key] = getattr(model.encoder_config, field)
    return meta


def _format_meta(value) -> str:
    # str() of a float is its shortest round-tripping repr()
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def save_checkpoint(path, model: HybridModel) -> None:
    lines = [MAGIC]
    for key, value in _meta(model).items():
        lines.append(f"meta {key} {_format_meta(value)}")
    for name, array in named_parameters(model).items():
        dims = " ".join(str(d) for d in array.shape)
        lines.append(f"param {name} {dims}")
        lines.append(" ".join(repr(float(v)) for v in array.reshape(-1)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse(path) -> tuple[dict[str, tuple[str, int]], dict[str, tuple[np.ndarray, int]]]:
    """`meta` texts and `param` arrays by name, each with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path}: not a {MAGIC!r} file")
    meta: dict[str, tuple[str, int]] = {}
    params: dict[str, tuple[np.ndarray, int]] = {}
    i = 1
    while i < len(lines):
        line, lineno = lines[i], i + 1
        i += 1
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        name, _, rest = rest.partition(" ")
        if kind == "meta" and name and rest:
            table, entry = meta, rest
        elif kind == "param" and name and all(d.isdecimal() for d in rest.split()):
            shape = tuple(int(d) for d in rest.split())
            if i >= len(lines):
                raise ValueError(f"{path}:{lineno}: missing values for parameter {name!r}")
            try:
                entry = np.array([float(v) for v in lines[i].split()]).reshape(shape)
            except ValueError:
                entry = None
            if entry is None or not np.all(np.isfinite(entry)):
                raise ValueError(
                    f"{path}:{i + 1}: parameter {name!r} needs {int(np.prod(shape))} "
                    "finite float values"
                )
            table = params
            i += 1
        else:
            raise ValueError(f"{path}:{lineno}: malformed line {line!r}")
        if name in table:
            raise ValueError(f"{path}:{lineno}: duplicate {kind} {name!r}")
        table[name] = (entry, lineno)
    return meta, params


def _image_shape(cfg: EncoderConfig, params) -> tuple[int, int, int]:
    """An image shape that gives the encoder the parameter shapes in `params`.

    v1 files record no image size, but parameter shapes depend only on the
    patch count and the channels, which the `encoder.positional` and
    `encoder.patch_projection` rows give: one row of that many patches
    builds the same shapes. Missing or mis-shaped entries fall through to
    the shape check against the built model.
    """

    def rows(name: str) -> int:
        shape = params[name][0].shape if name in params else ()
        return shape[0] if shape else 1

    patches = max(rows("encoder.positional") - cfg.use_class_token, 1)
    channels = max(rows("encoder.patch_projection") // cfg.patch_size**2, 1)
    return (cfg.patch_size, cfg.patch_size * patches, channels)


def load_checkpoint(path) -> HybridModel:
    """Rebuild the model the `meta` lines describe and fill in its params.

    Every meta line must agree with that model and every param must match
    one of its parameters in name and shape; anything else is rejected with
    the file's path and line.
    """
    meta, params = _parse(path)

    def get(key: str, kind: type):
        if key not in meta:
            raise ValueError(f"{path}: missing meta {key}")
        text, lineno = meta[key]
        try:
            value = text == "true" if kind is bool else kind(text)
        except ValueError:
            value = None
        if value is None or _format_meta(value) != text:
            raise ValueError(f"{path}:{lineno}: meta {key} {text!r} is not a canonical {kind.__name__}")
        return value

    # the three v1 meta lines whose names differ from their config keys
    config = {
        "model.n_qubits": get("fm.n_qubits", int),
        "model.readout_qubit": get("readout_qubit", int),
        "model.bypass_encoder": not get("encoder.present", bool),
    }
    keys = ["fm.reps", "fm.scale", "ansatz.layers"]
    keys += ["reduction.in_dim"] if config["model.bypass_encoder"] else list(ENCODER_FIELDS)
    config.update({key: get(key, SCHEMA[key][0]) for key in keys})
    try:
        if not config["model.bypass_encoder"]:
            config.update(zip(IMAGE_KEYS, _image_shape(encoder_config_from(config), params)))
        model = model_from_config(config, seed=0)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{path}: {exc}") from None

    expected_meta = {key: _format_meta(value) for key, value in _meta(model).items()}
    for key, (text, lineno) in meta.items():
        if key not in expected_meta:
            raise ValueError(f"{path}:{lineno}: unknown meta key {key!r}")
        if text != expected_meta[key]:
            raise ValueError(
                f"{path}:{lineno}: meta {key} is {text}, but the model it describes "
                f"has {expected_meta[key]}"
            )
    expected = named_parameters(model)
    for name, (array, lineno) in params.items():
        if name not in expected:
            raise ValueError(f"{path}:{lineno}: unknown parameter {name!r}")
        if array.shape != expected[name].shape:
            raise ValueError(
                f"{path}:{lineno}: parameter {name!r} has shape {array.shape}, "
                f"the model needs {expected[name].shape}"
            )
    missing = [f"meta {key}" for key in expected_meta if key not in meta]
    missing += [f"param {name}" for name in expected if name not in params]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    set_parameters(model, {name: array for name, (array, _) in params.items()})
    return model
