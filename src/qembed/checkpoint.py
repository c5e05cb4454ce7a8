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

from .config import ENCODER_FIELDS, IMAGE_KEYS, SCHEMA, encoder_config_from, model_checks
from .config import model_from_config, parameter_shapes, run_checks
from .encoder import EncoderConfig
from .model import HybridModel, named_parameters, set_parameters

MAGIC = "qembed-checkpoint v1"

# config key -> meta key where they differ (encoder.present is not model.bypass_encoder)
_V1_NAMES = {"model.n_qubits": "fm.n_qubits", "model.readout_qubit": "readout_qubit"}


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
    """`meta` texts and `param` arrays by name, each with its line number.
    Lines end at LF, CRLF or CR only, as in `data.load_embeddings`, and a
    param's dims and values are split at single ASCII spaces, as
    `save_checkpoint` joins them. A values line is ASCII, with no underscore
    and no whitespace but those spaces: float() alone would take `1_0` or a
    non-ASCII digit and strip a tab or U+00A0 around a value."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().removesuffix("\n").split("\n")
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
        elif kind == "param" and name and all(d.isascii() and d.isdecimal() for d in rest.split(" ")):
            shape = tuple(int(d) for d in rest.split(" "))
            if i >= len(lines):
                raise ValueError(f"{path}:{lineno}: missing values for parameter {name!r}")
            values, entry = lines[i].split(" "), None
            if lines[i].isascii() and "_" not in lines[i] and lines[i].split() == values:
                try:
                    entry = np.array([float(v) for v in values]).reshape(shape)
                except ValueError:
                    pass
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


def _dim(params, name: str) -> int | None:
    """Length of param `name`'s first axis; None if it is missing or has none."""
    shape = params[name][0].shape if name in params else ()
    return shape[0] if shape else None


def _image_shape(cfg: EncoderConfig, params) -> tuple[int, int, int]:
    """An image shape that gives the encoder the parameter shapes in `params`.

    v1 files record no image size, but parameter shapes depend only on the
    patch count and the channels, which the `encoder.positional` and
    `encoder.patch_projection` rows give: one row of that many patches
    builds the same shapes. Missing or mis-shaped entries fall through to
    the shape check against `config.parameter_shapes`.
    """
    patches = max((_dim(params, "encoder.positional") or 1) - cfg.use_class_token, 1)
    channels = max((_dim(params, "encoder.patch_projection") or 1) // cfg.patch_size**2, 1)
    return (cfg.patch_size, cfg.patch_size * patches, channels)


def load_checkpoint(path) -> HybridModel:
    """Rebuild the model the `meta` lines describe and fill in its params.

    Every meta line must agree with that model and every param must match
    one of its parameters in name and shape; anything else is rejected with
    the file's path and line. A meta value the builders reject, a meta
    `encoder.depth` above the file's layer count, and a param that is not
    in `config.parameter_shapes` at its shape, are rejected before the model
    is built, so the build allocates only what the file's values hold.
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

    config = {"model.bypass_encoder": not get("encoder.present", bool)}
    keys = ["model.n_qubits", "model.readout_qubit", "fm.reps", "fm.scale", "ansatz.layers"]
    keys += ["reduction.in_dim"] if config["model.bypass_encoder"] else list(ENCODER_FIELDS)
    names = {key: _V1_NAMES.get(key, key) for key in keys}
    config.update({key: get(name, SCHEMA[key][0]) for key, name in names.items()})
    run_checks(model_checks(config), config, path, {k: meta[n][1] for k, n in names.items()})
    if not config["model.bypass_encoder"]:
        # the one meta size that sets how many params there are
        layers = len({n.split(".")[2] for n in params if n.startswith("encoder.layer.")})
        if config["encoder.depth"] > layers:
            text, lineno = meta["encoder.depth"]
            raise ValueError(f"{path}:{lineno}: meta encoder.depth is {text}, more than the "
                             f"file's params hold ({layers})")
        config.update(zip(IMAGE_KEYS, _image_shape(encoder_config_from(config), params)))
    shapes = parameter_shapes(config)
    for name, (array, lineno) in params.items():
        if name not in shapes:
            raise ValueError(f"{path}:{lineno}: unknown parameter {name!r}")
        if array.shape != shapes[name]:
            raise ValueError(f"{path}:{lineno}: parameter {name!r} has shape {array.shape}, "
                             f"the model needs {shapes[name]}")
    missing = [f"param {name}" for name in shapes if name not in params]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    try:
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
    missing = [f"meta {key}" for key in expected_meta if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    set_parameters(model, {name: array for name, (array, _) in params.items()})
    return model
