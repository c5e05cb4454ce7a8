"""Checkpoint container: lossless round trips, deterministic bytes."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qembed.checkpoint import load_checkpoint, save_checkpoint
from qembed.config import default_config, model_from_config, parameter_shapes, training_config_from
from qembed.encoder import EncoderConfig
from qembed.model import (
    make_bypass_model,
    make_encoder_model,
    model_forward,
    named_parameters,
)
from qembed.training import TrainingConfig

from per_image import image_forward


def assert_models_identical(a, b):
    pa, pb = named_parameters(a), named_parameters(b)
    assert list(pa) == list(pb)
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name


def test_bypass_round_trip(tmp_path):
    model = make_bypass_model(in_dim=5, n_qubits=2, ansatz_layers=2, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.bypass
    assert loaded.feature_map == model.feature_map
    assert loaded.ansatz == model.ansatz
    assert_models_identical(model, loaded)
    rng = np.random.default_rng(1)
    x = rng.normal(size=5)
    assert model_forward(model, x).p0 == model_forward(loaded, x).p0


def test_encoder_round_trip(tmp_path):
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=2, heads=2, ffn_hidden=6, out_dim=4)
    model = make_encoder_model(cfg, (4, 4, 1), seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert not loaded.bypass
    assert loaded.encoder_config == cfg
    assert_models_identical(model, loaded)
    rng = np.random.default_rng(3)
    image = rng.normal(size=(4, 4, 1))
    assert image_forward(model, image)[1].p0 == image_forward(loaded, image)[1].p0


def test_no_class_token_round_trip(tmp_path):
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=1, ffn_hidden=4,
                        out_dim=4, use_class_token=False)
    model = make_encoder_model(cfg, (4, 4, 1), seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.encoder_weights.class_token is None
    assert_models_identical(model, loaded)


def test_save_is_deterministic(tmp_path):
    model = make_bypass_model(in_dim=3, seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("something else entirely\n")
    with pytest.raises(ValueError, match="not a"):
        load_checkpoint(path)


def test_non_square_encoder_round_trip(tmp_path):
    # the file records no image size: the loader rebuilds the encoder from
    # the patch count and channels, which a 4x6x2 image fixes at 6 and 2
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=3,
                        out_dim=2, use_class_token=False)
    model = make_encoder_model(cfg, (4, 6, 2), n_qubits=2, seed=6, readout_qubit=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.readout_qubit == 1
    assert_models_identical(model, loaded)
    image = np.random.default_rng(7).normal(size=(4, 6, 2))
    assert image_forward(model, image)[1].p0 == image_forward(loaded, image)[1].p0
    resaved = tmp_path / "again.ckpt"
    save_checkpoint(resaved, loaded)
    assert resaved.read_bytes() == path.read_bytes()


V1_BYPASS = """qembed-checkpoint v1
meta readout_qubit 0
meta fm.n_qubits 1
meta fm.reps 2
meta fm.scale 2.0
meta ansatz.layers 1
meta reduction.in_dim 2
meta reduction.n_out 1
meta encoder.present false
param reduction.w 2 1
-0.1171961134812148 -0.07444123020918002
param reduction.b 1
0.7853981633974483
param ansatz.theta 2
0.04180988467257789 -0.056776960612792984
"""


def test_v1_file_loads_and_resaves_byte_identical(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_text(V1_BYPASS)
    model = load_checkpoint(path)
    assert_models_identical(model, make_bypass_model(in_dim=2, seed=3))
    resaved = tmp_path / "again.ckpt"
    save_checkpoint(resaved, model)
    assert resaved.read_text() == V1_BYPASS


# characters str.splitlines breaks at that float() and int() strip as spaces
NON_LF_BREAKS = ["\x0b", "\x0c", "\x85", "\u2028"]


def with_line_end(text: str, lineno: int, extra: str) -> str:
    """`text` with `extra` at the end of its (1-based, LF-counted) line `lineno`."""
    lines = text.split("\n")
    lines[lineno - 1] += extra
    return "\n".join(lines)


@pytest.mark.parametrize("char", NON_LF_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_lines_are_counted_at_lf(tmp_path, char):
    """A line ends at LF only: a meta value followed by U+0085 (or another
    character str.splitlines breaks at) is not canonical at its own line,
    and such a character at the end of a values line, which float() takes,
    leaves a later line's number as it is."""
    path = tmp_path / "v1.ckpt"
    path.write_text(with_line_end(V1_BYPASS, 2, char), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (
        f"{path}:2: meta readout_qubit {'0' + char!r} is not a canonical int"
    )
    bad = with_line_end(V1_BYPASS, 13, char).replace("param ansatz.theta ", "param ansatz.thetaX ")
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}:14: unknown parameter 'ansatz.thetaX'"


@st.composite
def structures(draw):
    """A config dict for a random valid model, bypass or encoder."""
    n_qubits = draw(st.integers(1, 4))
    config = default_config()
    config.update({
        "model.bypass_encoder": draw(st.booleans()),
        "model.n_qubits": n_qubits,
        "model.readout_qubit": draw(st.integers(0, n_qubits - 1)),
        "fm.reps": draw(st.integers(1, 3)),
        "fm.scale": draw(st.floats(0.1, 4.0)),
        "ansatz.layers": draw(st.integers(0, 3)),
        "reduction.in_dim": draw(st.integers(1, 6)),
    })
    if not config["model.bypass_encoder"]:
        patch, heads = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        config.update({
            "encoder.patch": patch,
            "encoder.heads": heads,
            "encoder.dim": heads * draw(st.integers(1, 3)),
            "encoder.depth": draw(st.integers(0, 2)),
            "encoder.ffn_hidden": draw(st.integers(1, 5)),
            "encoder.out_dim": draw(st.integers(1, 5)),
            "encoder.class_token": draw(st.booleans()),
            "encoder.image_h": patch * draw(st.integers(1, 3)),
            "encoder.image_w": patch * draw(st.integers(1, 3)),
            "encoder.channels": draw(st.integers(1, 2)),
        })
    return config


def param_bytes(model):
    return [(name, a.shape, a.tobytes()) for name, a in named_parameters(model).items()]


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=structures(), seed=st.integers(0, 2**32 - 1))
def test_config_built_model_round_trips(tmp_path, config, seed):
    model = model_from_config(config, seed=seed)
    if not config["model.bypass_encoder"]:
        assert model.encoder_config == EncoderConfig(
            patch_size=config["encoder.patch"],
            embed_dim=config["encoder.dim"],
            layers=config["encoder.depth"],
            heads=config["encoder.heads"],
            ffn_hidden=config["encoder.ffn_hidden"],
            out_dim=config["encoder.out_dim"],
            use_class_token=config["encoder.class_token"],
        )
    # the one table of parameter shapes is the builders': names, order and shapes
    assert list(parameter_shapes(config).items()) == [
        (name, a.shape) for name, a in named_parameters(model).items()
    ]
    path, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.bypass == config["model.bypass_encoder"]
    assert loaded.encoder_config == model.encoder_config
    assert loaded.readout_qubit == config["model.readout_qubit"]
    assert param_bytes(loaded) == param_bytes(model)
    save_checkpoint(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_training_config_defaults_are_the_schema_defaults():
    assert training_config_from(default_config()) == TrainingConfig()


# ---------------------------------------------------------------------------
# Malformed files: each edit returns the 0-based index of the offending line
# (None when no single line is at fault); the loader must name that line.
# ---------------------------------------------------------------------------

def _index(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _reshape_b1(lines):
    i = _index(lines, "param encoder.layer.0.ffn.b1 ")
    lines[i] = "param encoder.layer.0.ffn.b1 5"
    lines[i + 1] = " ".join(["0.0"] * 5)
    return i


def _drop_reps(lines):
    del lines[_index(lines, "meta fm.reps ")]
    return None


def _nan_theta(lines):
    i = _index(lines, "param ansatz.theta ") + 1
    lines[i] = "nan" + lines[i][lines[i].index(" "):]
    return i


def _unknown_param(lines):
    lines += ["param bogus 1", "0.5"]
    return len(lines) - 2


def _layer_without_field(lines):
    lines += ["param encoder.layer.0 4", "0.0 0.0 0.0 0.0"]
    return len(lines) - 2


def _drop_last_values(lines):
    del lines[-1]  # the file now ends at a param line
    return len(lines) - 1


def _duplicate_param(lines):
    i = _index(lines, "param reduction.b ")
    lines += lines[i:i + 2]
    return len(lines) - 2


def _set_meta(key, value):
    def edit(lines):
        i = _index(lines, f"meta {key} ")
        lines[i] = f"meta {key} {value}".rstrip(" ")
        return i
    return edit


def _malformed_float(lines):
    i = _index(lines, "param reduction.w ") + 1
    lines[i] = lines[i].replace(" ", " 1.2.3 ", 1)
    return i


def _insert_meta(line):
    def edit(lines):
        lines.insert(1, line)
        return 1
    return edit


def _duplicate_meta(lines):
    i = _index(lines, "meta fm.reps ") + 1
    lines.insert(i, lines[i - 1])
    return i


def _bad_dims(text):
    def edit(lines):
        i = _index(lines, "param reduction.b ")
        lines[i] = f"param reduction.b {text}"
        return i
    return edit


BAD_FILES = [
    ("misshaped-ffn-b1", "encoder", _reshape_b1),
    ("missing-meta", "bypass", _drop_reps),
    ("nan-param", "bypass", _nan_theta),
    ("unknown-param", "bypass", _unknown_param),
    # a layer name with no field, which is in no shape table
    ("layer-without-field", "encoder", _layer_without_field),
    ("param-without-values", "bypass", _drop_last_values),
    ("duplicate-param", "bypass", _duplicate_param),
    ("non-bool-meta", "bypass", _set_meta("encoder.present", "maybe")),
    ("meta-without-value", "bypass", _set_meta("fm.reps", "")),
    ("malformed-float", "bypass", _malformed_float),
    ("unknown-meta-key", "bypass", _insert_meta("meta fm.bogus 1")),
    ("duplicate-meta-key", "bypass", _duplicate_meta),
    ("contradicting-meta", "encoder", _set_meta("reduction.in_dim", "5")),
    # a value the circuit specs' own check rejects
    ("meta-out-of-range", "bypass", _set_meta("fm.reps", "0")),
    ("non-integer-dims", "bypass", _bad_dims("one")),
    # str.isdigit() holds for "²", which int() does not take
    ("superscript-dims", "bypass", _bad_dims("\u00b2")),
]


def write_bad_file(tmp_path, kind, edit):
    if kind == "encoder":
        cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=6, out_dim=4)
        model = make_encoder_model(cfg, (4, 4, 1), seed=8)
    else:
        model = make_bypass_model(in_dim=3, seed=8)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, model)
    lines = path.read_text().splitlines()
    index = edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path, index


@pytest.mark.parametrize("kind,edit", [case[1:] for case in BAD_FILES],
                         ids=[case[0] for case in BAD_FILES])
def test_rejects_malformed_file_at_its_line(tmp_path, kind, edit):
    path, index = write_bad_file(tmp_path, kind, edit)
    where = f"{path}: " if index is None else f"{path}:{index + 1}: "
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(where), str(info.value)


# every param that encoder.ffn_hidden sizes in the default 2-layer encoder
FFN_HIDDEN_PARAMS = [f"encoder.layer.{i}.ffn.{p}" for i in (0, 1) for p in ("w1", "b1", "w2")]


@pytest.mark.parametrize("kind,key,value,dropped,widened,at,error", [
    ("bypass", "reduction.in_dim", 300000, (), None, "reduction.w",
     "has shape (3, 2), the model needs (300000, 2)"),
    ("bypass", "ansatz.layers", 300000, (), None, "ansatz.theta",
     "has shape (4,), the model needs (600002,)"),
    ("encoder", "encoder.dim", 400, (), None, "encoder.patch_projection",
     "has shape (4, 8), the model needs (4, 400)"),
    ("encoder", "encoder.ffn_hidden", 100000, (), None, "encoder.layer.0.ffn.w1",
     "has shape (8, 16), the model needs (8, 100000)"),
    ("encoder", "encoder.patch", 300, (), None, "encoder.patch_projection",
     "has shape (4, 8), the model needs (90000, 8)"),
    ("encoder", "encoder.depth", 2000, (), None, "meta", "more than the file's params hold (2)"),
    ("encoder", "encoder.ffn_hidden", 100000, ("encoder.layer.0.ffn.w1",), None,
     "encoder.layer.0.ffn.b1", "has shape (16,), the model needs (100000,)"),
    # one param widened to the meta size: the first param of another shape is named
    ("encoder", "encoder.dim", 400, (), "encoder.class_token", "encoder.patch_projection",
     "has shape (4, 8), the model needs (4, 400)"),
    # no param that the size shapes is left
    ("bypass", "ansatz.layers", 300000, ("ansatz.theta",), None, None,
     "missing param ansatz.theta"),
    ("bypass", "reduction.in_dim", 300000, ("reduction.w",), None, None,
     "missing param reduction.w"),
    ("encoder", "encoder.patch", 300, ("encoder.patch_projection",), None, None,
     "missing param encoder.patch_projection"),
    ("encoder", "encoder.ffn_hidden", 100000, FFN_HIDDEN_PARAMS, None, None,
     "missing " + ", ".join(f"param {name}" for name in FFN_HIDDEN_PARAMS)),
], ids=["in-dim", "ansatz-layers", "encoder-dim", "ffn-hidden", "patch", "depth",
        "ffn-hidden-without-w1", "encoder-dim-one-carrier-widened", "ansatz-layers-without-theta",
        "in-dim-without-w", "patch-without-projection", "ffn-hidden-without-ffn"])
def test_rejects_meta_size_beyond_its_params_before_allocating(
    tmp_path, kind, key, value, dropped, widened, at, error
):
    """One edited meta size, far beyond what the file's params hold, is
    rejected, and loading peaks under 1 MiB (about 0.1 MiB for the unedited
    file) instead of allocating the model at that size. Every param is
    compared with the shape the meta lines give (`config.parameter_shapes`)
    before the build, so the first param of another shape is named at its
    line (`at`), also when some params (each its param line and values
    line) are `dropped` or one is `widened` to the size; when none that the
    size shapes is left, the error lists the missing params. A meta
    encoder.depth above the file's layer count is named at its meta line."""
    if kind == "bypass":
        model = make_bypass_model(in_dim=3, n_qubits=2, seed=9)
    else:
        config = default_config()
        config["model.bypass_encoder"] = False
        model = model_from_config(config, seed=9)
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, model)
    lines = path.read_text().splitlines()
    _set_meta(key, value)(lines)
    for name in dropped:
        i = _index(lines, f"param {name} ")
        del lines[i : i + 2]
    if widened is not None:
        i = _index(lines, f"param {widened} ")
        lines[i : i + 2] = [f"param {widened} {value}", " ".join(["0.0"] * value)]
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if at == "meta":
        error = f"{_index(lines, f'meta {key} ') + 1}: meta {key} is {value}, {error}"
    elif at is not None:
        error = f"{_index(lines, f'param {at} ') + 1}: parameter {at!r} {error}"
    assert str(info.value) == (f"{path}:{error}" if at else f"{path}: {error}")
    assert peak < 2**20, peak
