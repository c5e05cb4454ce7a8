"""Fuzzed parser inputs: any CSV, checkpoint or config text either loads or
raises ValueError, and an error about a file starts with its path; a CSV
loads as the per-line float() reader reads it, or is rejected; a
checkpoint that loads scores an input or raises ValueError, and a CSV that
loads trains one mini-batch or raises a ValueError that names a row."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qembed.checkpoint import load_checkpoint, save_checkpoint
from qembed.config import SCHEMA, apply_overrides, default_config, parse_config_file
from qembed.data import generate_synthetic, load_embeddings, write_embeddings
from qembed.encoder import EncoderConfig
from qembed.model import as_rows, make_bypass_model, make_encoder_model, readout_p0
from qembed.training import row_gradients

from float_csv import reference_load

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# any text that encodes as UTF-8 (no lone surrogates)
ANY = st.characters(blacklist_categories=("Cs",))
# the characters the formats are made of, so that more texts get past the
# first checks and reach the later ones; U+0661 is a digit to float() only
NUMERIC = st.sampled_from(list("0123456789\u0661.-+eE_ ,\n\r\t#=") + ["nan", "inf", "true"])


def texts(max_size):
    return st.one_of(
        st.text(ANY, max_size=max_size),
        st.lists(NUMERIC, max_size=max_size).map("".join),
    )


def loads_or_names_path(load, path, text):
    path.write_bytes(text.encode("utf-8"))
    try:
        return load(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path)), exc


# a whole record of the header below: an id, a label and two fields, each
# field a float's repr or a format token, so that many bodies load
FIELD = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), NUMERIC)
RECORDS = st.lists(st.tuples(st.sampled_from("01"), FIELD, FIELD), max_size=4).map(
    lambda records: "".join(f"r{i},{','.join(r)}\n" for i, r in enumerate(records))
)


@FUZZ
@given(body=st.one_of(texts(120), RECORDS))
def test_load_embeddings_takes_any_text_after_a_valid_header(tmp_path, body):
    records = loads_or_names_path(load_embeddings, tmp_path / "d.csv", "id,label,f0,f1\n" + body)
    for rec in records or []:
        assert rec.features.shape == (2,) and rec.label in (0, 1)
        assert np.isfinite(rec.features).all()


@FUZZ
@given(body=st.one_of(texts(120), RECORDS))
def test_load_embeddings_agrees_with_the_float_reference(tmp_path, body):
    """A text the loader takes has the per-line float() reader's ids, labels
    and value bits; a text that reader rejects, the loader rejects too."""
    path = tmp_path / "d.csv"
    path.write_bytes(("id,label,f0,f1\n" + body).encode("utf-8"))
    try:
        expected = reference_load(path)
    except ValueError:
        expected = None
    try:
        records = load_embeddings(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path)), exc
        return
    assert expected is not None
    ids, labels, values = expected
    assert [(r.id, r.label) for r in records] == list(zip(ids, labels))
    assert np.stack([r.features for r in records]).tobytes() == values.tobytes()


@pytest.fixture(scope="module")
def csv_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    write_embeddings(path, generate_synthetic(8, 2, 6.0, 0))
    return path.read_text(encoding="utf-8")


def saved_text(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, model)
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    return saved_text(
        tmp_path_factory, make_bypass_model(in_dim=3, n_qubits=2, ansatz_layers=1, seed=0)
    )


@pytest.fixture(scope="module")
def encoder_checkpoint_text(tmp_path_factory):
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=1, heads=2, ffn_hidden=6, out_dim=4)
    return saved_text(tmp_path_factory, make_encoder_model(cfg, (4, 4, 1), seed=0))


# Splices insert at most 3 characters. Every size a param holds is checked
# against the file's params before the model is built, so no splice builds
# beyond the file; the limit keeps a spliced count that no param holds (such
# as fm.reps) small enough to score quickly.
SPLICES = given(start=st.integers(0, 10**6), cut=st.integers(0, 8), insert=texts(3))


def splice(load, path, text, start, cut, insert):
    """`load` the file `text` with `cut` characters at `start` (modulo its
    length) replaced by `insert`; None if it raised a ValueError."""
    start %= len(text) + 1
    return loads_or_names_path(load, path, text[:start] + insert + text[start + cut :])


def load_splice(path, text, start, cut, insert):
    """Load the spliced file; a model that loads scores one input of its own
    shape, which either works or raises a ValueError."""
    model = splice(load_checkpoint, path, text, start, cut, insert)
    if model is None:
        return
    if model.bypass:
        x = np.ones(model.reduction.in_dim)
    else:
        n, w = model.encoder_config.patch_size, model.encoder_weights
        patches = len(w.positional) - model.encoder_config.use_class_token
        x = np.ones((n, n * patches, len(w.patch_projection) // n**2))
    try:
        p0 = readout_p0(model, [x])
    except ValueError:
        return
    assert p0.shape == (1,) and 0.0 <= p0[0] <= 1.0


@FUZZ
@SPLICES
def test_load_checkpoint_takes_any_splice_into_a_valid_file(
    tmp_path, checkpoint_text, start, cut, insert
):
    load_splice(tmp_path / "m.ckpt", checkpoint_text, start, cut, insert)


@FUZZ
@SPLICES
def test_load_checkpoint_takes_any_splice_into_a_valid_encoder_file(
    tmp_path, encoder_checkpoint_text, start, cut, insert
):
    load_splice(tmp_path / "m.ckpt", encoder_checkpoint_text, start, cut, insert)


@FUZZ
@SPLICES
def test_load_embeddings_takes_any_splice_into_a_valid_file(tmp_path, csv_text, start, cut, insert):
    """A spliced CSV that loads trains one mini-batch of a bypass model of its
    width: finite losses and gradients, or a ValueError that names a row."""
    records = splice(load_embeddings, tmp_path / "d.csv", csv_text, start, cut, insert)
    if records is None:
        return
    model = make_bypass_model(in_dim=len(records[0].features), seed=0)
    rows = as_rows(model, [rec.features for rec in records])
    try:
        losses, grads, _ = row_gradients(model, rows, [rec.label for rec in records])
    except ValueError as exc:
        assert str(exc).startswith("row "), exc
        return
    assert np.isfinite(losses).all()
    assert all(np.isfinite(g).all() for g in grads.values())


KEYS = st.sampled_from(sorted(SCHEMA))


@FUZZ
@given(
    lines=st.lists(
        st.one_of(st.text(ANY, max_size=30), st.tuples(KEYS, texts(12)).map(" = ".join)),
        max_size=6,
    ),
    assignment=st.one_of(st.text(ANY, max_size=30), st.tuples(KEYS, texts(12)).map("=".join)),
)
def test_config_parsers_take_any_text(tmp_path, lines, assignment):
    config = loads_or_names_path(parse_config_file, tmp_path / "c.cfg", "\n".join(lines))
    assert config is None or set(config) == set(SCHEMA)
    try:
        apply_overrides(default_config(), [assignment])
    except ValueError:
        pass
