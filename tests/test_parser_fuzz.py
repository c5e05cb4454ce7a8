"""Fuzzed parser inputs: any CSV, checkpoint or config text either loads or
raises ValueError, and an error about a file starts with its path."""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qembed.checkpoint import load_checkpoint, save_checkpoint
from qembed.config import SCHEMA, apply_overrides, default_config, parse_config_file
from qembed.data import load_embeddings
from qembed.model import make_bypass_model

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# any text that encodes as UTF-8 (no lone surrogates)
ANY = st.characters(blacklist_categories=("Cs",))
# the characters the formats are made of, so that more texts get past the
# first checks and reach the later ones
NUMERIC = st.sampled_from(list("0123456789.-+eE_ ,\n\r\t#=") + ["nan", "inf", "true"])


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


@FUZZ
@given(body=texts(120))
def test_load_embeddings_takes_any_text_after_a_valid_header(tmp_path, body):
    records = loads_or_names_path(load_embeddings, tmp_path / "d.csv", "id,label,f0,f1\n" + body)
    for rec in records or []:
        assert rec.features.shape == (2,) and rec.label in (0, 1)


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, make_bypass_model(in_dim=3, n_qubits=2, ansatz_layers=1, seed=0))
    return path.read_text(encoding="utf-8")


# Splices insert at most 3 characters, so that a spliced size (such as
# reduction.in_dim) stays small enough to build.
@FUZZ
@given(start=st.integers(0, 10**6), cut=st.integers(0, 8), insert=texts(3))
def test_load_checkpoint_takes_any_splice_into_a_valid_file(
    tmp_path, checkpoint_text, start, cut, insert
):
    start %= len(checkpoint_text) + 1
    text = checkpoint_text[:start] + insert + checkpoint_text[start + cut :]
    loads_or_names_path(load_checkpoint, tmp_path / "m.ckpt", text)


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
