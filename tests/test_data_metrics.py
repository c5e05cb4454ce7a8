"""Dataset IO, synthetic generation, metrics, benchmark statistics."""
import math

import numpy as np
import pytest

from qembed.data import EmbeddingRecord, generate_synthetic, load_embeddings, write_embeddings
from qembed.metrics import (
    compute_metrics,
    format_comparison_table,
    median,
    population_sd,
    summarize_f1,
)

from float_csv import reference_load


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_two_valid_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0,f1\na,1,0.5,-1.5\nb,0,2.0,3.25\n")
    records = load_embeddings(path)
    assert len(records) == 2
    assert records[0].id == "a" and records[0].label == 1
    assert np.array_equal(records[1].features, [2.0, 3.25])


def test_load_rejects_short_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0,f1\na,1,0.5,1.5\nb,0,2.0\n")
    with pytest.raises(ValueError, match=":3"):
        load_embeddings(path)


def test_load_rejects_header_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0,f1\n")
    with pytest.raises(ValueError, match="empty dataset"):
        load_embeddings(path)


def test_load_rejects_bad_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0\na,2,0.5\n")
    with pytest.raises(ValueError, match="label"):
        load_embeddings(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("name,label,f0\na,1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_embeddings(path)


def test_load_rejects_malformed_float(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0\na,1,abc\n")
    with pytest.raises(ValueError, match=":2"):
        load_embeddings(path)


def test_load_rejects_duplicate_id(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0\na,1,0.5\nb,0,1.0\na,0,2.0\n")
    with pytest.raises(ValueError, match=r":4: id 'a' repeats line 2"):
        load_embeddings(path)


def test_load_rejects_first_non_finite_row_by_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0,f1\na,1,0.5,1.0\n\nb,0,inf,2.0\nc,0,nan,1.0\n")
    with pytest.raises(ValueError, match=r"d\.csv:4: features must be finite"):
        load_embeddings(path)


# fields whose float() is a corner of the format: subnormals and the
# smallest normal, both zeros, the largest finite values, short forms, long
# decimals, and whitespace float() strips (a form feed, U+0085, U+2028)
CORNER_FIELDS = [
    "5e-324", "-5e-324", "1e-310", "2.2250738585072009e-308", "2.2250738585072014e-308",
    "0.0", "-0.0", "1.7976931348623157e308", "-1.7976931348623157e308", "3", "+.5", "1.",
    "1e-320", "0.1000000000000000055511151231257827", "1234567890123456789012345",
    " 0.5", "0.5\t", "0.5\x0c", "0.5\x85", "0.5\u2028", "-7.25", "2.5e300", "1E5",
]


def csv_text(rows):
    """An embedding CSV of `rows`, lists of field texts, labels alternating."""
    dim = len(rows[0])
    return "id,label," + ",".join(f"f{i}" for i in range(dim)) + "\n" + "".join(
        f"r{i},{i % 2},{','.join(row)}\n" for i, row in enumerate(rows))


def test_load_features_are_rows_of_float_values(tmp_path):
    """Every value has float()'s bits, by the per-line float() reference:
    the corner fields, and 4 000 seeded reprs from 1e-320 to 1e308."""
    rng = np.random.default_rng(0)
    seeded = rng.normal(size=4000) * 10.0 ** rng.integers(-320, 308, size=4000)
    fields = CORNER_FIELDS * 3 + [repr(v) for v in seeded.tolist()]
    rng.shuffle(fields)
    path = tmp_path / "d.csv"
    for dim in (1, 3, 8):
        rows = [fields[i : i + dim] for i in range(0, len(fields) - dim + 1, dim)]
        path.write_text(csv_text(rows), encoding="utf-8")
        records = load_embeddings(path)
        ids, labels, values = reference_load(path)
        assert [(r.id, r.label) for r in records] == list(zip(ids, labels))
        assert np.stack([r.features for r in records]).tobytes() == values.tobytes()
        assert all(r.features.base is records[0].features.base for r in records)
        assert records[0].features.base.shape == (len(rows), dim)


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
@pytest.mark.parametrize("last", [False, True], ids=["inside", "last-no-newline"])
def test_load_names_a_malformed_value_at_its_line(tmp_path, newline, last):
    """Past blank lines, in LF, CR and CRLF files, and on a last line with no
    newline, a value the reader rejects is named at its own line."""
    lines = ["id,label,f0,f1", "a,1,0.5,1.5", "", "b,0,2.0,2.5", "", "", "c,1,1.0,x1"]
    if not last:
        lines += ["d,0,1.0,2.0", ""]
    path = tmp_path / "d.csv"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    with pytest.raises(ValueError) as info:
        load_embeddings(path)
    assert str(info.value) == f"{path}:7: malformed float value"


@pytest.mark.parametrize("field", ["1#2", "#", "0.5 # note", '"1"', '"', "'1'"])
def test_load_comment_and_quote_marks_are_malformed_values(tmp_path, field):
    """A `#` starts no comment and a `"` no quoted field: a value holding one
    is malformed at its line."""
    path = tmp_path / "d.csv"
    path.write_text(csv_text([["0.5", "1.0"], ["2.0", field]]), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_embeddings(path)
    assert str(info.value) == f"{path}:3: malformed float value"


@pytest.mark.parametrize("field, value", [
    ("1_0", 10.0), ("\u0661\u0662", 12.0), ("\uff11", 1.0), ("1_000.5e-1_0", 1000.5e-10),
], ids=["underscore", "arabic-indic", "fullwidth", "underscores-in-exponent"])
def test_load_rejects_what_only_float_takes(tmp_path, field, value):
    """float() takes underscores between digits and non-ASCII digits, and the
    per-line float() reader loaded them; the float grammar is ASCII."""
    path = tmp_path / "d.csv"
    path.write_text(csv_text([["0.5"], ["1.5"], [field]]), encoding="utf-8")
    assert reference_load(path)[2][2, 0] == value
    with pytest.raises(ValueError) as info:
        load_embeddings(path)
    assert str(info.value) == f"{path}:4: malformed float value"


def test_load_keeps_the_row_and_column_axes(tmp_path):
    """One row loads as a (1, d) array and one column as (rows, 1): each
    record's features has shape (d,)."""
    path = tmp_path / "d.csv"
    for rows, shape in [([["0.5", "1.5", "2.5"]], (1, 3)), ([["0.5"], ["1.5"]], (2, 1)),
                        ([["0.5"]], (1, 1))]:
        path.write_text(csv_text(rows), encoding="utf-8")
        records = load_embeddings(path)
        assert records[0].features.base.shape == shape
        assert [r.features.tolist() for r in records] == [[float(v) for v in r] for r in rows]


def test_load_reads_a_path_as_a_plain_file(tmp_path):
    """A file is text whatever its name: a plain CSV named like a gzip file
    loads as it is, and is not handed to a decompressor."""
    path = tmp_path / "d.csv.gz"
    path.write_text(csv_text([["0.5"], ["1.5"]]), encoding="utf-8")
    assert [r.features.tolist() for r in load_embeddings(path)] == [[0.5], [1.5]]


def test_load_ends_lines_at_newlines_only(tmp_path):
    """LF, CRLF and CR end a line. A form feed, U+0085 or U+2028 does not:
    inside a line it is part of that line, where str.splitlines would break
    it in two; at the end of the last value float() strips it."""
    path = tmp_path / "d.csv"
    path.write_bytes(b"id,label,f0\r\na,1,0.5\rb,0,1.5\n\nc,1,2.5")
    assert [(r.id, r.label, r.features.tolist()) for r in load_embeddings(path)] == [
        ("a", 1, [0.5]), ("b", 0, [1.5]), ("c", 1, [2.5])]
    for sep in ("\x0c", "\x85", "\u2028"):
        path.write_bytes(f"id,label,f0\na,1,0.5{sep}b,0,1.5\n".encode("utf-8"))
        with pytest.raises(ValueError, match=r"d\.csv:2: expected 1 feature\(s\), got 3"):
            load_embeddings(path)
        path.write_bytes(f"id,label,f0\na,1,0.5{sep}\nb,0,1.5\n".encode("utf-8"))
        assert [r.features.tolist() for r in load_embeddings(path)] == [[0.5], [1.5]]


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_embeddings(tmp_path / "nope.csv")


def test_write_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        EmbeddingRecord(id=f"r{i}", features=rng.normal(scale=10.0 ** rng.integers(-8, 8), size=5), label=int(i % 2))
        for i in range(20)
    ]
    path = tmp_path / "d.csv"
    write_embeddings(path, records)
    loaded = load_embeddings(path)
    for orig, back in zip(records, loaded):
        assert back.id == orig.id and back.label == orig.label
        assert np.array_equal(back.features, orig.features)  # repr round-trips exactly


@pytest.mark.parametrize("shape", [(3, 1), (4, 4, 1)])
def test_write_rejects_features_that_are_not_a_vector(tmp_path, shape):
    """An image or column array is refused by name, and no file is written."""
    path = tmp_path / "d.csv"
    record = EmbeddingRecord(id="r0", features=np.ones(shape), label=1)
    with pytest.raises(ValueError, match=rf"^record 'r0' has features of shape \({shape[0]}, "):
        write_embeddings(path, [record])
    assert not path.exists()


@pytest.mark.parametrize("rows, message", [
    ([("a\nb", 1, [0.5])], r"^record id 'a\\nb' must not contain a comma, CR or LF$"),
    ([("a\rb", 1, [0.5])], r"^record id 'a\\rb' must not contain a comma, CR or LF$"),
    ([("a,b", 1, [0.5])], r"^record id 'a,b' must not contain a comma, CR or LF$"),
    ([("a", 1, [0.5]), ("b", 0, [1.0]), ("a", 0, [2.0])], r"^record id 'a' repeats$"),
    ([("a", 1, [0.5]), ("b", 0, [math.nan])], r"^record 'b' has features that are not finite$"),
    ([("a", 1, [-math.inf])], r"^record 'a' has features that are not finite$"),
    ([("a", 2, [0.5])], r"^record 'a' has label 2, not 0 or 1$"),
    ([("a", 0.5, [0.5])], r"^record 'a' has label 0\.5, not 0 or 1$"),
    ([("a", 1, []), ("b", 0, [])], r"^records must have at least one feature$"),
])
def test_write_refuses_records_the_loader_rejects(tmp_path, rows, message):
    """Written as they are, these records make a file load_embeddings
    rejects; the writer refuses them before it writes a byte, so the file
    it would have replaced keeps its bytes."""
    plain = tmp_path / "plain.csv"
    dim = len(rows[0][2])
    plain.write_text("id,label," + ",".join(f"f{i}" for i in range(dim)) + "\n" + "".join(
        f"{i},{y}," + ",".join(map(repr, f)) + "\n" for i, y, f in rows))
    with pytest.raises(ValueError):
        load_embeddings(plain)
    path = tmp_path / "d.csv"
    path.write_bytes(b"kept")
    records = [EmbeddingRecord(id=i, features=np.array(f), label=y) for i, y, f in rows]
    with pytest.raises(ValueError, match=message):
        write_embeddings(path, records)
    assert path.read_bytes() == b"kept"
    # an id UTF-8 cannot encode is refused before the file is opened too
    with pytest.raises(UnicodeEncodeError):
        write_embeddings(path, [EmbeddingRecord(id="\ud800", features=np.ones(1), label=1)])
    assert path.read_bytes() == b"kept"


def test_load_names_the_field_count_of_a_line_without_a_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,f0,f1\na,1,0.5,1.5\nb\n")
    with pytest.raises(ValueError, match=r"^.*d\.csv:3: expected 2 feature\(s\), got one field, no label$"):
        load_embeddings(path)
    path.write_text("id,label,f0,f1\nb,1\n")
    with pytest.raises(ValueError, match=r"d\.csv:2: expected 2 feature\(s\), got 0$"):
        load_embeddings(path)
    # only an empty line is blank: one of whitespace is a line with one field
    path.write_text("id,label,f0,f1\na,1,0.5,1.5\n \t\nb,0,2.0,2.5\n")
    with pytest.raises(ValueError, match=r"d\.csv:3: expected 2 feature\(s\), got one field, no label$"):
        load_embeddings(path)


def test_loaded_records_are_slotted_and_round_trip(tmp_path):
    """Records hold no per-instance `__dict__`; a write/load/write round
    trip gives the same file bytes and the same records."""
    records = generate_synthetic(30, 4, 3.0, seed=5)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_embeddings(first, records)
    loaded = load_embeddings(first)
    assert not hasattr(loaded[0], "__dict__")
    with pytest.raises(AttributeError):
        loaded[0].weight = 1.0
    loaded[0].features = loaded[0].features.copy()  # fields stay assignable
    write_embeddings(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    for orig, back in zip(records, loaded):
        assert (back.id, back.label) == (orig.id, orig.label)
        assert np.array_equal(back.features, orig.features)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def test_synthetic_is_deterministic(tmp_path):
    a = generate_synthetic(50, 4, 3.0, seed=42)
    b = generate_synthetic(50, 4, 3.0, seed=42)
    for ra, rb in zip(a, b):
        assert ra.id == rb.id and ra.label == rb.label
        assert np.array_equal(ra.features, rb.features)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_embeddings(pa, a)
    write_embeddings(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def test_synthetic_balanced_counts():
    records = generate_synthetic(201, 3, 1.0, seed=1)
    ones = sum(r.label for r in records)
    assert ones == 100  # label 0 gets the odd extra


def test_synthetic_separated_clusters_linearly_separable():
    """A 6-sigma separation leaves ~0.13% Bayes error; the midpoint rule on
    the empirical direction should make at most a couple of mistakes."""
    records = generate_synthetic(200, 16, 6.0, seed=2)
    feats = np.array([r.features for r in records])
    labels = np.array([r.label for r in records])
    direction = feats[labels == 1].mean(axis=0) - feats[labels == 0].mean(axis=0)
    preds = (feats @ direction > 0).astype(int)
    report = compute_metrics(preds.tolist(), labels.tolist())
    assert report.f1 > 0.99


def test_synthetic_zero_separation_not_separable():
    records = generate_synthetic(400, 8, 0.0, seed=3)
    feats = np.array([r.features for r in records])
    labels = np.array([r.label for r in records])
    direction = feats[labels == 1].mean(axis=0) - feats[labels == 0].mean(axis=0)
    preds = (feats @ direction > 0).astype(int)
    accuracy = float((preds == labels).mean())
    assert abs(accuracy - 0.5) < 0.15  # chance level, wide slack


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(1, 4, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 4, -1.0, seed=0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        generate_synthetic(10, 4, 1.0, seed=-1)


@pytest.mark.parametrize("separation", [math.nan, math.inf], ids=["nan", "inf"])
def test_synthetic_rejects_non_finite_separation(separation):
    with pytest.raises(ValueError, match=f"^separation must be finite and >= 0, got {separation}$"):
        generate_synthetic(10, 4, separation, seed=0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_perfect_agreement():
    report = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert report.accuracy == report.precision == report.recall == report.f1 == 1.0


def test_hand_counted_confusion():
    # TP=2, FP=1, FN=1, TN=0
    preds = [1, 1, 1, 0]
    labels = [1, 1, 0, 1]
    report = compute_metrics(preds, labels)
    assert report.tp == 2 and report.fp == 1 and report.fn == 1 and report.tn == 0
    assert math.isclose(report.precision, 2 / 3)
    assert math.isclose(report.recall, 2 / 3)
    assert math.isclose(report.f1, 2 / 3)


def test_all_negative_predictions_zero_out():
    report = compute_metrics([0, 0, 0], [1, 0, 1])
    assert report.recall == 0.0 and report.f1 == 0.0 and report.precision == 0.0


def test_mismatched_lengths_and_empty():
    with pytest.raises(ValueError):
        compute_metrics([1], [1, 0])
    with pytest.raises(ValueError):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics([2], [1])


def test_metric_identities_random_confusions():
    """10^4 random confusion matrices against the count-based definitions."""
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 6, size=4))
        if tp + fp + tn + fn == 0:
            continue
        preds = [1] * tp + [1] * fp + [0] * tn + [0] * fn
        labels = [1] * tp + [0] * fp + [0] * tn + [1] * fn
        r = compute_metrics(preds, labels)
        assert (r.tp, r.fp, r.tn, r.fn) == (tp, fp, tn, fn)
        assert r.accuracy == (tp + tn) / (tp + fp + tn + fn)
        assert r.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert r.recall == (tp / (tp + fn) if tp + fn else 0.0)
        expected_f1 = (
            2 * r.precision * r.recall / (r.precision + r.recall)
            if r.precision + r.recall
            else 0.0
        )
        assert r.f1 == expected_f1


# ---------------------------------------------------------------------------
# Benchmark statistics
# ---------------------------------------------------------------------------

def test_median_odd_even():
    assert median([0.7, 0.9, 0.8]) == 0.8
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_median_of_nothing_is_a_value_error():
    with pytest.raises(ValueError):
        median([])


def test_population_sd_known_value():
    assert math.isclose(population_sd([0.7, 0.8, 0.9]), 0.081649658092772603, rel_tol=1e-12)


def test_identical_scores_zero_sd():
    assert population_sd([0.5] * 7) == 0.0


def test_summary_recomputable():
    scores = [0.71, 0.93, 0.88, 0.85, 0.77]
    summary = summarize_f1("method-a", range(5), scores)
    assert abs(summary.median_f1 - median(summary.f1_scores)) < 1e-12
    assert abs(summary.sd_f1 - population_sd(summary.f1_scores)) < 1e-12


def test_table_format_anchor():
    table = format_comparison_table(
        [
            ("Classical Baseline", 0.0370, 0.728),
            ("CNN-based", 0.0536, 0.741),
            ("Transformer-based", 0.0052, 0.774),
        ]
    )
    lines = table.splitlines()
    assert "Method" in lines[0] and "Standard Deviation" in lines[0] and "Median F1" in lines[0]
    assert any("Transformer-based" in l and "0.0052" in l and "0.774" in l for l in lines)
    widths = {len(l) for l in lines if l.strip()}
    assert len(widths) == 1  # fixed-width rows
