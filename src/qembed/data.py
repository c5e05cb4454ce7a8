"""Embedding datasets: CSV ingestion, canonical writing, synthetic generation.

CSV format: header `id,label,f0,f1,...,f{d-1}`, one record per line, floats
in ASCII decimal or scientific notation, UTF-8, LF line endings. Loading
parses the feature columns with numpy's C text reader. Writing uses repr()
for floats, so a write/load round trip reproduces values exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class EmbeddingRecord:
    id: str
    features: np.ndarray
    label: int


_LABELS = {"0": 0, "1": 1}


def _expected_header(dim: int) -> str:
    return "id,label," + ",".join(f"f{i}" for i in range(dim))


def _features(lines, dim: int) -> np.ndarray:
    """The (rows, dim) feature columns of CSV data lines, with no header."""
    return np.loadtxt(lines, delimiter=",", usecols=range(2, dim + 2), comments=None, ndmin=2)


def load_embeddings(path) -> list[EmbeddingRecord]:
    """Parse an embedding CSV, validating dimensions and labels per line.

    One Python pass checks the header and each line's field count, unique
    id and label, `0` or `1` with a value's surrounding whitespace,
    skipping blank lines; numpy's C text reader then
    parses the feature columns of the same open file into one (rows, d)
    array, checked for finite values once, whose rows are the records'
    `features`. A value is ASCII decimal or scientific notation, with an
    optional sign and surrounding whitespace, rounded as float() rounds it;
    float() would also take underscores and non-ASCII digits. A value the
    reader rejects is named by parsing the lines again one at a time. Lines
    end at LF, CRLF or CR only; a form feed, U+0085 or U+2028 (which
    str.splitlines breaks on) stays inside its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: file is empty")
        header = header.rstrip("\n")
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "id" or cols[1] != "label":
            raise ValueError(f"{path}:1: malformed header {header!r}")
        dim = len(cols) - 2
        if cols != _expected_header(dim).split(","):
            raise ValueError(f"{path}:1: feature columns must be f0..f{dim - 1} in order")
        labels: list[int] = []
        # id -> line; ids are unique, so its values are every row's line in order
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(fh, start=2):
            if line == "\n":
                continue
            commas = line.count(",")
            if commas != dim + 1:
                got = commas - 1 if commas else "one field, no label"
                raise ValueError(f"{path}:{lineno}: expected {dim} feature(s), got {got}")
            rec_id, text, _ = line.split(",", 2)
            if rec_id in first_line:
                raise ValueError(
                    f"{path}:{lineno}: id {rec_id!r} repeats line {first_line[rec_id]}"
                )
            first_line[rec_id] = lineno
            # str.strip() drops the whitespace numpy's reader drops round a value
            label = _LABELS.get(text.strip())
            if label is None:
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {text!r}")
            labels.append(label)
        if not labels:
            raise ValueError(f"{path}: no data rows (empty dataset)")
        fh.seek(0)
        fh.readline()
        try:
            values = _features(fh, dim)
        except ValueError:
            fh.seek(0)
            lines = fh.readlines()
            for lineno in first_line.values():
                try:
                    _features(lines[lineno - 1 : lineno], dim)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed float value") from None
            raise  # no line fails alone: the reader's own error
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = list(first_line.values())[int(np.argmin(finite))]
        raise ValueError(f"{path}:{lineno}: features must be finite")
    # positional, in field order: a keyword call costs about twice as much
    return list(map(EmbeddingRecord, first_line, values, labels))


def write_embeddings(path, records) -> None:
    """Write `records` as an embedding CSV; a record `load_embeddings` would
    reject is refused, by id, before anything is written."""
    records = list(records)
    if not records:
        raise ValueError("refusing to write an empty dataset")
    dim = len(records[0].features)
    if not dim:
        raise ValueError("records must have at least one feature")
    lines = [_expected_header(dim)]
    ids = set()
    for rec in records:
        if "," in rec.id or "\r" in rec.id or "\n" in rec.id:
            raise ValueError(f"record id {rec.id!r} must not contain a comma, CR or LF")
        if rec.id in ids:
            raise ValueError(f"record id {rec.id!r} repeats")
        ids.add(rec.id)
        if rec.label not in (0, 1):
            raise ValueError(f"record {rec.id!r} has label {rec.label!r}, not 0 or 1")
        features = np.asarray(rec.features, dtype=np.float64)
        if features.shape != (dim,):
            raise ValueError(
                f"record {rec.id!r} has features of shape {features.shape}, not ({dim},)"
            )
        values = ",".join(map(repr, features.tolist()))
        # of a float's reprs, only those of inf and nan hold an "n"
        if "n" in values:
            raise ValueError(f"record {rec.id!r} has features that are not finite")
        lines.append(f"{rec.id},{int(rec.label)},{values}")
    # encoded before the file is opened, so an id UTF-8 cannot hold writes nothing
    text = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(text)


def generate_synthetic(n: int, d: int, separation: float, seed: int) -> list[EmbeddingRecord]:
    """Two unit-variance Gaussian clusters split by `separation` along a
    seeded random unit direction; label 1 sits on the positive side.

    Counts are balanced up to rounding (label 0 gets the extra sample when
    n is odd) and the row order is a seeded shuffle, so identical seeds
    produce identical datasets byte for byte.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (math.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be finite and >= 0, got {separation}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    while np.linalg.norm(direction) == 0.0:
        direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    offset = (separation / 2.0) * direction

    n_pos = n // 2
    n_neg = n - n_pos
    pos = offset + rng.standard_normal((n_pos, d))
    neg = -offset + rng.standard_normal((n_neg, d))
    features = np.vstack([pos, neg])
    labels = np.array([1] * n_pos + [0] * n_neg)
    order = rng.permutation(n)
    return [
        EmbeddingRecord(id=f"s{i:04d}", features=features[j].copy(), label=int(labels[j]))
        for i, j in enumerate(order)
    ]
