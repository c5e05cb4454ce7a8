"""Embedding datasets: CSV ingestion, canonical writing, synthetic generation.

CSV format: header `id,label,f0,f1,...,f{d-1}`, one record per line, floats
in decimal or scientific notation, UTF-8, LF line endings. Writing uses
repr() for floats, so a write/load round trip reproduces values exactly.
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


def _expected_header(dim: int) -> str:
    return "id,label," + ",".join(f"f{i}" for i in range(dim))


def load_embeddings(path) -> list[EmbeddingRecord]:
    """Parse an embedding CSV, validating dimensions and labels per line.

    Every value goes through float() into one (rows, d) array, checked for
    finite values once; each record's `features` is a row of that array.
    The file is read a line at a time, in two passes: one counts the lines
    to size the array, the other parses them. Lines end at LF, CRLF or CR
    only; a form feed, U+0085 or U+2028 (which str.splitlines breaks on)
    stays inside its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
        if not n_lines:
            raise ValueError(f"{path}: file is empty")
        fh.seek(0)
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "id" or cols[1] != "label":
            raise ValueError(f"{path}:1: malformed header {header!r}")
        dim = len(cols) - 2
        if cols != _expected_header(dim).split(","):
            raise ValueError(f"{path}:1: feature columns must be f0..f{dim - 1} in order")
        values = np.empty((n_lines - 1, dim))
        labels: list[int] = []
        # id -> line; ids are unique, so its values are every row's line in order
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 2:
                got = len(parts) - 2 if len(parts) > 1 else "one field, no label"
                raise ValueError(f"{path}:{lineno}: expected {dim} feature(s), got {got}")
            rec_id = parts[0]
            if rec_id in first_line:
                raise ValueError(
                    f"{path}:{lineno}: id {rec_id!r} repeats line {first_line[rec_id]}"
                )
            first_line[rec_id] = lineno
            try:
                label = int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label {parts[1]!r} is not an integer") from None
            if label not in (0, 1):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            try:
                values[len(labels)] = list(map(float, parts[2:]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed float value") from None
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no data rows (empty dataset)")
    values = values[: len(labels)]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = list(first_line.values())[int(np.argmin(finite))]
        raise ValueError(f"{path}:{lineno}: features must be finite")
    return [
        EmbeddingRecord(id=rec_id, features=row, label=label)
        for rec_id, row, label in zip(first_line, values, labels)
    ]


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
