"""Embedding datasets: CSV ingestion, canonical writing, synthetic generation.

CSV format: header `id,label,f0,f1,...,f{d-1}`, one record per line, floats
in decimal or scientific notation, UTF-8, LF line endings. Writing uses
repr() for floats, so a write/load round trip reproduces values exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EmbeddingRecord:
    id: str
    features: np.ndarray
    label: int


def _expected_header(dim: int) -> str:
    return "id,label," + ",".join(f"f{i}" for i in range(dim))


def load_embeddings(path) -> list[EmbeddingRecord]:
    """Parse an embedding CSV, validating dimensions and labels per line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: file is empty")
    header = lines[0]
    cols = header.split(",")
    if len(cols) < 3 or cols[0] != "id" or cols[1] != "label":
        raise ValueError(f"{path}:1: malformed header {header!r}")
    dim = len(cols) - 2
    if cols != _expected_header(dim).split(","):
        raise ValueError(f"{path}:1: feature columns must be f0..f{dim - 1} in order")
    records: list[EmbeddingRecord] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ValueError(
                f"{path}:{lineno}: expected {dim} feature(s), got {len(parts) - 2}"
            )
        rec_id = parts[0]
        if rec_id in first_line:
            raise ValueError(f"{path}:{lineno}: id {rec_id!r} repeats line {first_line[rec_id]}")
        first_line[rec_id] = lineno
        try:
            label = int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: label {parts[1]!r} is not an integer") from None
        if label not in (0, 1):
            raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
        try:
            feats = np.array([float(v) for v in parts[2:]], dtype=float)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed float value") from None
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"{path}:{lineno}: features must be finite")
        records.append(EmbeddingRecord(id=rec_id, features=feats, label=label))
    if not records:
        raise ValueError(f"{path}: no data rows (empty dataset)")
    return records


def write_embeddings(path, records) -> None:
    records = list(records)
    if not records:
        raise ValueError("refusing to write an empty dataset")
    dim = len(records[0].features)
    lines = [_expected_header(dim)]
    for rec in records:
        if "," in rec.id:
            raise ValueError(f"record id {rec.id!r} must not contain commas")
        if len(rec.features) != dim:
            raise ValueError(f"record {rec.id!r} has {len(rec.features)} feature(s), expected {dim}")
        values = ",".join(repr(float(v)) for v in rec.features)
        lines.append(f"{rec.id},{int(rec.label)},{values}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    if separation < 0:
        raise ValueError(f"separation must be >= 0, got {separation}")
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
