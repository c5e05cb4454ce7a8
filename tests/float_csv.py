"""The reference embedding CSV reader that `qembed.data.load_embeddings` is
pinned to: every line checked and every value parsed by float(), one line
at a time.

It takes every text the loader takes, with the same ids, labels and value
bits; it also takes what float() takes beyond the loader's float grammar,
underscores between digits and non-ASCII digits.
"""
import numpy as np


def reference_load(path):
    """(ids, labels, (rows, d) float64 array) of the CSV at `path`; a
    ValueError for a file the loader rejects, or the loader's float grammar
    alone rejects."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    dim = len(header) - 2
    if dim < 1 or header != ["id", "label"] + [f"f{i}" for i in range(dim)]:
        raise ValueError("malformed header")
    ids, labels, rows = [], [], []
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != dim + 2 or fields[0] in ids or int(fields[1]) not in (0, 1):
            raise ValueError("malformed line")
        ids.append(fields[0])
        labels.append(int(fields[1]))
        rows.append([float(v) for v in fields[2:]])
    values = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    if not rows or not np.isfinite(values).all():
        raise ValueError("no rows, or a value that is not finite")
    return ids, labels, values
