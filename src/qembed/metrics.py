"""Binary classification metrics and cross-seed benchmark statistics.

Class 1 is the positive class throughout. Zero-denominator precision,
recall, and F1 are defined as 0. Benchmark summaries report the median F1
and the population standard deviation (divide by the number of runs) over
per-seed scores.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
        }


def compute_metrics(predictions, labels) -> MetricsReport:
    """Confusion-matrix metrics from parallel 0/1 prediction and label lists."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError(
            f"predictions ({len(predictions)}) and labels ({len(labels)}) differ in length"
        )
    if not predictions:
        raise ValueError("cannot compute metrics on empty input")
    tp = fp = tn = fn = 0
    for pred, true in zip(predictions, labels):
        if pred not in (0, 1) or true not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got pred={pred!r}, true={true!r}")
        if true == 1:
            if pred == 1:
                tp += 1
            else:
                fn += 1
        else:
            if pred == 1:
                fp += 1
            else:
                tn += 1
    total = tp + fp + tn + fn
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricsReport(
        accuracy=(tp + tn) / total,
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def median(values) -> float:
    """`statistics.median` of the values as floats (empty: its `StatisticsError`, a ValueError)."""
    return statistics.median(map(float, values))


def population_sd(values) -> float:
    """sqrt(mean((x - mean)^2)): divide by the count, not count - 1."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("standard deviation of empty list")
    mean = sum(vals) / len(vals)
    return math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))


@dataclass(frozen=True)
class BenchmarkSummary:
    method: str
    seeds: tuple
    f1_scores: tuple
    median_f1: float
    sd_f1: float

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "seeds": list(self.seeds),
            "f1_scores": list(self.f1_scores),
            "runs": len(self.seeds),
            "median_f1": self.median_f1,
            "sd_f1": self.sd_f1,
        }


def summarize_f1(method: str, seeds, f1_scores) -> BenchmarkSummary:
    seeds = tuple(int(s) for s in seeds)
    scores = tuple(float(f) for f in f1_scores)
    if len(seeds) != len(scores):
        raise ValueError("seeds and scores differ in length")
    return BenchmarkSummary(
        method=method,
        seeds=seeds,
        f1_scores=scores,
        median_f1=median(scores),
        sd_f1=population_sd(scores),
    )


def format_comparison_table(rows) -> str:
    """Fixed-width table with Method / Standard Deviation / Median F1 columns.

    `rows` holds (method, sd, median_f1) triples; SD prints with four
    decimals and median F1 with three, e.g. `Transformer-based  0.0052  0.774`.
    """
    rows = [(str(m), float(sd), float(med)) for m, sd, med in rows]
    name_width = max([len("Method")] + [len(m) for m, _, _ in rows])
    header = f"{'Method':<{name_width}}  {'Standard Deviation':>18}  {'Median F1':>9}"
    lines = [header, "-" * len(header)]
    for method, sd, med in rows:
        lines.append(f"{method:<{name_width}}  {sd:>18.4f}  {med:>9.3f}")
    return "\n".join(lines)
