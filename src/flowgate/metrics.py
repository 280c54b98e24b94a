"""Scoring, AUROC, and evaluation reports.

AUROC is computed from tied rank sums: the probability that a uniformly
random positive outranks a uniformly random negative, with ties counted as
one half. The report carries the AUROC, class counts, and 50-bin score
histograms per class; it serializes to a small key/value text format.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .checkpoint import replacing
from .dataset import csv_records, text_lines
from .errors import MalformedRow, OneClassOnly
from .packets import Label

HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class ScoredSample:
    score: float
    label: Optional[Label] = None
    source_id: Optional[tuple[str, int]] = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


def tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged; averages land on exact half-integers."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True,
                                   equal_nan=False)
    # a run of equals at 1-based positions i..j ends at cumsum; its mean is (i + j) / 2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def auroc(scored: Iterable[tuple[float, int]]) -> float:
    """Rank-sum AUROC over (score, label) pairs; label 1 is the positive class."""
    pairs = list(scored)
    return _auroc(np.array([s for s, _ in pairs], dtype=np.float64),
                  np.array([int(l) for _, l in pairs]))


def _auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-sum AUROC of float64 scores against labels, 1 positive and 0 negative."""
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly(f"need both classes, got {n_pos} positive / {n_neg} negative")
    ranks = tied_ranks(scores)
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(eq=True)
class EvalReport:
    auroc: float
    n_pos: int
    n_neg: int
    bins: int = HISTOGRAM_BINS
    hist_normal: tuple[int, ...] = ()
    hist_anomaly: tuple[int, ...] = ()


def _histogram(scores: np.ndarray, bins: int) -> tuple[int, ...]:
    counts, _ = np.histogram(scores, bins=bins, range=(0.0, 1.0))
    return tuple(int(c) for c in counts)


def evaluate(scored: Sequence[ScoredSample]) -> EvalReport:
    """Report over fully labeled scored samples."""
    if any(s.label is None for s in scored):
        raise OneClassOnly("every sample must carry a ground-truth label")
    labels = np.fromiter((s.label is Label.ANOMALY for s in scored), np.int64, len(scored))
    values = np.fromiter((s.score for s in scored), np.float64, len(scored))
    return EvalReport(
        auroc=_auroc(values, labels),
        n_pos=int((labels == 1).sum()),
        n_neg=int((labels == 0).sum()),
        bins=HISTOGRAM_BINS,
        hist_normal=_histogram(values[labels == 0], HISTOGRAM_BINS),
        hist_anomaly=_histogram(values[labels == 1], HISTOGRAM_BINS),
    )


def format_report(report: EvalReport) -> str:
    lines = [
        f"auroc: {report.auroc!r}",
        f"n_pos: {report.n_pos}",
        f"n_neg: {report.n_neg}",
        f"bins: {report.bins}",
        "hist_normal: " + ",".join(str(c) for c in report.hist_normal),
        "hist_anomaly: " + ",".join(str(c) for c in report.hist_anomaly),
    ]
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, report: EvalReport) -> None:
    with replacing(path, "report") as fh:
        fh.write(format_report(report).encode())


# --- per-sample score CSV ---

SCORES_HEADER = ["source_file", "capture_index", "score", "label"]


def write_scores(path: str | Path, scored: Sequence[ScoredSample]) -> int:
    with replacing(path, "scores") as raw, io.TextIOWrapper(raw, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for s in scored:
            fid, idx = s.source_id if s.source_id else ("", -1)
            label = "" if s.label is None else str(s.label.value)
            writer.writerow([fid, idx, repr(float(s.score)), label])
    return len(scored)


def read_scores(path: str | Path) -> list[ScoredSample]:
    records = csv_records(path, text_lines(path, "scores"))
    if next(records, (None, None))[1] != SCORES_HEADER:
        raise MalformedRow(f"{path}: missing scores header")
    out = []
    for where, row in records:
        if len(row) != 4:
            raise MalformedRow(f"{where}: expected 4 columns")
        fid, idx, score, label = row
        try:
            out.append(ScoredSample(
                score=float(score),
                label=None if label == "" else Label(int(label)),
                source_id=(fid, int(idx)) if fid else None))
        except ValueError as err:
            raise MalformedRow(f"{where}: {err}") from err
    return out
