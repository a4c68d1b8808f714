"""Sliding-window dataset construction and class balancing.

Windows are kept as (sequence, start) references and materialized on demand,
so six-figure window counts stay cheap in memory. Each window's label is the
label of its last row: recognizing the window means acting at its final
instant.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .curves import ForceSequence

__all__ = [
    "WindowDataset",
    "window_dataset",
    "balance_dataset",
    "save_sequence_csv",
    "load_sequence_csv",
]

logger = logging.getLogger(__name__)

SEQUENCE_CSV_HEADER = ["t", "Fx", "Fy", "Fz", "Tx", "Ty", "Tz", "label"]


@dataclass(frozen=True)
class WindowDataset:
    """Lazy list of (window, label) samples sliced out of stored sequences."""

    sequences: tuple[ForceSequence, ...]
    refs: np.ndarray      # (count, 2) rows of (sequence index, start row)
    labels: np.ndarray    # (count,) label of each window's last row
    window: int

    def __len__(self) -> int:
        return len(self.refs)

    def gather(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Materialize a batch: (len(indices), window, 6) plus labels."""
        out = np.empty((len(indices), self.window, 6))
        for row, idx in enumerate(indices):
            seq_idx, start = self.refs[idx]
            out[row] = self.sequences[seq_idx].wrench[start : start + self.window]
        return out, self.labels[list(indices)]

    def subset(self, indices: np.ndarray) -> "WindowDataset":
        indices = np.asarray(indices, dtype=int)
        return WindowDataset(
            sequences=self.sequences,
            refs=self.refs[indices],
            labels=self.labels[indices],
            window=self.window,
        )

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=2)


def window_dataset(
    sequences: Iterable[ForceSequence],
    window: int = 500,
    stride: int = 10,
) -> WindowDataset:
    """Slide a window over each sequence; label each sample by its last row.

    A sequence of length L yields floor((L - window) / stride) + 1 samples;
    sequences shorter than the window are skipped with a warning.
    """
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    kept: list[ForceSequence] = []
    refs: list[tuple[int, int]] = []
    labels: list[int] = []
    for seq in sequences:
        length = len(seq)
        if length < window:
            logger.warning("skipping sequence of length %d (< window %d)", length, window)
            continue
        seq_idx = len(kept)
        kept.append(seq)
        for start in range(0, length - window + 1, stride):
            refs.append((seq_idx, start))
            labels.append(int(seq.labels[start + window - 1]))
    return WindowDataset(
        sequences=tuple(kept),
        refs=np.asarray(refs, dtype=int).reshape(-1, 2),
        labels=np.asarray(labels, dtype=np.int8),
        window=window,
    )


def balance_dataset(
    samples: WindowDataset,
    strategy: str,
    seed: int = 0,
) -> tuple[WindowDataset, np.ndarray]:
    """Balance the two classes; returns (dataset, per-class loss weights).

    oversample / undersample resample indices to equal class counts (weights
    stay 1). weighted-loss keeps the samples and returns weights inversely
    proportional to class frequency, normalized so the expected sample weight
    is 1.
    """
    counts = samples.class_counts()
    if np.any(counts == 0):
        raise ValueError(f"both classes must be present, got counts {counts.tolist()}")
    rng = np.random.default_rng(seed)
    idx_by_class = [np.flatnonzero(samples.labels == c) for c in (0, 1)]

    if strategy == "weighted-loss":
        total = counts.sum()
        weights = total / (2.0 * counts.astype(float))
        return samples, weights
    if strategy == "oversample":
        target = int(counts.max())
        picked = [
            idx if len(idx) == target else np.concatenate([idx, rng.choice(idx, target - len(idx), replace=True)])
            for idx in idx_by_class
        ]
    elif strategy == "undersample":
        target = int(counts.min())
        picked = [
            idx if len(idx) == target else rng.choice(idx, target, replace=False)
            for idx in idx_by_class
        ]
    else:
        raise ValueError(f"unknown balancing strategy: {strategy!r}")
    merged = np.sort(np.concatenate(picked))
    return samples.subset(merged), np.ones(2)


def save_sequence_csv(seq: ForceSequence, path: str | Path) -> None:
    """Write one sequence as CSV rows (t, Fx..Tz, label)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SEQUENCE_CSV_HEADER)
        for k in range(len(seq)):
            row = [f"{seq.times[k]:.9g}"] + [f"{v:.9g}" for v in seq.wrench[k]]
            row.append(str(int(seq.labels[k])))
            writer.writerow(row)


def load_sequence_csv(path: str | Path) -> ForceSequence:
    """Read a sequence written by save_sequence_csv (ground truth not stored)."""
    times, wrench, labels = [], [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SEQUENCE_CSV_HEADER:
            raise ValueError(f"unexpected sequence CSV header in {path}: {header}")
        for row in reader:
            times.append(float(row[0]))
            wrench.append([float(v) for v in row[1:7]])
            labels.append(int(row[7]))
    return ForceSequence(
        times=np.asarray(times),
        wrench=np.asarray(wrench),
        labels=np.asarray(labels, dtype=np.int8),
    )
