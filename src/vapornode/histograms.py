"""Time-binned coincidence histograms and their CSV form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Histogram:
    """Coincidence counts on a fixed time grid.

    origin_s is the left edge of bin 0; all event times are relative to the
    trial trigger.
    """

    bin_width_s: float
    counts: np.ndarray
    origin_s: float
    duration_accumulated_s: float = 0.0
    n_trials: int = 0

    def __post_init__(self):
        raw = np.asarray(self.counts)
        integral = raw.dtype.kind in "iub" or (
            raw.dtype.kind == "f" and np.isfinite(raw).all()
            and (raw == np.rint(raw)).all()
        )
        if not integral:
            raise ValueError("histogram counts must be integers")
        counts = raw.astype(np.int64)
        if (counts < 0).any():
            raise ValueError("histogram counts must be non-negative")
        if self.bin_width_s <= 0:
            raise ValueError("bin_width must be > 0")
        self.counts = counts

    @property
    def bin_edges_s(self) -> np.ndarray:
        return self.origin_s + self.bin_width_s * np.arange(self.counts.size + 1)

    @property
    def span_s(self) -> tuple:
        return (self.origin_s, self.origin_s + self.bin_width_s * self.counts.size)

    def total(self) -> int:
        return int(self.counts.sum())

    def add(self, other: "Histogram") -> "Histogram":
        """In-place merge; commutative in the counts."""
        if (
            other.bin_width_s != self.bin_width_s
            or other.origin_s != self.origin_s
            or other.counts.size != self.counts.size
        ):
            raise ValueError("histogram grids do not match")
        self.counts += other.counts
        self.duration_accumulated_s += other.duration_accumulated_s
        self.n_trials += other.n_trials
        return self

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("bin_start_ns,counts\n")
            for i, c in enumerate(self.counts):
                start_ns = (self.origin_s + i * self.bin_width_s) * 1e9
                f.write(f"{start_ns:.4f},{int(c)}\n")

    @classmethod
    def from_csv(cls, path, duration_accumulated_s=0.0, n_trials=0) -> "Histogram":
        starts, counts = [], []
        with open(path) as f:
            next(f)
            for line in f:
                a, b = line.strip().split(",")
                starts.append(float(a))
                counts.append(int(b))
        if len(starts) < 2:
            raise ValueError(
                f"{path}: need at least two bins to recover the bin width, "
                f"found {len(starts)}"
            )
        starts = np.asarray(starts) * 1e-9
        width = float(starts[1] - starts[0])
        return cls(width, np.asarray(counts), float(starts[0]),
                   duration_accumulated_s, n_trials)
