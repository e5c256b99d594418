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

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("bin_start_ns,counts\n")
            for i, c in enumerate(self.counts):
                start_ns = (self.origin_s + i * self.bin_width_s) * 1e9
                f.write(f"{start_ns:.4f},{int(c)}\n")

