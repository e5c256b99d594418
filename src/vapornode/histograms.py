"""Time-binned coincidence histograms, and the CSV writer that every output
table goes through."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def write_csv(path, header: str, specs: tuple, rows) -> None:
    """Write the header line, then each row with every value formatted by
    its column's format spec.  A non-finite number raises ValueError naming
    the file and the column, before the file or its directory is created,
    so no table holds nan or inf."""
    columns = header.split(",")
    lines = [header]
    for row in rows:
        for column, value in zip(columns, row):
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(
                    f"{Path(path).name}: {column} is not finite ({value})"
                )
        lines.append(",".join(map(format, row, specs)))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
        write_csv(path, "bin_start_ns,counts", (".4f", ""), (
            ((self.origin_s + i * self.bin_width_s) * 1e9, c)
            for i, c in enumerate(self.counts.tolist())
        ))

