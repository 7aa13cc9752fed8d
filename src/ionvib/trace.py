"""Population time series and their CSV form.

The trace CSV is the exchange format between backends, the CLI and the
comparison tooling.  Column layout:

    time_fs,P_0,...,P_{M-1},leakage[,stderr_i...][,P_i_sampled,P_i_sigma...]

All values are written with full double precision (shortest round-trip
representation), so re-reading a file reproduces the numbers bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IonvibError


@dataclass
class PopulationTrace:
    """Electronic-state populations on a time grid, with optional uncertainty columns."""

    times_fs: np.ndarray
    populations: np.ndarray  # shape (T, M)
    leakage: np.ndarray | None = None  # shape (T,)
    stderr: np.ndarray | None = None  # shape (T, M)
    sampled: np.ndarray | None = None  # shape (T, M)
    sigma: np.ndarray | None = None  # shape (T, M)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times_fs = np.asarray(self.times_fs, dtype=float)
        self.populations = np.asarray(self.populations, dtype=float)
        if self.populations.shape[0] != self.times_fs.shape[0]:
            raise IonvibError("population rows do not match the time grid")
        if self.leakage is None:
            self.leakage = np.zeros_like(self.times_fs)
        else:
            self.leakage = np.asarray(self.leakage, dtype=float)

    @property
    def state_count(self) -> int:
        return self.populations.shape[1]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.header_line() + "\n")
            for row in self.rows():
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def header_line(self) -> str:
        m = self.state_count
        cols = ["time_fs"] + [f"P_{i}" for i in range(m)] + ["leakage"]
        if self.stderr is not None:
            cols += [f"stderr_{i}" for i in range(m)]
        if self.sampled is not None:
            for i in range(m):
                cols += [f"P_{i}_sampled", f"P_{i}_sigma"]
        return ",".join(cols)

    def rows(self):
        for t in range(len(self.times_fs)):
            row = [self.times_fs[t], *self.populations[t], self.leakage[t]]
            if self.stderr is not None:
                row.extend(self.stderr[t])
            if self.sampled is not None:
                for i in range(self.state_count):
                    row.append(self.sampled[t, i])
                    row.append(self.sigma[t, i])
            yield row


def read_csv(path) -> PopulationTrace:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    except OSError as exc:
        raise IonvibError(f"cannot read trace file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise IonvibError(f"trace file {path} has a non-numeric value: {exc}") from exc
    if not data:
        raise IonvibError(f"trace file {path} has no rows")
    arr = np.asarray(data)
    if arr.shape[1] != len(header):
        raise IonvibError(f"trace file {path} has inconsistent columns")
    pop_cols = [i for i, h in enumerate(header) if h.startswith("P_") and h.count("_") == 1]
    m = len(pop_cols)
    cols = {h: arr[:, i] for i, h in enumerate(header)}
    trace = PopulationTrace(
        times_fs=cols["time_fs"],
        populations=arr[:, pop_cols],
        leakage=cols.get("leakage"),
    )
    if "stderr_0" in cols:
        trace.stderr = np.column_stack([cols[f"stderr_{i}"] for i in range(m)])
    if "P_0_sampled" in cols:
        trace.sampled = np.column_stack([cols[f"P_{i}_sampled"] for i in range(m)])
        trace.sigma = np.column_stack([cols[f"P_{i}_sigma"] for i in range(m)])
    return trace


def compare_traces(a: PopulationTrace, b: PopulationTrace) -> dict:
    """Per-state maximum and time-integrated absolute deviation between two traces."""
    if a.times_fs.shape != b.times_fs.shape or not np.allclose(
        a.times_fs, b.times_fs, rtol=0, atol=1e-9
    ):
        raise IonvibError("traces are on different time grids")
    if a.state_count != b.state_count:
        raise IonvibError("traces have different state counts")
    diff = np.abs(a.populations - b.populations)
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    integrated = trapezoid(diff, a.times_fs, axis=0)
    return {
        "max_abs": diff.max(axis=0),
        "integrated_abs": integrated,
        "max_abs_overall": float(diff.max()),
    }
