"""Experimental wall-clock accounting for schedule grids.

Each population point at grid time index g costs R repeated runs; every run
pays the fixed overhead (cooling + state preparation + measurement) plus the
operation time of the schedule truncated at that grid point.  Totals therefore
use the same per-step duration accounting as the schedule itself.

The priced points g = 1 .. P sit at steps S/P .. S, while an ion trace reads
steps 0 .. S(P-1)/P (``pulses.step_grid``): toy N=2, lambda 1, R=100, S=600,
P=40 prices ``operation_s`` at 10.25 s, against 9.75 s over ``step_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModelError
from .exact import default_time_grid
from .model import build_toy_model
from .pulses import HardwareParams, build_schedule, running_times_us, step_grid
from .units import US_PER_S


@dataclass(frozen=True)
class ExperimentPlan:
    """Toy-model parameter grid plus measurement counts."""

    lambdas: tuple = (1.0, 5.0, 10.0, 20.0, 30.0)
    mode_counts: tuple = (2,)
    runs_per_point: int = 100
    time_points: int = 40
    tau_fs: float = 400.0
    trotter_steps: int = 600
    hardware: HardwareParams = field(default_factory=HardwareParams)

    def __post_init__(self):
        if not self.lambdas or not self.mode_counts:
            raise InvalidModelError("experiment grid is empty", key="modes_list" if self.lambdas else "lambdas")
        for key in ("time_points", "trotter_steps", "runs_per_point"):
            if getattr(self, key) < 1:
                raise InvalidModelError(f"must be at least 1, got {getattr(self, key)}", key=key)
        default_time_grid(self.tau_fs, self.time_points)  # checks tau_fs
        step_grid(self.trotter_steps, self.time_points)  # checks trotter_steps against the grid


@dataclass(frozen=True)
class CostRow:
    lambda_over_delta: float
    n_modes: int
    runs_per_point: int
    total_s: float
    overhead_s: float
    operation_s: float
    longest_run_operation_ms: float


def _operation_times_us(spec, plan: ExperimentPlan) -> list:
    """Operation time (us) before each step boundary 0 .. S, as ``PulseSchedule.operation_times_us``."""
    steps = plan.trotter_steps
    # One lowered step stands for all S.  pulses._Lowerer reads the coupling
    # tables once per schedule; a toy model (two states, dense encoding, no
    # drive) lowers every step from the same entries and step length, so the
    # durations are bit-identical and only the midpoint phases move.  A drive
    # or a one-hot model would break this, and the estimator builds neither.
    one_step = build_schedule(spec, plan.tau_fs / steps, 1, plan.hardware)
    return running_times_us([[p.duration_us for p in one_step.ops]] * steps)


def experimental_time(plan: ExperimentPlan) -> list:
    """Cost table over the (lambda, N) grid, one row per point."""
    stride = plan.trotter_steps // plan.time_points
    runs = plan.runs_per_point
    overhead_us = plan.hardware.overhead_per_run_us() * runs * plan.time_points
    rows = []
    for n in plan.mode_counts:
        for lam in plan.lambdas:
            times = _operation_times_us(build_toy_model(n, lam), plan)
            operation_us = 0.0
            for g in range(1, plan.time_points + 1):
                operation_us += runs * times[g * stride]
            total_us = overhead_us + operation_us
            rows.append(
                CostRow(
                    lam,
                    n,
                    runs,
                    total_us / US_PER_S,
                    overhead_us / US_PER_S,
                    operation_us / US_PER_S,
                    times[-1] / 1e3,
                )
            )
    return rows


def overhead_baseline_s(plan: ExperimentPlan) -> float:
    """Cooling + preparation + measurement only (the no-evolution floor)."""
    return (
        plan.hardware.overhead_per_run_us()
        * plan.runs_per_point
        * plan.time_points
        / US_PER_S
    )


def rows_to_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda_over_delta,N,R,total_s,overhead_s,operation_s\n")
        for r in rows:
            fh.write(
                f"{r.lambda_over_delta!r},{r.n_modes},{r.runs_per_point},"
                f"{r.total_s!r},{r.overhead_s!r},{r.operation_s!r}\n"
            )


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    residuals: tuple
    max_residual_fraction: float


def scaling_fit(rows, n_modes: int | None = None) -> ScalingFit:
    """Least-squares fit of the operation-time component against sqrt(lambda ratio).

    Needs at least three lambda values at one mode count; the residual is
    reported as a fraction of the fitted quantity's range.
    """
    if n_modes is None:
        counts = {r.n_modes for r in rows}
        if len(counts) != 1:
            raise InvalidModelError("specify n_modes when the table mixes mode counts")
        n_modes = counts.pop()
    pts = [(r.lambda_over_delta, r.operation_s) for r in rows if r.n_modes == n_modes]
    if len(pts) < 3:
        raise InvalidModelError("need at least three lambda values for a scaling fit")
    x = np.sqrt([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.ptp(x) == 0:
        raise InvalidModelError("degenerate grid: all lambda values equal")
    slope, intercept = np.polyfit(x, y, 1)
    res = y - (slope * x + intercept)
    span = float(np.ptp(y)) or 1.0
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        residuals=tuple(float(v) for v in res),
        max_residual_fraction=float(np.max(np.abs(res)) / span),
    )
