import pytest

from ionvib import model
from ionvib.errors import InvalidModelError
from ionvib.estimator import (
    CostRow,
    ExperimentPlan,
    experimental_time,
    overhead_baseline_s,
    rows_to_csv,
    scaling_fit,
)
from ionvib.pulses import HardwareParams, build_schedule, default_duration_calibration


def floorless_hardware():
    cal = {n: (c, 0.0) for n, (c, _) in default_duration_calibration().items()}
    return HardwareParams(duration_calibration=cal)


class TestExperimentalTime:
    def test_overhead_baseline(self):
        plan = ExperimentPlan(lambdas=(1.0,), mode_counts=(2,), runs_per_point=100, time_points=40)
        assert overhead_baseline_s(plan) == pytest.approx(17.0, rel=1e-12)

    def test_longest_run_operation_times(self):
        rows = experimental_time(ExperimentPlan(lambdas=(1.0,), mode_counts=(2,)))
        assert rows[0].longest_run_operation_ms == pytest.approx(5.0, rel=0.25)
        rows = experimental_time(ExperimentPlan(lambdas=(30.0,), mode_counts=(5,)))
        assert rows[0].longest_run_operation_ms == pytest.approx(57.0, rel=0.25)

    def test_linear_in_runs(self):
        base = ExperimentPlan(lambdas=(5.0,), mode_counts=(2,), runs_per_point=100)
        double = ExperimentPlan(lambdas=(5.0,), mode_counts=(2,), runs_per_point=200)
        a = experimental_time(base)[0]
        b = experimental_time(double)[0]
        assert b.total_s == pytest.approx(2 * a.total_s, rel=1e-12)

    def test_monotone_in_grid_knobs(self):
        plan = ExperimentPlan(lambdas=(1.0, 5.0, 10.0, 20.0, 30.0), mode_counts=(2, 3, 4, 5))
        rows = experimental_time(plan)
        by_key = {(r.lambda_over_delta, r.n_modes): r.total_s for r in rows}
        for n in (2, 3, 4, 5):
            totals = [by_key[(lam, n)] for lam in (1.0, 5.0, 10.0, 20.0, 30.0)]
            assert all(a <= b for a, b in zip(totals, totals[1:]))
        for lam in (1.0, 30.0):
            totals = [by_key[(lam, n)] for n in (2, 3, 4, 5)]
            assert all(a <= b for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize(
        "plan",
        [
            ExperimentPlan(lambdas=(1.0, 5.0, 10.0, 20.0, 30.0), mode_counts=(2, 3, 4, 5)),
            ExperimentPlan(lambdas=(0.0, 5.0), mode_counts=(1, 2), trotter_steps=7, time_points=7),
            ExperimentPlan(lambdas=(1.0, 4.0), mode_counts=(2, 3), runs_per_point=3, tau_fs=250.0),
            ExperimentPlan(lambdas=(0.0, 1.0, 30.0), mode_counts=(2,), hardware=floorless_hardware()),
        ],
        ids=["paper-grid", "lambda0-n1-s7", "tau250", "floorless"],
    )
    def test_rows_equal_full_schedule_accounting(self, plan):
        # oracle: every Trotter step compiled, then the schedule's own prefix times
        expected = []
        for n in plan.mode_counts:
            for lam in plan.lambdas:
                spec = model.build_toy_model(n, lam)
                times = build_schedule(spec, plan.tau_fs, plan.trotter_steps, plan.hardware).operation_times_us()
                stride = plan.trotter_steps // plan.time_points
                runs = plan.runs_per_point
                overhead_us = plan.hardware.overhead_per_run_us() * runs * plan.time_points
                operation_us = 0.0
                for g in range(1, plan.time_points + 1):
                    operation_us += runs * times[g * stride]
                expected.append(
                    CostRow(
                        lam, n, runs, (overhead_us + operation_us) / 1e6, overhead_us / 1e6,
                        operation_us / 1e6, times[plan.trotter_steps] / 1e3,
                    )
                )
        rows = experimental_time(plan)
        assert rows == expected
        assert all(type(v) is float for r in rows for v in (r.total_s, r.operation_s, r.longest_run_operation_ms))

    def test_prices_one_lowered_step_per_point(self, monkeypatch):
        from ionvib import estimator

        steps = []

        def spy(spec, tau_fs, n_steps, *args, **kwargs):
            steps.append(n_steps)
            return build_schedule(spec, tau_fs, n_steps, *args, **kwargs)

        monkeypatch.setattr(estimator, "build_schedule", spy)
        experimental_time(ExperimentPlan(lambdas=(1.0, 30.0), mode_counts=(2, 5)))
        assert steps == [1, 1, 1, 1]

    def test_grid_validation(self):
        with pytest.raises(InvalidModelError):
            ExperimentPlan(lambdas=(), mode_counts=(2,))
        with pytest.raises(InvalidModelError):
            ExperimentPlan(trotter_steps=601, time_points=40)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("time_points", 0),
            ("trotter_steps", 0),
            ("runs_per_point", 0),
            ("tau_fs", float("nan")),
            ("tau_fs", float("inf")),
            ("tau_fs", 0.0),
        ],
        ids=["time-points-0", "trotter-steps-0", "runs-0", "tau-nan", "tau-inf", "tau-0"],
    )
    def test_bad_plan_value_names_its_key(self, key, value):
        with pytest.raises(InvalidModelError) as info:
            ExperimentPlan(**{key: value})
        assert info.value.key == key


class TestScalingFit:
    def test_reference_grid_is_nearly_linear(self):
        plan = ExperimentPlan(lambdas=(1.0, 5.0, 10.0, 20.0, 30.0), mode_counts=(2,))
        fit = scaling_fit(experimental_time(plan))
        assert fit.max_residual_fraction < 0.10
        assert fit.slope > 0

    def test_constant_table_gives_zero_slope(self):
        rows = [CostRow(lam, 2, 100, 20.0, 17.0, 3.0, 5.0) for lam in (1.0, 4.0, 9.0)]
        fit = scaling_fit(rows)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.max_residual_fraction == pytest.approx(0.0, abs=1e-12)

    def test_coupling_proportionality_above_floor(self):
        plan = ExperimentPlan(
            lambdas=(1.0, 4.0), mode_counts=(2,), hardware=floorless_hardware()
        )
        rows = experimental_time(plan)
        assert rows[1].operation_s == pytest.approx(2 * rows[0].operation_s, rel=1e-9)

    def test_needs_three_points(self):
        rows = [CostRow(1.0, 2, 100, 20.0, 17.0, 3.0, 5.0), CostRow(4.0, 2, 100, 23.0, 17.0, 6.0, 10.0)]
        with pytest.raises(InvalidModelError):
            scaling_fit(rows)

    def test_degenerate_grid(self):
        rows = [CostRow(2.0, 2, 100, 20.0, 17.0, 3.0, 5.0) for _ in range(3)]
        with pytest.raises(InvalidModelError):
            scaling_fit(rows)


def test_csv_format(tmp_path):
    rows = experimental_time(ExperimentPlan(lambdas=(1.0, 30.0), mode_counts=(2,)))
    path = tmp_path / "est.csv"
    rows_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda_over_delta,N,R,total_s,overhead_s,operation_s"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and int(first[1]) == 2 and int(first[2]) == 100
