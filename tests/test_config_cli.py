import configparser
import re

import numpy as np
import pytest

from ionvib import config as cfg
from ionvib import hilbert as hb
from ionvib import model
from ionvib.cli import main
from ionvib.errors import ConfigError
from ionvib.pulses import HardwareParams
from ionvib.trace import read_csv


class TestModelFiles:
    def test_custom_spec_round_trips_bit_exact(self, tmp_path):
        spec = model.build_vaet_model(
            0.0, 0.0213, 0.0147, 0.0101, 0.0123, -0.0087, 0.0152, (0.0511, 0.0602, 0.0703)
        )
        path = tmp_path / "model.ini"
        cfg.save_model(spec, path)
        back = cfg.load_model(path)
        assert np.array_equal(back.delta, spec.delta)
        assert np.array_equal(back.kappa, spec.kappa)
        assert np.array_equal(back.nu, spec.nu)
        assert back == spec

    def test_driven_spec_round_trips(self, tmp_path):
        spec = model.build_plet_model(
            (0.0, 2.0, 2.02, 1.98),
            (0.012, 0.0),
            (0.0, 0.012),
            0.01,
            0.01,
            (1 / np.sqrt(2), 1j / np.sqrt(2)),
            2.0,
            model.Envelope("gaussian", amplitude=0.7, center_fs=50.0, width_fs=20.0),
        )
        path = tmp_path / "driven.ini"
        cfg.save_model(spec, path)
        back = cfg.load_model(path)
        assert back == spec

    def test_preset_sections(self):
        spec = cfg.spec_from_sections(
            {"model": {"preset": "toy", "modes": "2", "lambda_over_delta": "5.0"}}
        )
        assert spec == model.build_toy_model(2, 5.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            cfg.spec_from_sections({"model": {"preset": "nope"}})


class TestHardwareFiles:
    def test_round_trip(self, tmp_path):
        hw = HardwareParams(motional_coherence_ms=50.0, heating_rate_quanta_per_s=2.5)
        path = tmp_path / "hw.ini"
        parser_sections = cfg.hardware_to_sections(hw)
        import configparser

        p = configparser.ConfigParser()
        p.optionxform = str
        for name, kv in parser_sections.items():
            p[name] = kv
        with open(path, "w") as fh:
            p.write(fh)
        back = cfg.load_hardware(path)
        assert back.motional_coherence_ms == 50.0
        assert back.heating_rate_quanta_per_s == 2.5
        assert back.duration_calibration == hw.duration_calibration

    def test_table_defaults(self):
        hw = HardwareParams()
        assert hw.motional_coherence_ms == 36.0
        assert hw.heating_rate_quanta_per_s == 5.0
        assert hw.laser_coherence_ms == 496.0
        assert hw.overhead_per_run_us() == pytest.approx(4250.0)


class TestCli:
    def test_run_exact_and_row_count(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(
            [
                "run", "--preset", "toy", "--lambda-over-delta", "5", "--modes", "2",
                "--backend", "exact", "--cutoffs", "8,8", "--output", str(out),
            ]
        )
        assert rc == 0
        trace = read_csv(out)
        assert len(trace.times_fs) == 40
        assert np.max(np.abs(trace.populations.sum(axis=1) - 1.0)) < 1e-9

    def test_estimate_backend(self, tmp_path):
        out = tmp_path / "est.csv"
        rc = main(
            [
                "estimate", "--lambdas", "30", "--modes-list", "5", "--runs", "100",
                "--output", str(out),
            ]
        )
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        total_s, overhead_s, operation_s = float(row[3]), float(row[4]), float(row[5])
        assert overhead_s == pytest.approx(17.0)
        # longest-run operation time ~57 ms appears in the summed operation column
        assert operation_s > 0

    def test_compile_backend(self, tmp_path):
        out = tmp_path / "sched.txt"
        rc = main(
            [
                "compile", "--preset", "toy", "--lambda-over-delta", "1", "--modes", "2",
                "--steps", "4", "--output", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# ionvib pulse schedule v1")
        assert sum(1 for ln in text.splitlines() if not ln.startswith("#")) == 8

    def test_compare_identical_and_shifted(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        main(
            [
                "run", "--preset", "toy", "--lambda-over-delta", "1", "--modes", "2",
                "--backend", "exact", "--cutoffs", "6,6", "--grid-points", "8",
                "--output", str(out),
            ]
        )
        rc = main(["compare", str(out), str(out)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "overall max |dP| = 0" in report
        # shifted by a constant
        trace = read_csv(out)
        trace.populations = trace.populations + 0.25
        shifted = tmp_path / "b.csv"
        trace.to_csv(shifted)
        main(["compare", str(out), str(shifted), "--flag-threshold", "0.1"])
        report = capsys.readouterr().out
        assert "0.25" in report
        assert "FLAG" in report

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nbackend = warp-drive\n[model]\npreset = toy\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_infeasible_schedule_exit_code(self, tmp_path):
        # a strong one-hot ms pulse above the duration floor needs a sideband
        # Rabi rate beyond the table ceiling
        delta = np.zeros((3, 3), complex)
        delta[0, 1] = delta[1, 0] = 0.02
        spec3 = model.LvcmSpec(delta, np.zeros((3, 3, 1)), [0.1])
        mf = tmp_path / "m.ini"
        cfg.save_model(spec3, mf)
        rc = main(
            [
                "compile", "--model-file", str(mf), "--steps", "50",
                "--output", str(tmp_path / "s.txt"),
            ]
        )
        assert rc == 4

    def test_grid_misaligned_with_steps(self, tmp_path):
        rc = main(
            [
                "run", "--preset", "toy", "--backend", "ion-ideal", "--steps", "30",
                "--grid-points", "40", "--cutoffs", "4,4",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2


class TestReproducibility:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "exact", "--cutoffs", "6,6"],
            ["--backend", "exact"],  # adaptive cutoffs recorded in the sidecar
            ["--backend", "ehrenfest", "--trajectories", "6"],
            ["--backend", "ion-ideal", "--steps", "16", "--cutoffs", "6,6", "--grid-points", "8"],
            [
                "--backend", "ion-noisy", "--steps", "16", "--cutoffs", "6,6",
                "--grid-points", "8", "--runs", "25",
            ],
        ],
        ids=["exact-fixed", "exact-adaptive", "ehrenfest", "ion-ideal", "ion-noisy"],
    )
    def test_sidecar_reproduces_bit_identical_output(self, tmp_path, flags):
        out = tmp_path / "first.csv"
        rc = main(
            [
                "run", "--preset", "toy", "--lambda-over-delta", "1", "--modes", "2",
                "--seed", "77", "--output", str(out), *flags,
            ]
        )
        assert rc == 0
        original = out.read_bytes()
        replay = tmp_path / "replay.csv"
        sidecar = cfg.load_run_config(str(out) + ".meta.ini")
        sidecar.sections["run"]["output"] = str(replay)
        from ionvib.cli import execute_run

        execute_run(sidecar)
        assert replay.read_bytes() == original


def test_estimate_sidecar_reports_per_run_operation_time(tmp_path):
    out = tmp_path / "est.csv"
    rc = main(
        ["estimate", "--lambdas", "30", "--modes-list", "5", "--runs", "100", "--output", str(out)]
    )
    assert rc == 0
    sidecar = (tmp_path / "est.csv.meta.ini").read_text()
    assert "lambda=30 N=5: 57.000" in sidecar


def test_cli_ideal_backend_tracks_exact(tmp_path):
    common = ["--preset", "toy", "--lambda-over-delta", "1", "--modes", "2", "--grid-points", "8"]
    exact_out = tmp_path / "exact.csv"
    ion_out = tmp_path / "ion.csv"
    assert main(["run", *common, "--backend", "exact", "--cutoffs", "8,8", "--output", str(exact_out)]) == 0
    assert (
        main(
            [
                "run", *common, "--backend", "ion-ideal", "--steps", "200",
                "--cutoffs", "8,8", "--output", str(ion_out),
            ]
        )
        == 0
    )
    from ionvib.trace import compare_traces

    report = compare_traces(read_csv(exact_out), read_csv(ion_out))
    assert report["max_abs_overall"] <= 0.01


def test_sweep_writes_grid_outputs(tmp_path):
    rc = main(
        [
            "sweep", "--backend", "exact", "--cutoffs", "6,6", "--grid-points", "8",
            "--sweep-lambdas", "1,5", "--sweep-modes", "2",
            "--output-dir", str(tmp_path / "grid"),
        ]
    )
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "grid").iterdir())
    assert names == [
        "trace_lam1_N2.csv",
        "trace_lam1_N2.csv.meta.ini",
        "trace_lam5_N2.csv",
        "trace_lam5_N2.csv.meta.ini",
    ]


def test_sweep_validates_every_point_before_the_first_run(tmp_path, capsys):
    args = ["sweep", "--backend", "exact", "--cutoffs", "4,4", "--grid-points", "4", "--sweep-lambdas", "1,nan"]
    assert main([*args, "--output-dir", str(tmp_path / "grid")]) == 2
    assert "(key: lambda_over_delta)" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_compare_grid_mismatch_errors(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("time_fs,P_0,P_1,leakage\n0.0,1.0,0.0,0.0\n10.0,0.9,0.1,0.0\n")
    b.write_text("time_fs,P_0,P_1,leakage\n0.0,1.0,0.0,0.0\n20.0,0.9,0.1,0.0\n")
    assert main(["compare", str(a), str(b)]) == 1


def test_custom_model_missing_key_exits_2(tmp_path, capsys):
    # no preset and no model file: the custom preset lacks its required keys
    rc = main(
        [
            "run", "--backend", "exact", "--lambda-over-delta", "1", "--modes", "2",
            "--output", str(tmp_path / "a.csv"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "states" in err


def test_compare_missing_file_errors(tmp_path, capsys):
    b = tmp_path / "b.csv"
    b.write_text("time_fs,P_0,P_1,leakage\n0.0,1.0,0.0,0.0\n")
    assert main(["compare", str(tmp_path / "missing.csv"), str(b)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_compare_non_numeric_cell_errors(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("time_fs,P_0,P_1,leakage\n0.0,1.0,zero,0.0\n")
    assert main(["compare", str(a), str(a)]) == 1
    assert capsys.readouterr().err.startswith("error:")


EHRENFEST_RUN = ["run", "--config", "{ini}", "--backend", "ehrenfest", "--trajectories", "2", "--grid-points", "4"]
EXACT_RUN = ["run", "--config", "{ini}", "--backend", "exact", "--grid-points", "4"]
TOY_EXACT_RUN = ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "4,4", "--grid-points", "4"]
NOISY_HW_RUN = ["run", "--preset", "toy", "--backend", "ion-noisy", "--steps", "4", "--cutoffs", "4,4"]
NOISY_HW_RUN += ["--grid-points", "4", "--hardware", "{ini}"]
ION_RUN = ["run", "--preset", "toy", "--steps", "40", "--grid-points", "4", "--cutoffs", "6,6"]


@pytest.mark.parametrize(
    "ini,args,key",
    [
        (None, ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "a,b"], "cutoffs"),
        ("[model]\nstates = two\nmodes = 0\n", ["run", "--model-file", "{ini}", "--backend", "exact"], "states"),
        ("[run]\ntau_fs = abc\n[model]\npreset = toy\n", ["run", "--config", "{ini}"], "tau_fs"),
        (
            "[hardware]\ncarrier_rabi_khz = fast\n",
            ["compile", "--preset", "toy", "--steps", "4", "--hardware", "{ini}"],
            "carrier_rabi_khz",
        ),
        (None, ["sweep", "--backend", "exact", "--cutoffs", "4,4", "--sweep-lambdas", "x"], "sweep_lambdas"),
        (None, ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "4,4", "--grid-points", "0"], "grid_points"),
        (None, ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "4,4", "--grid-points", "-5"], "grid_points"),
        (
            None,
            ["run", "--preset", "toy", "--backend", "ehrenfest", "--trajectories", "2", "--grid-points", "0"],
            "grid_points",
        ),
        (
            None,
            ["run", "--preset", "toy", "--backend", "ion-ideal", "--steps", "4", "--cutoffs", "4,4", "--grid-points", "0"],
            "grid_points",
        ),
        ("[run]\nbackend = estimate\n[estimate]\ntime_points = 0\n", ["run", "--config", "{ini}"], "time_points"),
        (
            "[hardware]\nsideband_rabi_khz = 1.47\n",
            ["compile", "--preset", "toy", "--steps", "4", "--hardware", "{ini}"],
            "sideband_rabi_khz",
        ),
        (
            "[hardware]\nduration_slope_us_per_rad = 2\n",
            ["compile", "--preset", "toy", "--steps", "4", "--hardware", "{ini}"],
            "duration_slope_us_per_rad",
        ),
        (
            "[model]\nstates = 2\nmodes = 0\ndelta_ev = 0 0.01 0.01\n",
            ["run", "--model-file", "{ini}", "--backend", "exact"],
            "delta_ev",
        ),
        (
            "[model]\nstates = 2\nmodes = 1\ndelta_ev = 0 0.01 0.01 0\nkappa_ev = 0.01 0 0\n[modes]\nnu_ev = 0.05\n",
            ["run", "--model-file", "{ini}", "--backend", "exact"],
            "kappa_ev",
        ),
        (
            "[model]\nstates = 2\nmodes = 1\ndelta_ev = 0 0.01 0.01 0\nkappa_ev = 0.01 0 0 -0.01\n"
            "[modes]\nnu_ev = 0.05 0.06\n",
            ["run", "--model-file", "{ini}", "--backend", "exact"],
            "nu_ev",
        ),
        (
            "[model]\nstates = 2\nmodes = 0\ndelta_ev = 0 0.01 0.01 0\n"
            "[drive]\ntransitions = 0\ndipoles = 1,0\npolarization = 1 1j\ncarrier_ev = 2.0\n",
            ["run", "--model-file", "{ini}", "--backend", "exact"],
            "transitions",
        ),
        (None, ["estimate", "--lambdas", "1", "--modes-list", "2", "--runs", "0"], "runs_per_point"),
        (
            None,
            ["run", "--preset", "toy", "--backend", "ion-noisy", "--steps", "4", "--cutoffs", "4,4", "--runs", "-1"]
            + ["--grid-points", "4"],
            "runs_per_point",
        ),
        (None, ["run", "--preset", "toy", "--backend", "ion-ideal", "--steps", "0", "--cutoffs", "4,4"], "trotter_steps"),
        (None, ["run", "--preset", "toy", "--backend", "ion-noisy", "--steps", "-4", "--cutoffs", "4,4"], "trotter_steps"),
        (None, ["compile", "--preset", "toy", "--steps", "0"], "trotter_steps"),
        (None, ["estimate", "--lambdas", "1", "--modes-list", "2", "--steps", "-40"], "trotter_steps"),
        (None, ["estimate", "--lambdas", "1", "--modes-list", "2", "--steps", "601"], "trotter_steps"),
        (None, ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "4,4", "--tau-fs", "0"], "tau_fs"),
        (None, ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "4,4", "--tau-fs", "-100"], "tau_fs"),
        (None, ["run", "--preset", "toy", "--backend", "ehrenfest", "--trajectories", "0"], "trajectories"),
        ("[model]\npreset = toy\n[ehrenfest]\ntol = 0\n", [*EHRENFEST_RUN], "tol"),
        ("[model]\npreset = toy\n[ehrenfest]\ntol = nan\n", [*EHRENFEST_RUN], "tol"),
        ("[model]\npreset = toy\n[ehrenfest]\ntol = -1e-3\n", [*EHRENFEST_RUN], "tol"),
        ("[model]\npreset = toy\n[ehrenfest]\nsampling = wigner_thermal\nnbar = -1\n", [*EHRENFEST_RUN], "nbar"),
        ("[model]\npreset = toy\n[ehrenfest]\nsampling = wigner_thermal\nnbar = nan\n", [*EHRENFEST_RUN], "nbar"),
        (None, ["run", "--preset", "toy", "--backend", "ehrenfest", "--trajectories", "2", "--nbar", "-1"], "nbar"),
        (None, ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "1,4"], "cutoffs"),
        (
            None,
            ["run", "--preset", "toy", "--backend", "ion-ideal", "--steps", "4", "--cutoffs", "4,1", "--grid-points", "4"],
            "cutoffs",
        ),
        ("[model]\npreset = toy\n[exact]\neps_cut = nan\n", [*EXACT_RUN], "eps_cut"),
        ("[model]\npreset = toy\n[exact]\neps_cut = inf\n", [*EXACT_RUN], "eps_cut"),
        ("[model]\npreset = toy\n[exact]\neps_cut = 0\n", [*EXACT_RUN], "eps_cut"),
        ("[model]\npreset = toy\n[exact]\neps_cut = -1e-4\n", [*EXACT_RUN], "eps_cut"),
        ("[model]\npreset = toy\n[exact]\nframe = interaction\neps_int = 0\n", [*EXACT_RUN], "eps_int"),
        ("[model]\npreset = toy\n[exact]\nframe = interaction\neps_int = nan\n", [*EXACT_RUN], "eps_int"),
        ("[model]\npreset = toy\n[exact]\neps_int = -1e-3\n", [*EXACT_RUN], "eps_int"),
        ("[model]\npreset = toy\n[exact]\nnbar = nan\n", [*EXACT_RUN], "nbar"),
        ("[model]\npreset = toy\n[exact]\nnbar = -1\n", [*EXACT_RUN], "nbar"),
        (None, ["run", "--preset", "toy", "--backend", "exact", "--cutoffs", "4,4", "--nbar", "-1"], "nbar"),
        ("[model]\npreset = toy\n[exact]\nframe = rotating\n", [*EXACT_RUN], "frame"),
        ("[hardware]\nmotional_coherence_ms = 0\n", [*NOISY_HW_RUN], "motional_coherence_ms"),
        ("[hardware]\nmotional_coherence_ms = -36\n", [*NOISY_HW_RUN], "motional_coherence_ms"),
        ("[hardware]\nheating_rate_quanta_per_s = nan\n", [*NOISY_HW_RUN], "heating_rate_quanta_per_s"),
        ("[hardware]\nsideband_rabi_khz = 1.47 inf\n", [*NOISY_HW_RUN], "sideband_rabi_khz"),
        (
            "[hardware]\ncarrier_rabi_khz = 0\n",
            ["compile", "--preset", "vaet", "--steps", "4", "--hardware", "{ini}"],
            "carrier_rabi_khz",
        ),
        (
            "[hardware]\ncooling_ms = -4\n",
            ["estimate", "--lambdas", "1", "--modes-list", "2", "--hardware", "{ini}"],
            "cooling_ms",
        ),
        (
            "[hardware]\nduration_slope_us_per_rad = 2:-1\n",
            ["compile", "--preset", "toy", "--steps", "4", "--hardware", "{ini}"],
            "duration_slope_us_per_rad",
        ),
        (
            "[hardware]\nduration_slope_us_per_rad = 2:1\nduration_floor_us = 2:-1\n",
            ["compile", "--preset", "toy", "--steps", "4", "--hardware", "{ini}"],
            "duration_floor_us",
        ),
        (None, ["run", "--preset", "toy", "--backend", "ehrenfest", "--trajectories", "2", "--seed", "-1"], "seed"),
        (
            None,
            ["run", "--preset", "toy", "--backend", "ion-noisy", "--steps", "4", "--cutoffs", "4,4", "--runs", "10"]
            + ["--grid-points", "4", "--seed", "-1"],
            "seed",
        ),
        (None, ["run", "--preset", "toy", "--backend", "ehrenfest", "--trajectories", "2", "--tau-fs", "inf"], "tau_fs"),
        (None, ["run", "--preset", "toy", "--backend", "ion-ideal", "--steps", "4", "--tau-fs", "inf"], "tau_fs"),
        (None, ["run", "--preset", "toy", "--backend", "exact", "--tau-fs", "inf"], "tau_fs"),
        (None, [*TOY_EXACT_RUN, "--lambda-over-delta", "nan"], "lambda_over_delta"),
        (None, [*TOY_EXACT_RUN, "--lambda-over-delta", "inf"], "lambda_over_delta"),
        (None, [*TOY_EXACT_RUN, "--lambda-over-delta", "-1"], "lambda_over_delta"),
        (None, [*TOY_EXACT_RUN, "--modes", "0"], "modes"),
        (None, ["estimate", "--lambdas", "nan,1", "--modes-list", "2"], "lambdas"),
        (None, ["estimate", "--lambdas", "1", "--modes-list", "0"], "modes_list"),
        (None, ["sweep", "--backend", "exact", "--cutoffs", "4,4", "--sweep-lambdas", "nan"], "lambda_over_delta"),
        # the emulated ions start in the motional ground state; no thermal ion state exists yet
        (None, [*ION_RUN, "--backend", "ion-ideal", "--nbar", "0.5"], "nbar"),
        (None, [*ION_RUN, "--backend", "ion-noisy", "--nbar", "0.5"], "nbar"),
        ("[model]\npreset = toy\n[ion]\nnbar = nan\n", [*ION_RUN, "--config", "{ini}", "--backend", "ion-ideal"], "nbar"),
    ],
    ids=[
        "cutoffs-text", "model-states-text", "run-tau-text", "hardware-text", "sweep-lambdas-text",
        "grid-0-exact", "grid-neg-exact", "grid-0-ehrenfest", "grid-0-ion", "estimate-time-points-0",
        "hardware-rabi-one-value", "hardware-slope-no-chain", "model-delta-count", "model-kappa-count",
        "model-nu-count", "model-transition-one-state", "estimate-runs-0", "ion-runs-neg",
        "ion-steps-0", "ion-steps-neg", "compile-steps-0", "estimate-steps-neg", "estimate-steps-not-multiple",
        "tau-0", "tau-neg", "trajectories-0", "ehrenfest-tol-0", "ehrenfest-tol-nan", "ehrenfest-tol-neg",
        "ehrenfest-nbar-neg", "ehrenfest-nbar-nan", "ehrenfest-nbar-flag-neg",
        "exact-cutoff-1", "ion-cutoff-1", "exact-eps-cut-nan", "exact-eps-cut-inf", "exact-eps-cut-0",
        "exact-eps-cut-neg", "exact-eps-int-0", "exact-eps-int-nan", "exact-eps-int-neg", "exact-nbar-nan",
        "exact-nbar-neg", "exact-nbar-flag-neg", "exact-frame-unknown", "hardware-motional-coherence-0",
        "hardware-motional-coherence-neg", "hardware-heating-nan", "hardware-sideband-rabi-inf",
        "hardware-carrier-rabi-0", "hardware-cooling-neg", "hardware-slope-neg", "hardware-floor-neg",
        "ehrenfest-seed-neg", "ion-noisy-seed-neg", "ehrenfest-tau-inf", "ion-ideal-tau-inf", "exact-tau-inf",
        "toy-lambda-nan", "toy-lambda-inf", "toy-lambda-neg", "toy-modes-0",
        "estimate-lambda-nan", "estimate-modes-0", "sweep-lambda-nan",
        "ion-ideal-nbar-flag", "ion-noisy-nbar-flag", "ion-nbar-nan",
    ],
)
def test_bad_value_exits_2_naming_key(tmp_path, capsys, ini, args, key):
    path = tmp_path / "in.ini"
    if ini is not None:
        path.write_text(ini)
    args = [str(path) if a == "{ini}" else a for a in args]
    out = ["--output-dir", str(tmp_path)] if args[0] == "sweep" else ["--output", str(tmp_path / "out.csv")]
    assert main([*args, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"(key: {key})" in err


@pytest.mark.parametrize("backend", ["ion-ideal", "ion-noisy"])
@pytest.mark.parametrize("cutoffs", ["4", "4,4,4"], ids=["too-few", "too-many"])
def test_ion_cutoff_count_must_match_modes(tmp_path, capsys, backend, cutoffs):
    args = ["run", "--preset", "toy", "--modes", "2", "--backend", backend, "--steps", "4"]
    args += ["--grid-points", "4", "--cutoffs", cutoffs, "--output", str(tmp_path / "out.csv")]
    assert main(args) == 1
    assert capsys.readouterr().err.strip() == "error: need one cutoff per mode"


@pytest.mark.parametrize("backend", ["exact", "ion-ideal", "ehrenfest"])
@pytest.mark.parametrize("initial", ["5", "-1"])
def test_initial_state_out_of_range_exits_2(tmp_path, capsys, backend, initial):
    path = tmp_path / "c.ini"
    path.write_text(f"[model]\npreset = toy\nmodes = 2\n[run]\ninitial_state = {initial}\n")
    args = ["run", "--config", str(path), "--backend", backend, "--cutoffs", "4,4", "--steps", "4"]
    args += ["--grid-points", "4", "--trajectories", "2", "--output", str(tmp_path / "out.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(key: initial_state)" in err


def test_config_file_backend_section_survives_backend_flag(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[model]\npreset = toy\nmodes = 2\n[ion]\ntrotter_steps = 8\ncutoffs = 4 4\n")
    out = tmp_path / "out.csv"
    args = ["run", "--config", str(path), "--backend", "ion-ideal", "--grid-points", "4", "--output", str(out)]
    assert main(args) == 0
    ion = cfg.load_run_config(str(out) + ".meta.ini").section("ion")
    assert (ion["trotter_steps"], ion["cutoffs"]) == ("8", "4 4")


@pytest.mark.parametrize(
    "backend,key",
    [
        ("ion-ideal", "physical_rotations"),
        ("ion-noisy", "motional_dephasing"),
        ("ion-noisy", "heating"),
        ("ion-noisy", "laser_dephasing"),
    ],
)
def test_bad_boolean_exits_2_naming_key(tmp_path, capsys, backend, key):
    path = tmp_path / "c.ini"
    path.write_text(f"[model]\npreset = toy\nmodes = 2\n[ion]\n{key} = maybe\n")
    args = ["run", "--config", str(path), "--backend", backend, "--cutoffs", "4,4", "--steps", "4"]
    args += ["--grid-points", "4", "--output", str(tmp_path / "out.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"(key: {key})" in err


def test_bad_drive_rwa_exits_2_naming_key(tmp_path, capsys):
    path = tmp_path / "m.ini"
    path.write_text(
        "[model]\npreset = plet\nomega_ev = 0.0 2.0 2.02 1.98\nmu1 = 0.012 0.0\nmu2 = 0.0 0.012\n"
        "v1_ev = 0.01\nv2_ev = 0.01\n[drive]\npolarization = 0.7 0.7j\ncarrier_ev = 2.0\nrwa = perhaps\n"
    )
    args = ["run", "--model-file", str(path), "--backend", "exact", "--output", str(tmp_path / "o.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(key: rwa)" in err


def test_convergence_failure_reports_iterate_gap(tmp_path, capsys, monkeypatch):
    # toy N=1 at lambda 1 converges at cutoff 10 (dim 20); a limit of 16 stops the
    # search after its second base run
    monkeypatch.setattr(hb, "DIM_LIMIT", 16)
    args = ["run", "--preset", "toy", "--modes", "1", "--backend", "exact", "--grid-points", "8"]
    assert main([*args, "--output", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    gap = re.search(r"the last two iterates differ by max \|dP\| = (\S+)$", err.strip())
    assert err.startswith("error: dimension limit reached") and gap
    assert float(gap.group(1)) == pytest.approx(0.1415, abs=1e-3)


def test_noisy_run_over_memory_budget_exits_1(tmp_path, capsys):
    # (60, 60) gives a 7200-dim density matrix: refused before anything is allocated
    args = ["run", "--preset", "toy", "--modes", "2", "--backend", "ion-noisy", "--steps", "4"]
    args += ["--grid-points", "4", "--cutoffs", "60,60", "--output", str(tmp_path / "out.csv")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bytes" in err
    assert not (tmp_path / "out.csv").exists()


def test_search_base_run_over_dim_limit_exits_3(tmp_path, capsys, monkeypatch):
    # toy N=2 at lambda 1 first crosses a limit of 96 in a base run (dim 128), not a probe
    monkeypatch.setattr(hb, "DIM_LIMIT", 96)
    args = ["run", "--preset", "toy", "--modes", "2", "--lambda-over-delta", "1", "--backend", "exact"]
    assert main([*args, "--grid-points", "8", "--output", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: dimension limit reached") and "the last two iterates differ" in err


@pytest.mark.parametrize("key", ["duration_slope_us_per_rad", "duration_floor_us"])
def test_fractional_chain_size_exits_2_naming_key(tmp_path, capsys, key):
    path = tmp_path / "hw.ini"
    path.write_text(f"[hardware]\n{key} = 2.7:10\n")
    with pytest.raises(ConfigError, match=f"key: {key}"):
        cfg.load_hardware(str(path))
    args = ["compile", "--preset", "toy", "--steps", "4", "--hardware", str(path)]
    assert main([*args, "--output", str(tmp_path / "s.txt")]) == 2
    assert f"(key: {key})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,key",
    [
        (["--backend", "ion-noisy", "--steps", "40", "--runs", "-1"], "runs_per_point"),
        (["--backend", "ion-ideal", "--steps", "30"], "trotter_steps"),
    ],
    ids=["noisy-runs-neg", "grid-misaligned"],
)
def test_ion_options_parsed_before_cutoff_search(tmp_path, capsys, monkeypatch, flags, key):
    from ionvib import exact

    def searched(*args, **kwargs):
        raise AssertionError("cutoff search ran before the options were parsed")

    monkeypatch.setattr(exact, "converge_cutoffs", searched)
    args = ["run", "--preset", "toy", "--modes", "2", "--grid-points", "40", *flags]
    assert main([*args, "--output", str(tmp_path / "o.csv")]) == 2
    assert f"(key: {key})" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--backend", "exact"], ["--backend", "ion-ideal", "--steps", "8"]])
def test_sidecar_records_cutoff_search(tmp_path, flags):
    out = tmp_path / "o.csv"
    args = ["run", "--preset", "toy", "--modes", "2", "--lambda-over-delta", "1", "--grid-points", "8"]
    assert main([*args, *flags, "--output", str(out)]) == 0
    sidecar = configparser.ConfigParser()
    sidecar.read(str(out) + ".meta.ini")
    tried = sidecar["meta"]["search_cutoffs"].split()
    assert int(sidecar["meta"]["search_runs"]) == len(tried) == len(set(tried)) > 1
    used = sidecar["exact" if "exact" in flags else "ion"]["cutoffs"]
    assert used.replace(" ", ",") in tried
    assert read_csv(out).populations.shape == (8, 2)


def test_exact_sidecar_records_matvecs(tmp_path):
    out = tmp_path / "o.csv"
    args = ["run", "--preset", "toy", "--modes", "2", "--lambda-over-delta", "1", "--grid-points", "8"]
    assert main([*args, "--backend", "exact", "--output", str(out)]) == 0
    sidecar = configparser.ConfigParser()
    sidecar.read(str(out) + ".meta.ini")
    assert int(sidecar["meta"]["matvecs"]) > 0
    assert "matvecs" not in out.read_text()


def test_interaction_frame_runs_the_lab_solver(tmp_path):
    # both frames give the same populations, so the key picks no solver
    outs = {}
    for frame in ("lab", "interaction"):
        ini = tmp_path / f"{frame}.ini"
        ini.write_text(f"[model]\npreset = toy\n[exact]\nframe = {frame}\ncutoffs = 6 6\n")
        outs[frame] = tmp_path / f"{frame}.csv"
        args = ["run", "--config", str(ini), "--backend", "exact", "--grid-points", "8"]
        assert main([*args, "--output", str(outs[frame])]) == 0
    assert outs["interaction"].read_bytes() == outs["lab"].read_bytes()
    sidecar = configparser.ConfigParser()
    sidecar.read(str(outs["interaction"]) + ".meta.ini")
    assert sidecar["exact"]["frame"] == "interaction"
    assert int(sidecar["meta"]["matvecs"]) > 0


def test_ehrenfest_sidecar_records_integrator(tmp_path):
    out = tmp_path / "e.csv"
    args = ["run", "--preset", "toy", "--backend", "ehrenfest", "--trajectories", "4", "--grid-points", "5"]
    assert main([*args, "--output", str(out)]) == 0
    sidecar = configparser.ConfigParser()
    sidecar.read(str(out) + ".meta.ini")
    assert sidecar["meta"]["integrator"] == "DOP853, one batch of 4, rtol=atol=tol/sqrt(4)"
    assert int(sidecar["meta"]["rhs_evals"]) > 0
    assert "integrator" not in out.read_text()


#: settings earlier versions read; a config that still carries them runs as without them
REMOVED_KEYS = {
    "ehrenfest": "sampling = wigner_thermal\n",
    "ion": "check = false\n",
    "hardware": "mode_frequency_bands_mhz = 1.8:1.98 2.45:2.58\n",
}


@pytest.mark.parametrize("backend", ["ehrenfest", "ion-noisy"])
def test_removed_keys_are_carried_and_ignored(tmp_path, backend):
    outs = {}
    for name, removed in (("plain", {}), ("removed", REMOVED_KEYS)):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(
            "[model]\npreset = toy\n[ehrenfest]\ntrajectories = 4\n" + removed.get("ehrenfest", "")
            + "[ion]\ntrotter_steps = 4\ncutoffs = 4 4\nruns_per_point = 10\n" + removed.get("ion", "")
            + "[hardware]\nheating_rate_quanta_per_s = 5.0\n" + removed.get("hardware", "")
        )
        outs[name] = tmp_path / f"{name}.csv"
        args = ["run", "--config", str(ini), "--backend", backend, "--grid-points", "4"]
        assert main([*args, "--output", str(outs[name])]) == 0
    assert outs["removed"].read_bytes() == outs["plain"].read_bytes()
    sidecar = cfg.load_run_sections(str(outs["removed"]) + ".meta.ini")
    assert sidecar["hardware"]["mode_frequency_bands_mhz"] == "1.8:1.98 2.45:2.58"
    section, key = ("ehrenfest", "sampling") if backend == "ehrenfest" else ("ion", "check")
    assert key in sidecar[section]


@pytest.mark.parametrize("backend", ["ion-ideal", "ion-noisy"])
def test_ion_nbar_zero_runs_as_without_the_flag(tmp_path, backend):
    outs = {}
    for name, extra in (("none", []), ("zero", ["--nbar", "0"])):
        outs[name] = tmp_path / f"{name}.csv"
        assert main([*ION_RUN, "--backend", backend, *extra, "--output", str(outs[name])]) == 0
    assert outs["zero"].read_bytes() == outs["none"].read_bytes()


@pytest.mark.parametrize("backend", ["ion-ideal", "ion-noisy"])
def test_ion_sidecar_records_max_leakage(tmp_path, backend):
    out = tmp_path / "o.csv"
    assert main([*ION_RUN, "--backend", backend, "--output", str(out)]) == 0
    sidecar = configparser.ConfigParser()
    sidecar.read(str(out) + ".meta.ini")
    leakage = read_csv(out).leakage
    assert float(sidecar["meta"]["max_leakage"]) == leakage.max() > 0
    assert "max_leakage" not in out.read_text()
    replay = tmp_path / "replay.csv"
    assert main(["run", "--config", str(out) + ".meta.ini", "--output", str(replay)]) == 0
    assert replay.read_bytes() == out.read_bytes()
