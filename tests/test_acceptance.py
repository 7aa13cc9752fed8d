"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line through the terminal-summary hook in
conftest.py.  Tolerances are fixed here, not tuned at runtime.  The noisy-path
checks (criteria 4 and 7) run at reduced Trotter counts and documented Fock
cutoffs chosen for runtime; the asserted properties are insensitive to those
choices (common-mode between the compared runs).
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import record
from test_emulator import noisier
from ionvib import config as cfg
from ionvib import exact, model, pulses
from ionvib.cli import execute_run, main
from ionvib.ehrenfest import EnsembleConfig, ensemble_average, evolve_trajectory, TrajectoryState
from ionvib.emulator import (
    MeasurementPolicy,
    NoiseChannels,
    emulate,
    sample_populations,
    shot_noise_sigma,
)
from ionvib.estimator import ExperimentPlan, experimental_time, overhead_baseline_s, scaling_fit
from ionvib.pulses import build_schedule, compose_ideal
from ionvib.units import HBAR_EV_FS

TRAPZ = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
DELTA_W = 0.08679 / HBAR_EV_FS


def grid_steps(steps, points):
    return [steps // points * g for g in range(points)]


def test_criterion_01_analytic_rabi_limit():
    """Toy model with kappa = 0 reproduces cos^2(Delta t / 2 hbar) on all backends."""
    spec = model.build_toy_model(2, 0.0)
    times = exact.default_time_grid(400.0, 40)
    analytic = np.cos(DELTA_W * times / 2.0) ** 2

    ex = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(2, 2)))
    dev_exact = np.max(np.abs(ex.populations[:, 0] - analytic))

    eh = ensemble_average(spec, EnsembleConfig(trajectories=2, seed=1, tol=1e-12), times)
    dev_ehrenfest = np.max(np.abs(eh.populations[:, 0] - analytic))

    sch = build_schedule(spec, 400.0, 64)
    ion = compose_ideal(sch, (2, 2), grid_steps(64, 8))
    dev_ion = np.max(np.abs(ion.populations[:, 0] - np.cos(DELTA_W * ion.times_fs / 2.0) ** 2))

    ok = dev_exact < 1e-6 and dev_ehrenfest < 1e-6 and dev_ion < 1e-3
    record(1, f"Rabi limit: exact {dev_exact:.1e}, mean-field {dev_ehrenfest:.1e}, ion {dev_ion:.1e}", ok)
    assert dev_exact < 1e-6
    assert dev_ehrenfest < 1e-6
    assert dev_ion < 1e-3


def test_criterion_02_ideal_emulator_matches_exact():
    """Ideal trapped-ion path within 0.01 of exact at S = 600 for all lambda ratios."""
    worst = {}
    steps = 600
    gsteps = grid_steps(steps, 40)
    for ratio in (1.0, 5.0, 10.0, 20.0, 30.0):
        spec = model.build_toy_model(2, ratio)
        times = exact.default_time_grid(400.0, 40)
        cutoffs = exact.converge_cutoffs(
            exact.PropagationRequest(spec=spec, times_fs=times)
        )
        ex = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=cutoffs)
        )
        sch = build_schedule(spec, 400.0, steps)
        ion = compose_ideal(sch, cutoffs, gsteps)
        worst[ratio] = float(np.max(np.abs(ex.populations[:, 0] - ion.populations[:, 0])))
    ok = all(v <= 0.01 for v in worst.values())
    summary = ", ".join(f"{k:g}: {v:.4f}" for k, v in worst.items())
    record(2, f"ideal-vs-exact max |dP_D| by lambda/Delta ({summary})", ok)
    assert ok, worst


def test_criterion_03_trotter_order():
    """Doubling S shrinks the ion-ideal deviation from exact by at least 1.8x."""
    spec = model.build_toy_model(2, 5.0)
    cutoffs = (16, 14)
    devs = {}
    for steps in (64, 128):
        gsteps = grid_steps(steps, 8)
        sch = build_schedule(spec, 400.0, steps)
        ion = compose_ideal(sch, cutoffs, gsteps)
        ex = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=ion.times_fs, cutoffs=cutoffs)
        )
        devs[steps] = np.max(np.abs(ion.populations - ex.populations))
    factor = devs[64] / devs[128]
    ok = factor >= 1.8
    record(3, f"Trotter deviation factor S->2S = {factor:.2f}", ok)
    assert ok, devs


def test_criterion_04_lindblad_correctness():
    """Single-channel analytic checks plus invariants across a full noisy run."""
    from ionvib import hilbert as hb
    from ionvib.emulator import lindblad_step
    from ionvib.pulses import HardwareParams, NativePulse

    hw = HardwareParams()
    layout = hb.SpaceLayout(1, (6,))

    # (a) mode-coherence decay e^{-t/36 ms} within 1% at t = 10 ms
    ch = NoiseChannels(motional_dephasing=True, heating=False, laser_dephasing=False)
    v0 = hb.basis_vector(layout, 0, (0,)).data
    v1 = hb.basis_vector(layout, 0, (1,)).data
    psi = (v0 + v1) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    idle = NativePulse(0, "disp", (), 0, (), 0.0, 0.0, 10_000.0, 0.0, False, "eq")
    out = lindblad_step(rho, idle, ch, hw, layout)
    decay = abs(out[0, 1]) / abs(rho[0, 1])
    dephasing_ok = abs(decay - math.exp(-10.0 / 36.0)) / math.exp(-10.0 / 36.0) < 0.01

    # (b) heating <n> = Gamma t within 2% in the short-time regime (Gamma t <= 0.05)
    ch_h = NoiseChannels(motional_dephasing=False, heating=True, laser_dephasing=False)
    heating_ok = True
    for gamma_t in (0.01, 0.02, 0.03):
        t_us = gamma_t / (hw.heating_rate_quanta_per_s / 1e6)
        rho0 = np.zeros((layout.dim, layout.dim), dtype=complex)
        rho0[0, 0] = 1.0
        out = lindblad_step(rho0, NativePulse(0, "disp", (), 0, (), 0.0, 0.0, t_us, 0.0, False, "eq"), ch_h, hw, layout)
        st = hb.QuantumState(layout, out, "density", validate=False)
        n = hb.expectation(st, hb.number_operator(layout, 0)).real
        heating_ok &= abs(n - gamma_t) / gamma_t < 0.02

    # (c) trace and positivity on every pulse of a full noisy lambda = 30 Delta run
    # (N = 1 keeps the converged Fock space small; emulate raises on a violation)
    spec = model.build_toy_model(1, 30.0)
    sch = build_schedule(spec, 400.0, 600)
    emulate(sch, NoiseChannels(), (58,), grid_steps(600, 10))
    invariants_ok = True

    ok = dephasing_ok and heating_ok and invariants_ok
    record(4, f"Lindblad: decay ratio {decay:.5f}, heating linear <=2%, invariants on 600 noisy steps", ok)
    assert dephasing_ok and heating_ok


def test_criterion_05_shot_noise_statistics():
    """Empirical std over 1000 samplings matches sqrt(P(1-P)/R) within 10%."""
    assert shot_noise_sigma(0.5, 100) == pytest.approx(0.05, abs=1e-15)
    results = {}
    for p, runs in ((0.5, 100), (0.3, 2500)):
        draws = [
            sample_populations(np.array([[p]]), MeasurementPolicy(runs_per_point=runs, seed=rep))[0][0, 0]
            for rep in range(1000)
        ]
        emp = float(np.std(draws, ddof=1))
        results[(p, runs)] = (emp, shot_noise_sigma(p, runs))
    ok = all(abs(e - f) / f < 0.10 for e, f in results.values())
    summary = ", ".join(f"(P={p}, R={r}): {e:.4f} vs {f:.4f}" for (p, r), (e, f) in results.items())
    record(5, f"shot noise std {summary}", ok)
    assert ok, results


def test_criterion_06_experimental_time_accounting():
    """Operation-time endpoints, sqrt-lambda scaling, and S-invariance."""
    low = experimental_time(ExperimentPlan(lambdas=(1.0,), mode_counts=(2,)))[0]
    high = experimental_time(ExperimentPlan(lambdas=(30.0,), mode_counts=(5,)))[0]
    low_ok = abs(low.longest_run_operation_ms - 5.0) / 5.0 <= 0.25
    high_ok = abs(high.longest_run_operation_ms - 57.0) / 57.0 <= 0.25

    fit = scaling_fit(
        experimental_time(ExperimentPlan(lambdas=(1.0, 5.0, 10.0, 20.0, 30.0), mode_counts=(2,)))
    )
    fit_ok = fit.max_residual_fraction < 0.10

    op_s = build_schedule(model.build_toy_model(2, 30.0), 400.0, 600).operation_time_us()
    op_2s = build_schedule(model.build_toy_model(2, 30.0), 400.0, 1200).operation_time_us()
    s_ok = op_s == pytest.approx(op_2s, rel=1e-12)

    baseline_ok = overhead_baseline_s(
        ExperimentPlan(lambdas=(1.0,), mode_counts=(2,), runs_per_point=100, time_points=40)
    ) == pytest.approx(17.0)

    ok = low_ok and high_ok and fit_ok and s_ok and baseline_ok
    record(
        6,
        f"cost: {low.longest_run_operation_ms:.2f} ms / {high.longest_run_operation_ms:.2f} ms, "
        f"fit residual {fit.max_residual_fraction:.3f}, S-invariant, baseline 17.0 s",
        ok,
    )
    assert ok


def test_criterion_07_noise_damage_monotonicity():
    """More reorganization energy and higher rates both increase noise damage."""

    def integrated_dev(n_modes, ratio, steps, cutoffs, channels, points=10):
        spec = model.build_toy_model(n_modes, ratio)
        sch = build_schedule(spec, 400.0, steps)
        gsteps = grid_steps(steps, points)
        ideal = compose_ideal(sch, cutoffs, gsteps)
        noisy = emulate(sch, channels, cutoffs, gsteps)
        return float(
            TRAPZ(np.abs(noisy.populations[:, 0] - ideal.populations[:, 0]), ideal.times_fs)
        )

    # lambda = 30 Delta vs lambda = Delta under the full rate table; single-mode
    # toy model keeps the converged Fock space tractable (cutoffs 10 and 58)
    table = NoiseChannels()
    dev_low = integrated_dev(1, 1.0, 96, (10,), table)
    dev_high = integrated_dev(1, 30.0, 96, (58,), table)
    factor = dev_high / dev_low
    factor_ok = factor > 2.0

    # each channel's contribution is monotone in its rate (3 multipliers)
    spec = model.build_toy_model(2, 5.0)
    sch = build_schedule(spec, 400.0, 48)
    gsteps = grid_steps(48, 6)
    ideal = compose_ideal(sch, (10, 8), gsteps)
    monotone_ok = True
    for channel in ("motional", "heating", "laser"):
        devs = []
        for scale in (0.5, 1.0, 2.0):
            scaled = dataclasses.replace(sch, hardware=noisier(sch.hardware, **{channel: scale}))
            noisy = emulate(scaled, NoiseChannels(), (10, 8), gsteps)
            devs.append(
                float(TRAPZ(np.abs(noisy.populations[:, 0] - ideal.populations[:, 0]), ideal.times_fs))
            )
        monotone_ok &= devs[0] < devs[1] < devs[2]

    ok = factor_ok and monotone_ok
    record(7, f"noise damage: lambda factor {factor:.2f} (> 2), per-channel rates monotone", ok)
    assert factor_ok, (dev_low, dev_high)
    assert monotone_ok


def test_criterion_08_ehrenfest_properties():
    """Conservation laws, decoupled-limit exactness, sampling-error scaling, and
    the qualitative miss of the strong oscillations at lambda = Delta."""
    spec5 = model.build_toy_model(2, 5.0)
    state = TrajectoryState(c=[1.0, 0.0], q=[0.7, -0.4], p=[0.2, 0.5])
    times = exact.default_time_grid(400.0, 20)
    pops = evolve_trajectory(spec5, state, times, 1e-10)
    norm_ok = np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-8

    from ionvib.ehrenfest import mean_field_energy
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        c, q, p = y[:2], y[2:4].real, y[4:].real
        h = spec5.electronic_matrix(t) + np.tensordot(spec5.kappa, np.sqrt(2) * q, axes=([2], [0]))
        force = np.sqrt(2) * np.real(np.einsum("i,ijk,j->k", c.conj(), spec5.kappa, c))
        return np.concatenate(
            [-1j * (h @ c), (spec5.nu * p).astype(complex), (-spec5.nu * q - force).astype(complex)]
        )

    y0 = np.concatenate([state.c, state.q.astype(complex), state.p.astype(complex)])
    sol = solve_ivp(rhs, (0, 400), y0, t_eval=times, method="DOP853", rtol=1e-11, atol=1e-11)
    e0 = mean_field_energy(spec5, state)
    energy_dev = max(
        abs(mean_field_energy(spec5, TrajectoryState(c=sol.y[:2, i], q=sol.y[2:4, i].real, p=sol.y[4:, i].real)) - e0)
        for i in range(len(times))
    )
    energy_ok = energy_dev / abs(e0) < 1e-6

    spec0 = model.build_toy_model(2, 0.0)
    short = np.linspace(0.0, 100.0, 11)
    eh0 = ensemble_average(spec0, EnsembleConfig(trajectories=2, seed=4, tol=1e-12), short)
    ex0 = exact.propagate(exact.PropagationRequest(spec=spec0, times_fs=short, cutoffs=(2, 2)))
    exactness_ok = np.max(np.abs(eh0.populations - ex0.populations)) < 1e-6

    spec1 = model.build_toy_model(2, 1.0)
    scale_grid = np.linspace(0.0, 200.0, 9)
    small = ensemble_average(spec1, EnsembleConfig(trajectories=48, seed=3), scale_grid)
    large = ensemble_average(spec1, EnsembleConfig(trajectories=192, seed=3), scale_grid)
    ratio = float(small.stderr[1:].mean() / large.stderr[1:].mean())
    scaling_ok = abs(ratio - 2.0) / 2.0 < 0.20

    times40 = exact.default_time_grid(400.0, 40)
    eh1 = ensemble_average(spec1, EnsembleConfig(trajectories=96, seed=5), times40)
    ex1 = exact.propagate(exact.PropagationRequest(spec=spec1, times_fs=times40, cutoffs=(10, 8)))
    miss = float(np.max(np.abs(eh1.populations[:, 0] - ex1.populations[:, 0])))
    oscillation_ok = miss > 0.1

    ok = norm_ok and energy_ok and exactness_ok and scaling_ok and oscillation_ok
    record(
        8,
        f"mean-field: energy dev {energy_dev / abs(e0):.1e}, stderr ratio {ratio:.2f}, "
        f"lambda=Delta miss {miss:.2f} (> 0.1)",
        ok,
    )
    assert ok, (norm_ok, energy_ok, exactness_ok, ratio, miss)


def test_criterion_09_intersection_surfaces():
    """Closed-form adiabatic surfaces at 1e4 points, origin degeneracy, gap identity."""
    spec = model.build_ci_model(0.0213, 0.0174, 0.0831, 0.0952)
    kx, kz = 0.0213 / HBAR_EV_FS, 0.0174 / HBAR_EV_FS
    nux, nuz = 0.0831 / HBAR_EV_FS, 0.0952 / HBAR_EV_FS
    rng = np.random.default_rng(17)
    pts = rng.uniform(-3, 3, size=(10_000, 4))
    worst = 0.0
    for x, z, px, pz in pts:
        lo, hi = model.ci_adiabatic_surfaces(spec, x, z, px, pz)
        harm = 0.5 * nux * (x * x + px * px) + 0.5 * nuz * (z * z + pz * pz)
        gap = math.sqrt(2 * kx * kx * x * x + 2 * kz * kz * z * z)
        worst = max(worst, abs(lo - (harm - gap)), abs(hi - (harm + gap)))
        worst = max(worst, abs((hi - lo) - 2 * gap))
    lo0, hi0 = model.ci_adiabatic_surfaces(spec, 0, 0, 0, 0)
    ok = worst <= 1e-12 and lo0 == 0.0 and hi0 == 0.0
    record(9, f"surface formula worst deviation {worst:.2e}, origin exactly degenerate", ok)
    assert ok


def test_criterion_10_reproducibility_loop(tmp_path):
    """Sidecar replay is byte-identical for one instance of every backend."""
    cases = {
        "exact": ["--backend", "exact", "--grid-points", "8"],
        "ehrenfest": ["--backend", "ehrenfest", "--trajectories", "6", "--grid-points", "8"],
        "ion-ideal": ["--backend", "ion-ideal", "--steps", "16", "--cutoffs", "6,6", "--grid-points", "8"],
        "ion-noisy": [
            "--backend", "ion-noisy", "--steps", "16", "--cutoffs", "6,6",
            "--grid-points", "8", "--runs", "25",
        ],
        "compile": ["--backend", "compile", "--steps", "8"],
        "estimate": ["--backend", "estimate", "--lambdas", "1,5", "--modes-list", "2", "--runs", "10"],
    }
    all_ok = True
    for name, flags in cases.items():
        out = tmp_path / f"{name}.out"
        rc = main(
            [
                "run", "--preset", "toy", "--lambda-over-delta", "1", "--modes", "2",
                "--seed", "99", "--output", str(out), *flags,
            ]
        )
        assert rc == 0, name
        original = out.read_bytes()
        replay_cfg = cfg.load_run_config(str(out) + ".meta.ini")
        replay = tmp_path / f"{name}.replay"
        replay_cfg.sections["run"]["output"] = str(replay)
        execute_run(replay_cfg)
        all_ok &= replay.read_bytes() == original
    record(10, "sidecar replay byte-identical across all six backends", all_ok)
    assert all_ok
