import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from ionvib import config, emulator, hilbert as hb, model, pulses
from ionvib.emulator import (
    MeasurementPolicy,
    NoiseChannels,
    _check_state,
    attach_shot_noise,
    channel_rates_per_us,
    emulate,
    lindblad_step,
    sample_populations,
    shot_noise_sigma,
)
from ionvib.errors import InvalidModelError, NumericalFailureError
from ionvib.pulses import HardwareParams, NativePulse, build_schedule, compose_ideal
from ionvib.trace import PopulationTrace
from ionvib.units import ev_to_rad_per_fs
from test_pulses import _kernel_schedules, full_space_collapse_ops, full_space_generator


def noisier(hw, motional=1.0, heating=1.0, laser=1.0):
    """``hw`` with each noise rate multiplied by the given factor."""
    return dataclasses.replace(
        hw,
        motional_coherence_ms=hw.motional_coherence_ms / motional,
        heating_rate_quanta_per_s=hw.heating_rate_quanta_per_s * heating,
        laser_coherence_ms=hw.laser_coherence_ms / laser,
    )


def idle_pulse(duration_us):
    """Zero-amplitude motional drive: free evolution under noise only."""
    return NativePulse(0, "disp", (), 0, (), 0.0, 0.0, duration_us, 0.0, False, "eq")


@pytest.fixture
def mode_layout():
    return hb.SpaceLayout(1, (4,))


class TestRates:
    def test_rate_conventions(self):
        hw = HardwareParams()
        rates = channel_rates_per_us(NoiseChannels(), hw)
        assert rates["motional_dephasing"] == pytest.approx(1.0 / 36_000.0)
        assert rates["heating"] == pytest.approx(5e-6)
        assert rates["laser_dephasing"] == pytest.approx(1.0 / 496_000.0)

    def test_all_off(self):
        assert channel_rates_per_us(NoiseChannels.all_off(), HardwareParams()) == {}

    def test_every_channel_is_an_ion_config_key(self):
        # a noise option no run config can set would be dead code
        assert {f.name for f in dataclasses.fields(NoiseChannels)} <= set(config.ION_DEFAULTS)


class TestLindbladStep:
    def test_noiseless_identity_angle(self, mode_layout):
        ch = NoiseChannels.all_off()
        psi = hb.basis_vector(mode_layout, 0, (1,)).data
        rho = np.outer(psi, psi.conj())
        out = lindblad_step(rho, idle_pulse(50.0), ch, HardwareParams(), mode_layout)
        assert np.allclose(out, rho, atol=1e-12)

    def test_mode_coherence_decay(self, mode_layout):
        # acceptance 4a: e^{-t/36 ms} within 1% at t = 10 ms
        ch = NoiseChannels(motional_dephasing=True, heating=False, laser_dephasing=False)
        v0 = hb.basis_vector(mode_layout, 0, (0,)).data
        v1 = hb.basis_vector(mode_layout, 0, (1,)).data
        psi = (v0 + v1) / math.sqrt(2)
        rho = np.outer(psi, psi.conj())
        out = lindblad_step(rho, idle_pulse(10_000.0), ch, HardwareParams(), mode_layout)
        ratio = abs(out[0, 1]) / abs(rho[0, 1])
        assert ratio == pytest.approx(math.exp(-10.0 / 36.0), rel=0.01)

    def test_laser_dephasing_decay(self):
        layout = hb.SpaceLayout(1, ())
        ch = NoiseChannels(motional_dephasing=False, heating=False, laser_dephasing=True)
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        rho = np.outer(psi, psi.conj())
        # zero-angle carrier addressing the qubit for 100 ms
        pulse = NativePulse(0, "carrier", (0,), None, (0.0,), 0.0, 0.0, 100_000.0, 0.0, False, "eq")
        out = lindblad_step(rho, pulse, ch, HardwareParams(), layout)
        assert abs(out[0, 1]) / 0.5 == pytest.approx(math.exp(-100.0 / 496.0), rel=0.01)

    def test_laser_dephasing_only_while_addressed(self, mode_layout):
        ch = NoiseChannels(motional_dephasing=False, heating=False, laser_dephasing=True)
        plus = np.kron(np.array([1, 1]) / math.sqrt(2), [1, 0, 0, 0]).astype(complex)
        rho = np.outer(plus, plus.conj())
        out = lindblad_step(rho, idle_pulse(50_000.0), ch, HardwareParams(), mode_layout)
        assert np.allclose(out, rho, atol=1e-12)  # disp addresses no qubit

    @pytest.mark.parametrize("gamma_t", [0.01, 0.02, 0.03])
    def test_heating_linear_regime(self, mode_layout, gamma_t):
        # acceptance 4b: <n> = Gamma t within 2% in the short-time regime
        ch = NoiseChannels(motional_dephasing=False, heating=True, laser_dephasing=False)
        hw = HardwareParams()
        t_us = gamma_t / (hw.heating_rate_quanta_per_s / 1e6)
        rho = np.zeros((mode_layout.dim, mode_layout.dim), dtype=complex)
        rho[0, 0] = 1.0
        out = lindblad_step(rho, idle_pulse(t_us), ch, hw, mode_layout)
        st = hb.QuantumState(mode_layout, out, "density", validate=False)
        n = hb.expectation(st, hb.number_operator(mode_layout, 0)).real
        assert n == pytest.approx(gamma_t, rel=0.02)

    def test_heating_exact_exponential(self, mode_layout):
        # integrator validation at the boundary of the linear regime
        ch = NoiseChannels(motional_dephasing=False, heating=True, laser_dephasing=False)
        hw = HardwareParams()
        t_us = 0.05 / (hw.heating_rate_quanta_per_s / 1e6)
        rho = np.zeros((mode_layout.dim, mode_layout.dim), dtype=complex)
        rho[0, 0] = 1.0
        out = lindblad_step(rho, idle_pulse(t_us), ch, hw, mode_layout)
        st = hb.QuantumState(mode_layout, out, "density", validate=False)
        n = hb.expectation(st, hb.number_operator(mode_layout, 0)).real
        assert n == pytest.approx(math.exp(0.05) - 1.0, rel=1e-3)

    def test_state_check_raises(self):
        bad = np.diag([0.7, 0.31]).astype(complex)
        with pytest.raises(NumericalFailureError):
            _check_state(bad)  # trace 1.01
        neg = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(NumericalFailureError):
            _check_state(neg)

    @pytest.mark.parametrize("lam_min,raises", [(-0.5e-6, False), (-2e-6, True)])
    def test_positivity_check_boundary(self, lam_min, raises):
        # the check passes exactly when the smallest eigenvalue exceeds -1e-6
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        evals = np.array([lam_min, 0.1, 0.2, 0.2, 0.2, 0.3 - lam_min])
        rho = (q * evals) @ q.conj().T
        if raises:
            with pytest.raises(NumericalFailureError, match="positivity"):
                _check_state(rho)
        else:
            _check_state(rho)

    def test_state_check_rejects_non_finite(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = rho[1, 0] = np.nan
        with pytest.raises(NumericalFailureError):
            _check_state(rho)


class TestScheduleEmulation:
    def test_stop_at_zero_keeps_donor(self):
        spec = model.build_toy_model(2, 1.0)
        sch = build_schedule(spec, 400.0, 16)
        tr = emulate(sch, NoiseChannels(), (4, 4), [0])
        assert tr.populations[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_channels_off_matches_ideal_composition(self):
        spec = model.build_toy_model(2, 1.0)
        sch = build_schedule(spec, 400.0, 32)
        grid = [8 * g for g in range(5)]
        lind = emulate(sch, NoiseChannels.all_off(), (6, 6), grid)
        comp = compose_ideal(sch, (6, 6), grid)
        assert np.max(np.abs(lind.populations - comp.populations)) < 1e-8

    def test_channels_off_matches_ideal_composition_tightly(self):
        spec = model.build_toy_model(2, 1.0)
        sch = build_schedule(spec, 400.0, 120)
        grid = [3 * g for g in range(41)]
        lind = emulate(sch, NoiseChannels.all_off(), (8, 8), grid)
        comp = compose_ideal(sch, (8, 8), grid)
        assert np.max(np.abs(lind.populations - comp.populations)) <= 1e-12
        assert np.max(np.abs(lind.leakage - comp.leakage)) <= 1e-12

    def test_channels_off_matches_ideal_composition_at_paper_point(self):
        # toy N=2, lambda 5, S=600 at cutoffs (16,14): the local channels reach
        # the dense-block sizes the smaller-cutoff tests above never build
        spec = model.build_toy_model(2, 5.0)
        sch = build_schedule(spec, 400.0, 600)
        grid = [0, 15, 30, 45, 60]
        lind = emulate(sch, NoiseChannels.all_off(), (16, 14), grid)
        comp = compose_ideal(sch, (16, 14), grid)
        assert np.max(np.abs(lind.populations - comp.populations)) <= 1e-12
        assert np.max(np.abs(lind.leakage - comp.leakage)) <= 1e-12

    def test_trace_and_positivity_hold_under_noise(self):
        spec = model.build_toy_model(2, 5.0)
        sch = build_schedule(spec, 400.0, 32)
        grid = [8 * g for g in range(5)]
        # emulate raises on any violation
        tr = emulate(sch, NoiseChannels(), (10, 10), grid)
        assert np.all(tr.populations >= -1e-8)
        assert np.all(tr.populations.sum(axis=1) <= 1 + 1e-8)

    def test_lab_time_accounting_matches_schedule(self):
        spec = model.build_toy_model(2, 5.0)
        sch = build_schedule(spec, 400.0, 32)
        grid = [8 * g for g in range(5)]
        tr = emulate(sch, NoiseChannels.all_off(), (6, 6), grid)
        assert tr.metadata["lab_time_us"] == pytest.approx(sch.operation_time_us(grid[-1]), rel=1e-12)

    def test_noise_damage_monotone_in_rate(self):
        spec = model.build_toy_model(2, 5.0)
        sch = build_schedule(spec, 400.0, 24)
        grid = [6 * g for g in range(5)]
        ideal = compose_ideal(sch, (8, 8), grid)
        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        devs = []
        for scale in (0.5, 1.0, 2.0):
            scaled = dataclasses.replace(sch, hardware=noisier(sch.hardware, scale, scale, scale))
            noisy = emulate(scaled, NoiseChannels(), (8, 8), grid)
            diff = np.abs(noisy.populations[:, 0] - ideal.populations[:, 0])
            devs.append(trapezoid(diff, ideal.times_fs))
        assert devs[0] < devs[1] < devs[2]


class TestShotNoise:
    def test_reference_uncertainty_value(self):
        assert shot_noise_sigma(0.5, 100) == pytest.approx(0.05, abs=1e-15)

    def test_deterministic_outcomes(self):
        pops = np.array([[1.0, 0.0]])
        sampled, sigma = sample_populations(pops, MeasurementPolicy(runs_per_point=50, seed=1))
        assert sampled[0, 0] == 1.0 and sigma[0, 0] == 0.0
        assert sampled[0, 1] == 0.0 and sigma[0, 1] == 0.0

    @pytest.mark.parametrize("p,runs", [(0.5, 100), (0.3, 2500)])
    def test_empirical_std_matches_formula(self, p, runs):
        # acceptance 5: std over 1e3 replicas within 10% of sqrt(P(1-P)/R)
        draws = []
        for rep in range(1000):
            sampled, _ = sample_populations(
                np.array([[p]]), MeasurementPolicy(runs_per_point=runs, seed=rep)
            )
            draws.append(sampled[0, 0])
        emp = np.std(draws, ddof=1)
        assert emp == pytest.approx(shot_noise_sigma(p, runs), rel=0.10)

    def test_bit_identical_sampling(self):
        pops = np.random.default_rng(0).uniform(0.2, 0.8, size=(7, 2))
        a = sample_populations(pops, MeasurementPolicy(runs_per_point=100, seed=9))
        b = sample_populations(pops, MeasurementPolicy(runs_per_point=100, seed=9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_row_draws_equal_one_draw_per_point(self):
        # reference: one scalar binomial per point, clipped, on the (seed, t) stream
        pops = np.random.default_rng(3).uniform(-0.05, 1.05, size=(150, 3))
        runs, seed = 100, 11
        ref = np.zeros_like(pops)
        for t in range(pops.shape[0]):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
            for i in range(pops.shape[1]):
                ref[t, i] = rng.binomial(runs, min(max(pops[t, i], 0.0), 1.0)) / runs
        sampled, sigma = sample_populations(pops, MeasurementPolicy(runs_per_point=runs, seed=seed))
        assert np.array_equal(sampled, ref)
        assert np.array_equal(sigma, [[shot_noise_sigma(float(p), runs) for p in row] for row in ref])

    def test_attached_columns_round_trip(self, tmp_path):
        trace = PopulationTrace(
            times_fs=np.array([0.0, 10.0]),
            populations=np.array([[1.0, 0.0], [0.7, 0.3]]),
        )
        attach_shot_noise(trace, MeasurementPolicy(runs_per_point=100, seed=4))
        path = tmp_path / "sampled.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "time_fs,P_0,P_1,leakage,P_0_sampled,P_0_sigma,P_1_sampled,P_1_sigma"
        )
        from ionvib.trace import read_csv

        back = read_csv(path)
        assert np.array_equal(back.sampled, trace.sampled)
        assert np.array_equal(back.sigma, trace.sigma)


def test_measure_with_shot_noise_from_density_series():
    spec = model.build_toy_model(2, 1.0)
    sch = build_schedule(spec, 400.0, 8)
    policy = MeasurementPolicy(runs_per_point=200, seed=3)
    trace = emulate(sch, NoiseChannels.all_off(), (4, 4), [0, 4, 8], policy=policy)
    assert trace.sampled.shape == (3, 2)
    assert trace.sampled[0, 0] == 1.0  # donor-prepared start samples deterministically
    # sampled frequencies stay near the exact populations
    assert np.max(np.abs(trace.sampled - trace.populations)) < 0.15


def test_virtual_op_density_matches_full_space_exponential():
    # one-hot three-state model: its conjugated sdf halves carry virtual carrier and ms ops
    delta = np.zeros((3, 3), complex)
    delta[1, 1] = ev_to_rad_per_fs(0.01)
    kappa = np.zeros((3, 3, 1), complex)
    kappa[0, 2, 0] = ev_to_rad_per_fs(0.008) * np.exp(0.6j)
    kappa[2, 0, 0] = np.conj(kappa[0, 2, 0])
    spec = model.LvcmSpec(delta, kappa, [ev_to_rad_per_fs(0.05)])
    sch = build_schedule(spec, 400.0, 2, hardware=HardwareParams(sideband_rabi_khz=(1.47, 500.0)))
    layout = hb.SpaceLayout(sch.qubit_count, (3,))
    rng = np.random.default_rng(2)
    a = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    virtual = [op for op in sch.ops if op.virtual]
    assert {op.kind for op in virtual} == {"carrier", "ms"}
    for op in virtual:
        gen = -1j * op.angle * full_space_generator(op, layout)
        ref = expm_multiply(gen, expm_multiply(gen, rho).conj().T).conj().T
        out = lindblad_step(rho, op, NoiseChannels(), HardwareParams(), layout)
        assert np.abs(out - ref).max() <= 1e-12


def test_lindblad_route_against_direct_integration():
    # independent oracle: integrate the same master equation with an adaptive
    # ODE solver and compare to the exponentiated-superoperator route; rates
    # are scaled up so the dissipators dominate the comparison
    from scipy.integrate import solve_ivp

    spec = model.build_toy_model(2, 3.0)
    sch = build_schedule(spec, 400.0, 8)
    layout = hb.SpaceLayout(1, (5, 5))
    hw = noisier(HardwareParams(), motional=50.0, heating=200.0, laser=50.0)
    ch = NoiseChannels()
    rates = channel_rates_per_us(ch, hw)

    psi = pulses.hardware_initial_vector(sch, layout)
    rho_fast = np.outer(psi, psi.conj())
    rho_ref = rho_fast.copy()
    for p in sch.ops[:4]:
        rho_fast = lindblad_step(rho_fast, p, ch, hw, layout)
        h = (p.angle / p.duration_us) * full_space_generator(p, layout).toarray()
        l_ops = full_space_collapse_ops(layout, p.qubits, rates)

        def rhs(t, y):
            r = y.reshape(layout.dim, layout.dim)
            dr = -1j * (h @ r - r @ h)
            for l_op in l_ops:
                ld = l_op.conj().T
                dr += l_op @ r @ ld - 0.5 * (ld @ l_op @ r + r @ ld @ l_op)
            return dr.reshape(-1)

        sol = solve_ivp(
            rhs, (0, p.duration_us), rho_ref.reshape(-1), method="DOP853", rtol=1e-11, atol=1e-12
        )
        rho_ref = sol.y[:, -1].reshape(layout.dim, layout.dim)
    assert np.abs(rho_fast - rho_ref).max() < 1e-9


def test_noise_pushes_strong_coupling_toward_mean_field():
    # qualitative cross-backend property at reorganization ratio 20, t <= 200 fs:
    # the noisy trace sits closer to the mean-field trace than the ideal one
    # does (measured integrals ~43.8 vs ~47.6 fs; everything here is seeded
    # and deterministic)
    from ionvib import exact
    from ionvib.ehrenfest import EnsembleConfig, ensemble_average

    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    spec = model.build_toy_model(1, 20.0)
    steps, points = 96, 12
    gsteps = [steps // points * g for g in range(points + 1) if g * 400.0 / points <= 200.0]
    cutoffs = (42,)  # converged for this model at eps_cut = 1e-4
    sch = build_schedule(spec, 400.0, steps)
    ideal = compose_ideal(sch, cutoffs, gsteps)
    noisy = emulate(sch, NoiseChannels(), cutoffs, gsteps)
    mf = ensemble_average(spec, EnsembleConfig(trajectories=150, seed=11), ideal.times_fs)
    d_noisy = trapezoid(np.abs(noisy.populations[:, 0] - mf.populations[:, 0]), ideal.times_fs)
    d_ideal = trapezoid(np.abs(ideal.populations[:, 0] - mf.populations[:, 0]), ideal.times_fs)
    assert d_noisy < d_ideal


# --- factored Lindblad step against the full-space Liouvillian -------------------

FACTORED_CHANNELS = {
    "motional_dephasing": NoiseChannels(True, False, False),
    "heating": NoiseChannels(False, True, False),
    "laser_dephasing": NoiseChannels(False, False, True),
    "all": NoiseChannels(),
}


def factored_hardware(hw):
    """``hw`` with rates scaled up so every dissipator moves rho well above the tolerance."""
    return noisier(hw, motional=1e3, heating=1e4, laser=1e4)


def _factored_schedules():
    small = {"ci": (3, 2), "vaet": (2, 2, 2), "onehot": (2,), "onehot-physical": (2,), "plet": ()}
    cases = {name: (sch, small[name]) for name, (sch, _) in _kernel_schedules().items()}
    cases["toy"] = (build_schedule(model.build_toy_model(2, 3.0), 400.0, 3), (3, 3))
    return cases


def _full_space_liouvillian(op, channels, hw, layout):
    """Dense row-major vec Liouvillian of one pulse, from full-space operators."""
    h = (op.angle / op.duration_us) * full_space_generator(op, layout).toarray()
    l_ops = full_space_collapse_ops(layout, op.qubits, channel_rates_per_us(channels, hw))
    ident = np.eye(layout.dim)
    lio = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for l_op in l_ops:
        ldl = l_op.conj().T @ l_op
        lio += np.kron(l_op, l_op.conj()) - 0.5 * np.kron(ldl, ident) - 0.5 * np.kron(ident, ldl.T)
    return lio


@pytest.mark.parametrize("channel", sorted(FACTORED_CHANNELS))
@pytest.mark.parametrize("name", ["toy", "ci", "vaet", "onehot", "onehot-physical", "plet"])
def test_factored_lindblad_matches_full_space(name, channel):
    sch, cutoffs = _factored_schedules()[name]
    channels = FACTORED_CHANNELS[channel]
    hw = factored_hardware(sch.hardware)
    layout = hb.SpaceLayout(sch.qubit_count, cutoffs)
    rng = np.random.default_rng(7)
    cache = {}
    ops = [op for op in sch.ops if not op.virtual]
    assert ops and any(op.phi_m or any(op.phis) for op in ops)
    for op in ops:
        a = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        lio = _full_space_liouvillian(op, channels, hw, layout)
        ref = (expm(op.duration_us * lio) @ rho.reshape(-1)).reshape(rho.shape)
        got = lindblad_step(rho, op, channels, hw, layout, cache)
        assert np.abs(got - ref).max() <= 1e-12, op


def test_sparse_fallback_matches_dense_path(monkeypatch):
    sch = build_schedule(model.build_toy_model(2, 3.0), 400.0, 3)
    layout = hb.SpaceLayout(1, (4, 3))
    channels = FACTORED_CHANNELS["all"]
    hw = factored_hardware(sch.hardware)
    psi = pulses.hardware_initial_vector(sch, layout)

    def run(cache):
        rho = np.outer(psi, psi.conj())
        for op in sch.ops:
            rho = lindblad_step(rho, op, channels, hw, layout, cache)
        return rho

    def local_blocks(cache):
        return [b for key, value in cache.items() if key[0] == "channel" for b in value[1]]

    dense_cache, sparse_cache = {}, {}
    dense = run(dense_cache)
    monkeypatch.setattr(emulator, "DENSE_BYTES", 0)
    sparse = run(sparse_cache)
    assert not any(sp.issparse(b) for b in local_blocks(dense_cache))
    assert local_blocks(sparse_cache) and all(sp.issparse(b) for b in local_blocks(sparse_cache))
    assert np.abs(sparse - dense).max() <= 1e-12


@pytest.mark.parametrize("name", ["toy", "vaet", "onehot", "onehot-physical"])
def test_lindblad_step_returns_exactly_hermitian_rho(name):
    sch, cutoffs = _factored_schedules()[name]
    hw = factored_hardware(sch.hardware)
    layout = hb.SpaceLayout(sch.qubit_count, cutoffs)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    cache = {}
    for op in sch.ops:
        rho = lindblad_step(rho, op, NoiseChannels(), hw, layout, cache)
        assert np.array_equal(rho, rho.conj().T), op


@pytest.mark.parametrize("name", ["onehot", "onehot-physical"])
def test_emulate_matches_full_space_oracle(name):
    # "onehot" carries virtual carrier and ms ops; "onehot-physical" runs them
    # as pulses, during which every mode is idle
    sch, cutoffs = _factored_schedules()[name]
    sch = dataclasses.replace(sch, hardware=factored_hardware(sch.hardware))
    layout = hb.SpaceLayout(sch.qubit_count, cutoffs)
    channels = NoiseChannels()
    grid = list(range(sch.steps + 1))

    def oracle(rho, op):
        if op.virtual:
            u = expm(-1j * op.angle * full_space_generator(op, layout).toarray())
            return u @ rho @ u.conj().T
        lio = _full_space_liouvillian(op, channels, sch.hardware, layout)
        return (expm(op.duration_us * lio) @ rho.reshape(-1)).reshape(rho.shape)

    psi = pulses.hardware_initial_vector(sch, layout)
    ref = pulses.walk_schedule(sch, layout, np.outer(psi, psi.conj()), grid, oracle)
    got = emulate(sch, channels, cutoffs, grid)
    assert np.abs(got.populations - ref.populations).max() <= 1e-12
    assert np.abs(got.leakage - ref.leakage).max() <= 1e-12


@pytest.mark.parametrize("grid", [[0, 8, 4], [0, 50], [-3, 0]], ids=["decreasing", "past-end", "negative"])
def test_bad_grid_steps_rejected(grid):
    sch = build_schedule(model.build_toy_model(2, 1.0), 400.0, 12)
    with pytest.raises(InvalidModelError, match="grid steps"):
        compose_ideal(sch, (6, 6), grid)
    with pytest.raises(InvalidModelError, match="grid steps"):
        emulate(sch, NoiseChannels(), (6, 6), grid)
    # repeated steps and the last boundary are valid grid points
    assert compose_ideal(sch, (6, 6), [0, 6, 6, 12]).times_fs[-1] == 400.0
