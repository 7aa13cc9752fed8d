import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from ionvib import config, exact, model, pulses
from ionvib import hilbert as hb
from ionvib.errors import InfeasibleScheduleError, UnsupportedChainError
from ionvib.pulses import (
    HardwareParams,
    build_schedule,
    compose_ideal,
    ions_for,
    map_spec,
)
from ionvib.units import ev_to_rad_per_fs

EV = ev_to_rad_per_fs
RELAXED = HardwareParams(sideband_rabi_khz=(1.47, 500.0))


def onehot_spec(offdiag_phase=0.0):
    """Three-state model exercising every one-hot lowering path."""
    delta = np.zeros((3, 3), complex)
    delta[1, 1] = EV(0.01)
    delta[2, 2] = EV(-0.005)
    delta[0, 1] = delta[1, 0] = EV(0.012)
    kappa = np.zeros((3, 3, 1), complex)
    kappa[0, 0, 0] = EV(0.01)
    kappa[1, 1, 0] = EV(-0.006)
    kappa[0, 2, 0] = EV(0.008) * np.exp(1j * offdiag_phase)
    kappa[2, 0, 0] = np.conj(kappa[0, 2, 0])
    return model.LvcmSpec(delta, kappa, [EV(0.05)])


class TestTrotterize:
    def test_single_coupling_term_repeats(self):
        delta = np.zeros((2, 2), complex)
        kappa = np.zeros((2, 2, 1), complex)
        kappa[0, 0, 0] = 0.1
        kappa[1, 1, 0] = -0.1
        spec = model.LvcmSpec(delta, kappa, [0.13])
        ops = build_schedule(spec, 300.0, 3).ops
        assert [(p.step, p.kind) for p in ops] == [(0, "sdf"), (1, "sdf"), (2, "sdf")]
        assert ops[0].angle == ops[1].angle == ops[2].angle == pytest.approx(0.1 * 100.0)

    def test_toy_term_count(self):
        sch = build_schedule(model.build_toy_model(2, 30.0), 400.0, 600)
        assert [p.kind for p in sch.ops] == ["sdf"] * 1200  # one sideband pulse per mode per step

    def test_angle_annotation(self):
        # the dense inter-state coupling Delta/2 emits no pulse: it is the frame
        spec = model.build_toy_model(2, 1.0)
        assert map_spec(spec).frame_z == (abs(spec.delta[0, 1]),)

    def test_canonical_order_within_step(self):
        # diagonal couplings (two conjugated sdf, one disp), the inter-state ms
        # pair, then the off-diagonal coupling's two conjugated sdf halves
        sch = build_schedule(onehot_spec(), 100.0, 2, hardware=RELAXED)
        kinds = [p.kind for p in sch.pulses if p.step == 0]
        assert kinds == ["sdf", "sdf", "disp", "ms", "ms", "sdf", "sdf"]

    def test_commuting_terms_exact_for_any_steps(self):
        spec = model.build_toy_model(2, 0.0)
        sch = build_schedule(spec, 400.0, 2)
        tr = compose_ideal(sch, (2, 2), [0, 1, 2])
        ex = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=tr.times_fs, cutoffs=(2, 2))
        )
        assert np.max(np.abs(tr.populations - ex.populations)) < 1e-12


def one_step_ops(spec, hardware=None):
    """Ops of a single 4 fs Trotter step: step 0 of S = 100 over 400 fs."""
    return build_schedule(spec, 4.0, 1, hardware=hardware).ops


def sdf_durations(spec):
    """Lab durations of every sdf pulse at the reference S = 600 over 400 fs."""
    return [p.duration_us for p in build_schedule(spec, 400.0, 600).ops if p.kind == "sdf"]


class TestLowering:
    def test_diagonal_coupling_single_sdf(self):
        # the two-state sideband term lowers to exactly one sdf pulse whose
        # rotation matches exp(-i theta sigma (a + a^dag)) with Rabi*t/2 = theta
        spec = model.build_toy_model(1, 1.0)
        ops = one_step_ops(spec)
        assert len(ops) == 1
        p = ops[0]
        assert p.kind == "sdf"
        c_z = float(np.real(spec.kappa[0, 0, 0] - spec.kappa[1, 1, 0])) / 2
        theta = abs(c_z) * 4.0
        assert p.angle == pytest.approx(theta)
        rabi_rad_us = p.rabi_khz * 1e-3 * 2 * math.pi
        assert rabi_rad_us * p.duration_us / 2 == pytest.approx(p.angle, rel=1e-12)
        # unitary check on qubit (x) one mode
        layout = hb.SpaceLayout(1, (6,))
        gen = full_space_generator(p, layout)
        direct = expm(-1j * theta * (sigma_phi(layout, 0, p.phis[0]) @ quadrature(layout, 0, p.phi_m)).toarray())
        assert np.allclose(expm(-1j * p.angle * gen.toarray()), direct)

    def test_pair_coupling_two_ms_pulses_equal_durations(self):
        # one-hot model whose only pulse-emitting term is the state coupling
        spec = model.LvcmSpec(onehot_spec().delta, np.zeros((3, 3, 1)), [EV(0.05)])
        ops = one_step_ops(spec, RELAXED)
        assert [p.kind for p in ops] == ["ms", "ms"]
        assert ops[0].duration_us == ops[1].duration_us > 0
        assert ops[0].angle == ops[1].angle == pytest.approx(abs(spec.delta[0, 1]) * 4.0 / 2)

    def test_zero_angle_term_empty(self):
        # equal diagonal couplings: the spin-dependent part has zero angle and
        # emits no sdf, only the spin-independent displacement remains
        kappa = np.zeros((2, 2, 1), complex)
        kappa[0, 0, 0] = kappa[1, 1, 0] = 0.01
        spec = model.LvcmSpec(model.build_toy_model(1, 1.0).delta, kappa, [0.13])
        assert [p.kind for p in one_step_ops(spec)] == ["disp"]

    def test_sign_folds_into_phase(self):
        spec = model.build_toy_model(2, 1.0)
        flipped = model.LvcmSpec(spec.delta, -spec.kappa, spec.nu)
        a = one_step_ops(spec)[0]
        b = one_step_ops(flipped)[0]
        assert b.angle == pytest.approx(a.angle)
        assert (b.phis[0] - a.phis[0]) % (2 * math.pi) == pytest.approx(math.pi)


class TestDurations:
    def test_reference_mean_durations(self):
        assert np.mean(sdf_durations(model.build_toy_model(2, 30.0))) == pytest.approx(15.7, rel=1e-9)
        assert np.mean(sdf_durations(model.build_toy_model(5, 30.0))) == pytest.approx(19.0, rel=1e-9)

    def test_proportional_above_floor(self):
        spec = model.build_toy_model(2, 30.0)
        halved = model.LvcmSpec(spec.delta, spec.kappa / 2, spec.nu)
        assert np.allclose(sdf_durations(halved), np.array(sdf_durations(spec)) / 2, rtol=1e-12, atol=0)

    def test_floor_binds_at_weak_coupling(self):
        _, floor = HardwareParams().calibration_for(2)
        assert np.allclose(sdf_durations(model.build_toy_model(2, 1.0)), floor, rtol=1e-12, atol=0)

    def test_unsupported_chain(self):
        spec = model.build_toy_model(7, 1.0)  # needs ceil(7/2)+1 = 5 ions
        with pytest.raises(UnsupportedChainError):
            build_schedule(spec, 400.0, 10)


class TestScheduleTotals:
    def test_ion_count_rule(self):
        assert ions_for(model.build_toy_model(2, 1.0)) == 2
        assert ions_for(model.build_toy_model(3, 1.0)) == 3
        assert ions_for(model.build_toy_model(4, 1.0)) == 3
        assert ions_for(model.build_toy_model(5, 1.0)) == 4

    def test_operation_time_endpoints(self):
        sch_low = build_schedule(model.build_toy_model(2, 1.0), 400.0, 600)
        assert sch_low.operation_time_us() / 1e3 == pytest.approx(5.0, rel=0.25)
        sch_high = build_schedule(model.build_toy_model(5, 30.0), 400.0, 600)
        assert sch_high.operation_time_us() / 1e3 == pytest.approx(57.0, rel=0.25)

    def test_totals_equal_sum_of_durations(self):
        sch = build_schedule(model.build_toy_model(2, 5.0), 400.0, 64)
        assert sch.operation_time_us() == pytest.approx(
            sum(p.duration_us for p in sch.pulses), rel=1e-12
        )

    @pytest.mark.parametrize("lam", [5.0, 0.0], ids=["pulses", "no-pulses"])
    def test_operation_times_at_every_step_boundary(self, lam):
        sch = build_schedule(model.build_toy_model(2, lam), 400.0, 8)
        ref = [0.0]
        for k in range(1, sch.steps + 1):
            total = 0.0
            for p in sch.ops:
                if p.step < k:
                    total += p.duration_us
            ref.append(total)
        assert sch.operation_times_us() == ref
        assert (ref[-1] > 0) == (lam > 0)

    def test_s_invariance_above_floor(self):
        a = build_schedule(model.build_toy_model(2, 30.0), 400.0, 600)
        b = build_schedule(model.build_toy_model(2, 30.0), 400.0, 1200)
        assert a.operation_time_us() == pytest.approx(b.operation_time_us(), rel=1e-12)

    def test_ms_rabi_ceiling_rejection(self):
        spec = onehot_spec()
        with pytest.raises(InfeasibleScheduleError, match="step 0"):
            build_schedule(spec, 400.0, 512)  # default 4.95 kHz ceiling

    def test_serialization_format(self):
        sch = build_schedule(model.build_toy_model(2, 1.0), 400.0, 2)
        text = sch.serialize()
        lines = text.splitlines()
        assert lines[0] == "# ionvib pulse schedule v1"
        assert "# n_ions 2" in text and "# encoding dense" in text
        body = [ln for ln in lines if not ln.startswith("#")]
        assert len(body) == 4  # 2 modes x 2 steps
        fields = body[0].split()
        assert fields[0] == "0" and fields[1] == "sdf" and fields[2] == "0" and fields[3] == "0"
        assert len(fields) == 9

    def test_serialization_stable(self):
        a = build_schedule(model.build_toy_model(2, 1.0), 400.0, 2).serialize()
        b = build_schedule(model.build_toy_model(2, 1.0), 400.0, 2).serialize()
        assert a == b


class TestFrameBookkeeping:
    def test_virtual_ops_cancel_per_term(self):
        # each step of this model has one conjugated term, so per step is per term
        spec = model.build_ci_model(0.02, 0.02, 0.08, 0.08)
        sch = build_schedule(spec, 400.0, 4)
        assert any(p.virtual for p in sch.ops)
        qubit = hb.SpaceLayout(1, ())
        for step in range(sch.steps):
            virt = [p for p in sch.ops if p.step == step and p.virtual]
            prod = np.eye(2, dtype=complex)
            for p in virt:
                prod = np.column_stack([pulses.apply_pulse(col, p, qubit, {}) for col in prod.T])
            assert np.allclose(prod, np.eye(2), atol=1e-12)

    def test_initial_state_reads_back_at_zero(self):
        for spec in (model.build_toy_model(2, 1.0), onehot_spec()):
            for initial in range(spec.state_count):
                sch = build_schedule(spec, 400.0, 2, hardware=RELAXED, initial_state=initial)
                layout = pulses.hardware_layout(sch, (4,) * spec.mode_count)
                psi = pulses.hardware_initial_vector(sch, layout)
                pops = pulses.readout_populations(sch, layout, psi, 0.0)
                assert pops[initial] == pytest.approx(1.0)
                assert pops.sum() == pytest.approx(1.0)

    def test_onehot_readout_is_qubit_marginal(self):
        # Gaussian-integer amplitudes make every product and sum exact, so the marginals
        # are compared bit for bit; the one-hot frame must not touch them at any time
        sch = build_schedule(onehot_spec(), 400.0, 2, hardware=RELAXED)
        layout = pulses.hardware_layout(sch, (4,))
        rng = np.random.default_rng(3)

        def gaussian_ints(*shape):
            return rng.integers(-999, 1000, shape) + 1j * rng.integers(-999, 1000, shape)

        psi = gaussian_ints(layout.dim)
        a = gaussian_ints(layout.dim, layout.dim)
        excited = [
            (np.eye(layout.dim) - hb.pauli(layout, q, "Z").toarray()) / 2 for q in range(sch.qubit_count)
        ]
        for state in (psi, a @ a.conj().T):
            data = hb.QuantumState(layout, state, validate=False)
            marginals = [hb.expectation(data, p).real for p in excited]
            for t_fs in np.linspace(0.0, 400.0, 41):
                assert np.array_equal(pulses.readout_populations(sch, layout, state, t_fs), marginals)

    def test_correction_is_unitary_at_any_time(self):
        mapping = map_spec(model.build_toy_model(2, 1.0))
        for t in (0.0, 17.3, 400.0):
            v = mapping.correction(t)
            assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-12)


class TestIdealComposition:
    def test_first_order_error_halves(self):
        spec = model.build_toy_model(2, 5.0)
        devs = {}
        for steps in (64, 128):
            grid = [steps // 4 * g for g in range(5)]
            sch = build_schedule(spec, 400.0, steps)
            tr = compose_ideal(sch, (16, 14), grid)
            ex = exact.propagate(
                exact.PropagationRequest(spec=spec, times_fs=tr.times_fs, cutoffs=(16, 14))
            )
            devs[steps] = np.max(np.abs(tr.populations - ex.populations))
        assert devs[64] / devs[128] >= 1.8

    def test_intersection_model_matches_exact(self):
        spec = model.build_ci_model(0.02, 0.02, 0.08, 0.08)
        steps = 256
        grid = [steps // 4 * g for g in range(5)]
        sch = build_schedule(spec, 400.0, steps)
        tr = compose_ideal(sch, (10, 10), grid)
        ex = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=tr.times_fs, cutoffs=(10, 10))
        )
        assert np.max(np.abs(tr.populations - ex.populations)) < 0.02

    def test_three_mode_transfer_model_matches_exact(self):
        spec = model.build_vaet_model(0.0, 0.02, 0.03, 0.01, 0.012, -0.008, 0.015, (0.05, 0.06, 0.07))
        steps = 256
        grid = [steps // 4 * g for g in range(5)]
        sch = build_schedule(spec, 400.0, steps)
        kinds = {p.kind for p in sch.pulses}
        assert "disp" in kinds  # trace part of the one-sided couplings
        assert "carrier" in kinds  # energy-gap rotations
        tr = compose_ideal(sch, (6, 6, 6), grid)
        ex = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=tr.times_fs, cutoffs=(6, 6, 6))
        )
        assert np.max(np.abs(tr.populations - ex.populations)) < 5e-3

    @pytest.mark.parametrize("phase", [0.0, 0.6])
    def test_onehot_paths_match_exact(self, phase):
        spec = onehot_spec(offdiag_phase=phase)
        steps = 256
        grid = [steps // 4 * g for g in range(5)]
        sch = build_schedule(spec, 400.0, steps, hardware=RELAXED)
        tr = compose_ideal(sch, (8,), grid)
        ex = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=tr.times_fs, cutoffs=(8,))
        )
        assert np.max(np.abs(tr.populations - ex.populations)) < 0.03

    def test_driven_model_matches_exact_and_converges(self):
        env = model.Envelope("constant", amplitude=1.0)
        pol = (1 / math.sqrt(2), 1j / math.sqrt(2))
        spec = model.build_plet_model(
            (0.0, 2.00, 2.02, 1.98), (0.012, 0.0), (0.0, 0.012), 0.01, 0.01, pol, 2.00, env
        )
        devs = {}
        for steps in (128, 256):
            grid = [steps // 4 * g for g in range(5)]
            sch = build_schedule(spec, 400.0, steps, hardware=RELAXED)
            tr = compose_ideal(sch, (), grid)
            ex = exact.propagate(
                exact.PropagationRequest(spec=spec, times_fs=tr.times_fs, cutoffs=())
            )
            devs[steps] = np.max(np.abs(tr.populations - ex.populations))
        assert devs[256] < 0.01
        assert devs[128] / devs[256] > 1.5

    def test_physical_rotation_mode(self):
        # physical mode replaces virtual conjugations with real carrier pulses;
        # the ideal composition must agree with the software-frame result
        spec = model.build_ci_model(0.02, 0.02, 0.08, 0.08)
        steps = 64
        grid = [steps // 2 * g for g in range(3)]
        soft = build_schedule(spec, 400.0, steps)
        hard = build_schedule(spec, 400.0, steps, physical_rotations=True)
        assert sum(1 for p in hard.ops if p.virtual) == 0
        assert hard.operation_time_us() > soft.operation_time_us()
        tr_s = compose_ideal(soft, (8, 8), grid)
        tr_h = compose_ideal(hard, (8, 8), grid)
        assert np.max(np.abs(tr_s.populations - tr_h.populations)) < 1e-10


# --- full-space oracle: every operator kron-embedded on the whole layout ----------


def sigma_phi(layout, qubit, phi):
    """Equatorial spin operator e^{-i phi} |1><0| + e^{+i phi} |0><1| on one qubit."""
    return np.exp(-1j * phi) * hb.pauli(layout, qubit, "plus") + np.exp(1j * phi) * hb.pauli(layout, qubit, "minus")


def quadrature(layout, mode, phi_m):
    """b e^{+i phi_m} + b^dag e^{-i phi_m} on one mode."""
    b = hb.annihilation(layout, mode) * np.exp(1j * phi_m)
    return b + b.getH()


def full_space_generator(op, layout):
    """Unit-angle generator of one native op as a sparse matrix on the whole layout."""
    if op.kind == "carrier":
        return 0.5 * sigma_phi(layout, op.qubits[0], op.phis[0])
    if op.kind == "sdf":
        return sigma_phi(layout, op.qubits[0], op.phis[0]) @ quadrature(layout, op.mode, op.phi_m)
    if op.kind == "ms":
        return sigma_phi(layout, op.qubits[0], op.phis[0]) @ sigma_phi(layout, op.qubits[1], op.phis[1])
    return quadrature(layout, op.mode, op.phi_m)  # disp


def full_space_collapse_ops(layout, qubits, rates):
    """Dense collapse operators of one pulse: every mode's always-on ones, then laser Z on ``qubits``."""
    l_ops = []
    for k in range(layout.mode_count):
        if "motional_dephasing" in rates:
            l_ops.append(math.sqrt(2 * rates["motional_dephasing"]) * hb.number_operator(layout, k).toarray())
        if "heating" in rates:
            l_ops.append(math.sqrt(rates["heating"]) * hb.annihilation(layout, k).toarray().conj().T)
    if "laser_dephasing" in rates:
        for q in qubits:
            l_ops.append(math.sqrt(rates["laser_dephasing"] / 2) * hb.pauli(layout, q, "Z").toarray())
    return l_ops


def test_sigma_phi_axes():
    layout = hb.SpaceLayout(1, (4, 3))
    x = hb.pauli(layout, 0, "X").toarray()
    y = hb.pauli(layout, 0, "Y").toarray()
    assert np.allclose(sigma_phi(layout, 0, 0.0).toarray(), x)
    assert np.allclose(sigma_phi(layout, 0, -math.pi / 2).toarray(), y)


def _kernel_schedules():
    env = model.Envelope("constant", amplitude=1.0)
    pol = (1 / math.sqrt(2), 1j / math.sqrt(2))
    plet = model.build_plet_model(
        (0.0, 2.00, 2.02, 1.98), (0.012, 0.0), (0.0, 0.012), 0.01, 0.01, pol, 2.00, env
    )
    vaet = model.build_vaet_model(0.0, 0.02, 0.03, 0.01, 0.012, -0.008, 0.015, (0.05, 0.06, 0.07))
    return {
        "ci": (build_schedule(model.build_ci_model(0.02, 0.02, 0.08, 0.08), 400.0, 6), (5, 4)),
        "vaet": (build_schedule(vaet, 400.0, 4), (3, 4, 3)),
        "onehot": (build_schedule(onehot_spec(0.6), 400.0, 4, hardware=RELAXED), (5,)),
        "onehot-physical": (
            build_schedule(onehot_spec(0.6), 400.0, 4, hardware=RELAXED, physical_rotations=True),
            (5,),
        ),
        "plet": (build_schedule(plet, 400.0, 6, hardware=RELAXED), ()),
    }


class TestLocalKernel:
    @pytest.mark.parametrize("name", ["ci", "vaet", "onehot", "onehot-physical", "plet"])
    def test_every_op_matches_full_space_exponential(self, name):
        sch, cutoffs = _kernel_schedules()[name]
        layout = hb.SpaceLayout(sch.qubit_count, cutoffs)
        assert any(p for op in sch.ops for p in op.phis)
        if cutoffs:
            assert any(op.phi_m for op in sch.ops)
        rng = np.random.default_rng(5)
        unitaries = {}
        for op in sch.ops:
            psi = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
            psi /= np.linalg.norm(psi)
            ref = expm_multiply(-1j * op.angle * full_space_generator(op, layout), psi)
            got = pulses.apply_pulse(psi, op, layout, unitaries)
            assert np.abs(got - ref).max() <= 1e-12, op

    def test_schedule_covers_every_op_kind(self):
        kinds = {(op.kind, op.virtual) for sch, _ in _kernel_schedules().values() for op in sch.ops}
        for kind in ("carrier", "sdf", "ms", "disp"):
            assert (kind, False) in kinds
        assert {("carrier", True), ("ms", True)} <= kinds


def test_serialization_golden():
    # frozen byte-level format; update deliberately if the format version bumps
    sch = build_schedule(model.build_toy_model(2, 1.0), 400.0, 1)
    expected = (
        "# ionvib pulse schedule v1\n"
        "# steps 1\n"
        "# tau_fs 400.0\n"
        "# n_ions 2\n"
        "# qubits 1\n"
        "# encoding dense\n"
        "# operation_time_us 3439.697661132443\n"
        "# overhead_us 4250.0\n"
        "# columns: step kind qubits mode phi phi_m rabi_khz duration_us frame_tag\n"
        "0 sdf 0 0 26.371444362 -26.371444362 3.564467 1719.848831 eq\n"
        "0 sdf 0 1 26.371444362 -30.139227633 3.564467 1719.848831 eq\n"
    )
    assert sch.serialize() == expected


def _golden_schedules():
    """One schedule per lowering path, at a few Trotter steps each."""
    pol = (1 / math.sqrt(2), 1j / math.sqrt(2))
    envs = {
        "const": model.Envelope("constant", amplitude=1.0),
        "gauss": model.Envelope("gaussian", amplitude=0.7, center_fs=200.0, width_fs=80.0),
    }
    vaet = model.build_vaet_model(0.0, 0.02, 0.03, 0.01, 0.012, -0.008, 0.015, (0.05, 0.06, 0.07))
    # two-state driven model: the dense encoding's conjugated carrier path
    kappa = np.zeros((2, 2, 1), complex)
    kappa[0, 0, 0], kappa[1, 1, 0] = EV(0.01), EV(-0.01)
    drive = model.DriveSpec(((0, 1),), ((0.012, 0.0),), pol, EV(2.0), envs["gauss"], rotating_states=(1,))
    dense_drive = model.LvcmSpec([[0.0, EV(0.006)], [EV(0.006), EV(2.01)]], kappa, [EV(0.05)], drive=drive)
    # equal-energy one-hot pair: its ocoup halves have an exact zero coupling phase
    kappa = np.zeros((3, 3, 1), complex)
    kappa[0, 2, 0] = kappa[2, 0, 0] = EV(0.008)
    cases = {
        "ci": (model.build_ci_model(0.02, 0.02, 0.08, 0.08), None, False),
        "vaet": (vaet, None, False),
        "dense-drive": (dense_drive, RELAXED, False),
        "onehot-zero-phase": (model.LvcmSpec(np.zeros((3, 3)), kappa, [EV(0.05)]), RELAXED, False),
    }
    for phase in (0.0, 0.6):
        for physical in (False, True):
            cases[f"onehot-{phase}-physical-{physical}"] = (onehot_spec(phase), RELAXED, physical)
    for env in envs:
        for rwa in (True, False):
            plet = model.build_plet_model(
                (0.0, 2.00, 2.02, 1.98), (0.012, 0.0), (0.0, 0.012), 0.01, 0.01, pol, 2.00, envs[env], rwa=rwa
            )
            cases[f"plet-{env}-{'rwa' if rwa else 'lab'}"] = (plet, RELAXED, False)
    return cases


SCHEDULE_SHA256 = {
    "ci": "44f58409ca8bc55b039fd4bb2a24115bb1783fec5dcbc5dad2b873aca76f21d5",
    "dense-drive": "b28313704ad635234ce98070d01633c74bf39cac18c1714b00f6a6e42e6b21b3",
    "onehot-0.0-physical-False": "ab75482173bf49298710046c07d2318d725b49818df6f26f69750883d99bcd91",
    "onehot-0.0-physical-True": "8fae348a81cf50c434bf98d1e9e62de7b7e11f64f64999c3973f26825346358c",
    "onehot-0.6-physical-False": "7314bbe001d35671214e29f9b21778a8ed13019d9e91795e4870dfa090e768a7",
    "onehot-0.6-physical-True": "5e08f0aed0ceb1dd919d0e54ae49387e6740a3753a8b4e97d99ddafb2f91abb9",
    "onehot-zero-phase": "2002b20344d7222b781a0c5b20912e122a4a7ab56c2126af7bfd04585effaef3",
    "plet-const-lab": "17742958eb105bb1bea0954c2e2ff6c8bca417b82c3d2705869e99f8c97c4669",
    "plet-const-rwa": "0007463a23a18aae73bed2ebf4d3ae04d327403bfc34424376861fd578d567e3",
    "plet-gauss-lab": "5635eb5936d36e199f85f1d53217f10ac4cb7c48f99db9a7e2436b869b05d2bc",
    "plet-gauss-rwa": "d0485041e5702420fcbfb0d295d6686f3d8579cddf515febc4df0088990ffb96",
    "vaet": "c61122aa83e9db106412b5fd4e6d1c86ffed4ae65ed146e75ecf8d89a30f0437",
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_SHA256))
def test_serialization_golden_every_path(name):
    # frozen bytes of each lowering path, signed zeros included
    spec, hardware, physical = _golden_schedules()[name]
    text = build_schedule(spec, 400.0, 6, hardware=hardware, physical_rotations=physical).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_SHA256[name]


def _pinned_schedules():
    """Every lowering path, plus the vaet preset and the toy model at N = 1..5."""
    cases = _golden_schedules()
    cases["vaet-preset"] = (config.spec_from_sections({"model": {"preset": "vaet"}}), None, False)
    for n in range(1, 6):
        cases[f"toy-{n}"] = (model.build_toy_model(n, 5.0), None, False)
    return cases


#: frozen digests; any change to an op's floats, even in the last bit, shows here
OPS_SHA256 = {
    "ci": "d9ae3ce27eceb82822225b91e6cfe207b13d8c36551675ad8ec62fe56486399d",
    "dense-drive": "937a46de3c2d04b0130b1176f1fdc71f99d5ca4035b09f8c92fd3be53557a900",
    "onehot-0.0-physical-False": "8392275c8e125906935698bc68ec2a535d2bff5e0d613b58f8b2ec82fad3f7ae",
    "onehot-0.0-physical-True": "42a805a52d9ab95867504e2444e88f5c0c27dbb6d6e6a3775ed81136d9007e21",
    "onehot-0.6-physical-False": "019520a2f0226c511186de641974ff94a34531c1ac475067becd3d74f9c6c395",
    "onehot-0.6-physical-True": "8aaf9dcfa2c6eda3cef6e1408115811b7e07bc81cf2acb6cc507415302750c7a",
    "onehot-zero-phase": "d432d60f755815072ebe34e9c3a5a6a2181499e8bdd819d22cee67c7588dfb11",
    "plet-const-lab": "71184bf86bbfb1328535eb775a48c432443b00d3e952344b449789fa78db6703",
    "plet-const-rwa": "e182f38813bc863185c839392037b12557df97a3a5c9cfff71b8ddc8a73cabbd",
    "plet-gauss-lab": "02be6574d764605ab21d6602256ea970db3a55c63ed7bf1da46b5a9fffb8d058",
    "plet-gauss-rwa": "e0ff73efe754f332ae69c0c52b2015994d2f8fe85c84f348a874119e1d05f56d",
    "toy-1": "0eb3f565d0f87b5ec29b6a53597b734da44093cca32e79696fb4a9a0b317fd7a",
    "toy-2": "7a0cc8376160d56c5c791d79fb6f773e1152343347473bc76ca782975ad22226",
    "toy-3": "0e8cc6712d399592ba917408fccc5daf89b89ec0cbd5da1ad1a9c38e07c1ae39",
    "toy-4": "f51ceb89b67f89e220f99563661b5a65733755803f00df1af08d376409531d85",
    "toy-5": "aff49d036a9e6b52ada29ce7979256481d6da63d14f5d620648d5dc56b728a36",
    "vaet": "7671fda3278d144de25608ce34471d0639071a4996c0bc5d43e630ac05c50be9",
    "vaet-preset": "fdeec6f4e0e456436143035a59d7b088c16b55dd31e6c4e99b28e9402921fa5e",
}


@pytest.mark.parametrize("name", sorted(OPS_SHA256))
def test_ops_pinned_at_full_precision(name):
    # the schedule's bytes, then every op's floats bit for bit (signed zeros included)
    spec, hardware, physical = _pinned_schedules()[name]
    sch = build_schedule(spec, 400.0, 7, hardware=hardware, physical_rotations=physical)
    digest = hashlib.sha256(sch.serialize().encode())
    for op in sch.ops:
        fields = (op.angle, op.duration_us, op.rabi_khz, op.phi_m, *op.phis)
        digest.update((" ".join(float(x).hex() for x in fields) + "\n").encode())
    assert digest.hexdigest() == OPS_SHA256[name]


class TestConjugationProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        x=st.floats(-1, 1, allow_nan=False),
        y=st.floats(-1, 1, allow_nan=False),
        z=st.floats(-1, 1, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_carrier_conjugation_reaches_any_axis(self, x, y, z):
        from hypothesis import assume

        n = np.array([x, y, z])
        r = np.linalg.norm(n)
        assume(r > 1e-6)
        n = n / r
        beta, phi_c, phi0 = pulses._conjugation_ops(n)
        qubit = hb.SpaceLayout(1, ())
        carrier = pulses.NativePulse(0, "carrier", (0,), None, (phi_c,), 0.0, beta, 0.0, 0.0, True, "virt")

        def unitary_on_columns(m):
            return np.column_stack([pulses.apply_pulse(col, carrier, qubit, {}) for col in m.T])

        # U sigma U^dag as (U (U sigma)^dag)^dag
        got = unitary_on_columns(unitary_on_columns(sigma_phi(qubit, 0, phi0).toarray()).conj().T).conj().T
        x_p = np.array([[0, 1], [1, 0]], dtype=complex)
        y_p = np.array([[0, -1j], [1j, 0]])
        z_p = np.diag([1.0, -1.0]).astype(complex)
        target = n[0] * x_p + n[1] * y_p + n[2] * z_p
        assert np.abs(got - target).max() < 1e-10
