"""Noisy trapped-ion emulation: Lindblad propagation of a pulse schedule.

The emulator propagates the hardware system (qubits (x) motional modes) as a
density matrix through the schedule, pulse by pulse, in lab time:

    drho/dt = -i [H_pulse, rho] + sum_j (L_j rho L_j^dag - 1/2 {L_j^dag L_j, rho})

with H_pulse = (angle/duration) * generator (rad/us) and collapse operators

- motional dephasing  sqrt(2 gamma_m) a^dag a   per mode, always on,
- heating             sqrt(Gamma_h) a^dag       per mode, always on (upward
  only; the symmetric variant adds sqrt(Gamma_h) a behind a flag),
- laser dephasing     sqrt(gamma_L / 2) Z       per qubit, only while a pulse
  addresses that qubit.

Rates come from the hardware coherence times: a coherence time T means
adjacent-level coherences decay as e^{-t/T}, so gamma_m = 1/T_motional and
gamma_L = 1/T_laser; the heating rate is quoted in quanta/s and converted to
1/us.  Virtual frame ops take zero lab time and apply as exact unitaries.
Cooling, state preparation, and measurement intervals are not noise-integrated
(the state is re-prepared every run).

Each pulse is a constant-generator segment, so the Liouvillian is exponentiated
exactly (Krylov expm on the vectorized density matrix); trace and positivity
are checked after every pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from . import hilbert as hb
from .errors import InvalidModelError, NumericalFailureError
from .pulses import (
    HardwareParams,
    PulseSchedule,
    apply_pulse,
    hardware_initial_vector,
    hardware_layout,
    pulse_generator,
    walk_schedule,
)
from .trace import PopulationTrace
from .units import US_PER_MS, US_PER_S


@dataclass(frozen=True)
class NoiseChannels:
    """Per-channel enable flags and rate multipliers."""

    motional_dephasing: bool = True
    heating: bool = True
    laser_dephasing: bool = True
    motional_dephasing_scale: float = 1.0
    heating_scale: float = 1.0
    laser_dephasing_scale: float = 1.0
    symmetric_heating: bool = False

    @classmethod
    def all_off(cls) -> "NoiseChannels":
        return cls(False, False, False)

    def any_active(self) -> bool:
        return self.motional_dephasing or self.heating or self.laser_dephasing


@dataclass(frozen=True)
class MeasurementPolicy:
    """Projective-measurement sampling: runs per time point and the seed."""

    runs_per_point: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.runs_per_point < 1:
            raise InvalidModelError("need at least one run per time point")


def channel_rates_per_us(channels: NoiseChannels, hardware: HardwareParams) -> dict:
    """Active collapse rates in 1/us."""
    rates = {}
    if channels.motional_dephasing:
        rates["motional_dephasing"] = (
            channels.motional_dephasing_scale / (hardware.motional_coherence_ms * US_PER_MS)
        )
    if channels.heating:
        rates["heating"] = channels.heating_scale * hardware.heating_rate_quanta_per_s / US_PER_S
    if channels.laser_dephasing:
        rates["laser_dephasing"] = (
            channels.laser_dephasing_scale / (hardware.laser_coherence_ms * US_PER_MS)
        )
    return rates


class _Liouvillian:
    """Precomputed dissipator pieces for one layout."""

    def __init__(self, layout, channels: NoiseChannels, hardware: HardwareParams):
        self.layout = layout
        self.dim = layout.dim
        rates = channel_rates_per_us(channels, hardware)
        ident = sp.identity(self.dim, dtype=complex, format="csr")
        self._ident = ident
        always = sp.csr_matrix((self.dim**2, self.dim**2), dtype=complex)
        for k in range(layout.mode_count):
            if "motional_dephasing" in rates:
                l_op = math.sqrt(2.0 * rates["motional_dephasing"]) * hb.number_operator(layout, k)
                always = always + self._dissipator(l_op)
            if "heating" in rates:
                a_dag = hb.annihilation(layout, k).getH()
                always = always + self._dissipator(math.sqrt(rates["heating"]) * a_dag)
                if channels.symmetric_heating:
                    a_op = hb.annihilation(layout, k)
                    always = always + self._dissipator(math.sqrt(rates["heating"]) * a_op)
        self.always_on = always
        self.per_qubit = {}
        if "laser_dephasing" in rates:
            for q in range(layout.qubit_count):
                z = hb.pauli(layout, q, "Z")
                self.per_qubit[q] = self._dissipator(math.sqrt(rates["laser_dephasing"] / 2.0) * z)

    def _dissipator(self, l_op):
        l_op = sp.csr_matrix(l_op)
        ldl = (l_op.getH() @ l_op).tocsr()
        ident = self._ident
        return (
            sp.kron(l_op, l_op.conj(), format="csr")
            - 0.5 * sp.kron(ldl, ident, format="csr")
            - 0.5 * sp.kron(ident, ldl.T, format="csr")
        )

    def for_pulse(self, h_matrix, addressed_qubits):
        ident = self._ident
        lio = -1j * (sp.kron(h_matrix, ident, format="csr") - sp.kron(ident, h_matrix.T, format="csr"))
        lio = lio + self.always_on
        for q in addressed_qubits:
            if q in self.per_qubit:
                lio = lio + self.per_qubit[q]
        return lio


def _check_state(rho, trace_tol=1e-6, eig_tol=1e-6, context=""):
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_tol:
        raise NumericalFailureError(f"trace deviated to {tr:.8f} {context}")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise NumericalFailureError(f"density matrix lost positivity {context}")


def lindblad_step(
    rho: np.ndarray,
    pulse,
    channels: NoiseChannels,
    hardware: HardwareParams,
    layout,
    liouvillian: _Liouvillian | None = None,
    check: bool = True,
) -> np.ndarray:
    """Propagate a density matrix through one pulse (or virtual op).

    Zero-duration ops apply their unitary on their own tensor factors
    (:func:`~ionvib.pulses.apply_pulse`); pulses with a duration integrate
    the full Liouvillian.
    """
    if pulse.virtual or pulse.duration_us == 0.0:
        return apply_pulse(rho, pulse, layout, {})
    lio = liouvillian or _Liouvillian(layout, channels, hardware)
    h_rad_us = (pulse.angle / pulse.duration_us) * pulse_generator(pulse, layout)
    full = lio.for_pulse(h_rad_us, pulse.qubits)
    vec = expm_multiply(full * pulse.duration_us, rho.reshape(-1))
    rho = vec.reshape(layout.dim, layout.dim)
    if check:
        _check_state(rho, context=f"after {pulse.kind} pulse at step {pulse.step}")
    return rho


def emulate(
    schedule: PulseSchedule,
    channels: NoiseChannels,
    cutoffs,
    grid_steps,
    policy: MeasurementPolicy | None = None,
    check: bool = True,
) -> PopulationTrace:
    """Propagate once through the schedule, reading populations at grid steps.

    ``grid_steps`` are Trotter-step indices; each run of the real experiment
    stops at one of them, so a single pass with snapshots reproduces the whole
    measured curve.  With a :class:`MeasurementPolicy`, binomially sampled
    populations and their shot-noise estimates are attached.
    """
    grid_steps = list(grid_steps)
    layout = hardware_layout(schedule, cutoffs)
    lio = _Liouvillian(layout, channels, schedule.hardware)

    def step(rho, op):
        return lindblad_step(rho, op, channels, schedule.hardware, layout, lio, check)

    psi = hardware_initial_vector(schedule, layout)
    trace = walk_schedule(schedule, layout, np.outer(psi, psi.conj()), grid_steps, step)
    trace.metadata = {
        "method": "ion-noisy" if channels.any_active() else "ion-ideal-lindblad",
        "steps": schedule.steps,
        "cutoffs": tuple(cutoffs),
        "lab_time_us": schedule.operation_time_us(max(grid_steps, default=0)),
        "channels": {
            "motional_dephasing": channels.motional_dephasing,
            "heating": channels.heating,
            "laser_dephasing": channels.laser_dephasing,
        },
    }
    if policy is not None:
        trace = attach_shot_noise(trace, policy)
    return trace


def shot_noise_sigma(p: float, runs: int) -> float:
    """Binomial sampling uncertainty sqrt(P (1-P) / R)."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / runs)


def sample_populations(populations: np.ndarray, policy: MeasurementPolicy):
    """Draw R binary outcomes per point and return (sampled frequency, sigma).

    Each time point uses an independent stream seeded by (seed, point index),
    so results do not depend on evaluation order.
    """
    populations = np.asarray(populations, dtype=float)
    sampled = np.zeros_like(populations)
    sigma = np.zeros_like(populations)
    r = policy.runs_per_point
    for t in range(populations.shape[0]):
        rng = np.random.default_rng(np.random.SeedSequence([int(policy.seed), t]))
        for i in range(populations.shape[1]):
            p = min(max(populations[t, i], 0.0), 1.0)
            hits = rng.binomial(r, p)
            p_hat = hits / r
            sampled[t, i] = p_hat
            sigma[t, i] = shot_noise_sigma(p_hat, r)
    return sampled, sigma


def attach_shot_noise(trace: PopulationTrace, policy: MeasurementPolicy) -> PopulationTrace:
    sampled, sigma = sample_populations(trace.populations, policy)
    trace.sampled = sampled
    trace.sigma = sigma
    trace.metadata["runs_per_point"] = policy.runs_per_point
    trace.metadata["measurement_seed"] = policy.seed
    trace.metadata["rng"] = "numpy PCG64, SeedSequence([seed, time_index])"
    return trace

