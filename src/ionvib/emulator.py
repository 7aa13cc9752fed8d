"""Noisy trapped-ion emulation: Lindblad propagation of a pulse schedule.

The emulator propagates the hardware system (qubits (x) motional modes) as a
density matrix through the schedule, pulse by pulse, in lab time:

    drho/dt = -i [H_pulse, rho] + sum_j (L_j rho L_j^dag - 1/2 {L_j^dag L_j, rho})

with H_pulse = (angle/duration) * generator (rad/us) and collapse operators

- motional dephasing  sqrt(2 gamma_m) a^dag a   per mode, always on,
- heating             sqrt(Gamma_h) a^dag       per mode, always on (upward
  only),
- laser dephasing     sqrt(gamma_L / 2) Z       per qubit, only while a pulse
  addresses that qubit.

Rates come from the hardware coherence times: a coherence time T means
adjacent-level coherences decay as e^{-t/T}, so gamma_m = 1/T_motional and
gamma_L = 1/T_laser; the heating rate is quoted in quanta/s and converted to
1/us.  The rates are read from :class:`~ionvib.pulses.HardwareParams` alone;
:class:`NoiseChannels` only switches channels on or off.  Virtual frame ops
take zero lab time and apply as exact unitaries.  Cooling, state preparation,
and measurement intervals are not noise-integrated (the state is re-prepared
every run).

Each pulse is a constant-generator segment, and every collapse operator acts
on a single tensor factor, so a pulse's propagator factors exactly:

    exp(t L) = exp(t L_loc) (x) prod_{idle modes k} exp(t D_k)

L_loc acts on the ket and bra axes of the pulse's own qubits and mode: the
pulse Hamiltonian, the always-on dissipators of its mode, and laser dephasing
of its qubits.  D_k is the always-on dissipator of an idle mode; idle qubits
do not evolve.  The factors act on disjoint axes and commute, so there is no
splitting error, and no full-space operator is ever built.

The pulse phases are diagonal conjugations D (see :mod:`ionvib.pulses`) and
every dissipator is invariant under them (D a^dag D^dag = e^{-i phi} a^dag;
n and Z are diagonal), so exp(t L_loc) = Ad(D) S0 Ad(D^dag) with a zero-phase
superoperator S0 = exp(t L0) that depends only on (kind, angle, duration,
cutoff).  S0 is block-diagonal over the connected components of L0's
sparsity graph (an sdf pulse under heating has two, split by the parity of
the ket and bra excitation numbers).  Each block is exponentiated densely
(``scipy.linalg.expm``) once per :func:`emulate` call while all blocks
together fit :data:`DENSE_BYTES`; larger local spaces apply ``expm_multiply``
to the sparse zero-phase generator instead.  The idle-mode channels are
cached the same way by (cutoff, duration).

Trace and positivity are checked after every pulse with a duration, in
every run: the trace stays within 1e-6 of 1, and the Hermitian part of rho
plus 1e-6 I has a Cholesky factor, which it has exactly when the Hermitian
part's smallest eigenvalue exceeds -1e-6.
Before allocating anything, :func:`emulate` checks that rho and its working
copies fit :data:`RHO_BYTES_LIMIT`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, get_lapack_funcs

from .errors import InvalidModelError, NumericalFailureError
from .hilbert import SpaceLayout, annihilation, number_operator, pauli
from .pulses import (
    HardwareParams,
    PulseSchedule,
    apply_pulse,
    base_generator,
    hardware_initial_vector,
    hardware_layout,
    pulse_factors,
    walk_schedule,
)
from .trace import PopulationTrace
from .units import US_PER_MS, US_PER_S

#: most bytes a cached dense local superoperator may take, summed over its
#: blocks; larger local spaces are propagated by ``expm_multiply``
DENSE_BYTES = 2**25
#: most bytes the density matrix and its working copies may take
RHO_BYTES_LIMIT = 2**31
#: the density matrix plus the working copies one step makes of it (about 6
#: measured on the ``expm_multiply`` path, the larger one)
RHO_COPIES = 8


@dataclass(frozen=True)
class NoiseChannels:
    """Per-channel enable flags, one per ``[ion]`` config key."""

    motional_dephasing: bool = True
    heating: bool = True
    laser_dephasing: bool = True

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
        rates["motional_dephasing"] = 1.0 / (hardware.motional_coherence_ms * US_PER_MS)
    if channels.heating:
        rates["heating"] = hardware.heating_rate_quanta_per_s / US_PER_S
    if channels.laser_dephasing:
        rates["laser_dephasing"] = 1.0 / (hardware.laser_coherence_ms * US_PER_MS)
    return rates


def _collapse_ops(n_qubits: int, cutoff: int, rates: dict) -> list:
    """Collapse operators on an op's own factors: its qubits, then its mode (if ``cutoff``).

    Laser Z acts on each of the qubits; the always-on operators act on the mode.
    """
    local = SpaceLayout(n_qubits, (cutoff,) if cutoff else ())
    ops = []
    if "laser_dephasing" in rates:
        ops += [math.sqrt(rates["laser_dephasing"] / 2.0) * pauli(local, j, "Z") for j in range(n_qubits)]
    if cutoff:
        if "motional_dephasing" in rates:
            ops.append(math.sqrt(2.0 * rates["motional_dephasing"]) * number_operator(local, 0))
        if "heating" in rates:
            ops.append(math.sqrt(rates["heating"]) * annihilation(local, 0).T)
    return ops


def _liouvillian(h, collapse_ops) -> sp.csr_matrix:
    """-i[h, .] + sum of dissipators, acting on the row-major vec(rho) of h's space."""
    ident = sp.identity(h.shape[0], dtype=complex, format="csr")
    lio = -1j * (sp.kron(h, ident) - sp.kron(ident, h.T))
    for l_op in collapse_ops:
        ldl = l_op.getH() @ l_op
        lio = lio + sp.kron(l_op, l_op.conj()) - 0.5 * sp.kron(ldl, ident) - 0.5 * sp.kron(ident, ldl.T)
    return lio.tocsr()


def _propagator(lio: sp.csr_matrix, t_us: float):
    """exp(t L) as dense blocks [(indices, block)] when they fit, else the sparse t L."""
    from scipy.sparse.csgraph import connected_components  # only the noisy path needs it

    graph = abs(lio)
    graph.eliminate_zeros()
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    if 16 * sum(b.size**2 for b in blocks) > DENSE_BYTES:
        return t_us * lio
    return [(b, expm(t_us * lio[b][:, b].toarray())) for b in blocks]


def _apply_channel(t: np.ndarray, prop, axes: list, w: np.ndarray | None = None) -> np.ndarray:
    """Apply a local propagator to the ket and bra ``axes`` of rho's tensor ``t``.

    ``prop`` comes from :func:`_propagator`.  ``w`` holds the phases of Ad(D)
    on the local (ket, bra) pairs; the propagator applied is Ad(D) prop Ad(D^dag).
    """
    half = t.ndim // 2
    local = axes + [half + a for a in axes]
    front = list(range(len(local)))
    m = np.moveaxis(t, local, front)
    shape = m.shape
    m = np.ascontiguousarray(m.reshape(math.prod(shape[: len(local)]), -1))
    if w is not None:
        m = w.conj()[:, None] * m
    if sp.issparse(prop):
        from scipy.sparse.linalg import expm_multiply  # only oversized local spaces need it

        out = expm_multiply(prop, m)
    else:
        out = np.empty_like(m)
        for idx, block in prop:
            out[idx] = block @ m[idx]
    if w is not None:
        out *= w[:, None]
    return np.moveaxis(out.reshape(shape), front, local)


def _check_state(rho, trace_tol=1e-6, eig_tol=1e-6, context=""):
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= trace_tol:
        raise NumericalFailureError(f"trace deviated to {tr:.8f} {context}")
    # twice (Hermitian part + eig_tol I) has a Cholesky factor exactly when the
    # smallest eigenvalue of the Hermitian part exceeds -eig_tol.  Its
    # transpose is its conjugate, with the same eigenvalues, and is already in
    # the column-major order LAPACK factors in place.
    shifted = rho + rho.conj().T
    shifted[np.diag_indices_from(shifted)] += 2.0 * eig_tol
    (potrf,) = get_lapack_funcs(("potrf",), (shifted,))
    factor, info = potrf(shifted.T, lower=True, clean=False, overwrite_a=True)
    if info != 0 or not np.isfinite(np.diagonal(factor)).all():
        raise NumericalFailureError(f"density matrix lost positivity {context}")


def lindblad_step(
    rho: np.ndarray,
    pulse,
    channels: NoiseChannels,
    hardware: HardwareParams,
    layout,
    cache: dict | None = None,
) -> np.ndarray:
    """Propagate a density matrix through one pulse (or virtual op).

    Zero-duration ops apply their unitary on their own tensor factors
    (:func:`~ionvib.pulses.apply_pulse`).  Pulses with a duration apply
    exp(t L_loc) on their own factors and the idle-mode channels on the other
    modes, as in the module docstring, then check the trace and positivity of
    the result (:class:`~ionvib.errors.NumericalFailureError` on a violation).
    ``cache`` holds the zero-phase unitaries and propagators by key; it
    belongs to one :func:`emulate` call, whose channels and hardware it
    assumes.
    """
    cache = {} if cache is None else cache
    if pulse.virtual or pulse.duration_us == 0.0:
        return apply_pulse(rho, pulse, layout, cache)
    rates = channel_rates_per_us(channels, hardware)
    t_us = pulse.duration_us
    axes, d, cutoff = pulse_factors(pulse, layout)
    key = (pulse.kind, pulse.angle, t_us, cutoff)
    prop = cache.get(key)
    if prop is None:
        h0 = (pulse.angle / t_us) * sp.csr_matrix(base_generator(pulse.kind, cutoff))
        collapse = _collapse_ops(len(pulse.qubits), cutoff, rates)
        prop = cache[key] = _propagator(_liouvillian(h0, collapse), t_us)
    t = _apply_channel(rho.reshape(layout.factors() * 2), prop, axes, np.kron(d, d.conj()))
    if "motional_dephasing" in rates or "heating" in rates:
        for k, dk in enumerate(layout.mode_cutoffs):
            if k == pulse.mode:
                continue
            prop = cache.get((dk, t_us))
            if prop is None:
                free = sp.csr_matrix((dk, dk), dtype=complex)
                idle = _liouvillian(free, _collapse_ops(0, dk, rates))
                prop = cache[(dk, t_us)] = _propagator(idle, t_us)
            t = _apply_channel(t, prop, [layout.qubit_count + k])
    rho = t.reshape(rho.shape)
    _check_state(rho, context=f"after {pulse.kind} pulse at step {pulse.step}")
    return rho


def emulate(
    schedule: PulseSchedule,
    channels: NoiseChannels,
    cutoffs,
    grid_steps,
    policy: MeasurementPolicy | None = None,
) -> PopulationTrace:
    """Propagate once through the schedule, reading populations at grid steps.

    ``grid_steps`` are Trotter-step indices; each run of the real experiment
    stops at one of them, so a single pass with snapshots reproduces the whole
    measured curve.  With a :class:`MeasurementPolicy`, binomially sampled
    populations and their shot-noise estimates are attached.  A density matrix
    that would not fit :data:`RHO_BYTES_LIMIT` with its working copies raises
    :class:`~ionvib.errors.InvalidModelError` before anything is allocated.
    """
    grid_steps = list(grid_steps)
    layout = hardware_layout(schedule, cutoffs)
    need = RHO_COPIES * 16 * layout.dim**2
    if need > RHO_BYTES_LIMIT:
        raise InvalidModelError(
            f"a density matrix of dimension {layout.dim} needs {need} bytes with its working "
            f"copies, above the {RHO_BYTES_LIMIT}-byte limit"
        )
    cache = {}

    def step(rho, op):
        return lindblad_step(rho, op, channels, schedule.hardware, layout, cache)

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

