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
to the sparse zero-phase generator instead.  Virtual and other zero-duration
ops apply the channel Ad(U) = exp(-i angle [G, .]) the same way, with no
dissipator.  The idle-mode channels exp(t D_k) are cached by (cutoff,
duration).

One kernel applies every op.  It views rho as a matrix whose rows are the
(ket, bra) pairs (l, l') of the op's own factors and whose columns are the
pairs (r, r') of the other factors: Ad(D) S0 Ad(D^dag) acts on the rows,
each idle-mode channel on the columns.  Every dissipator here (n, a^dag, Z)
keeps each n_k - n'_k, so the columns with r >= r' (a difference vector
n_k - n'_k over the other factors that is lexicographically >= 0) map among
themselves, and the rest of rho is the conjugate of their mirror
(l', l, r', r).  So one gather reads that Hermitian half, the local blocks
multiply it, the idle channels act on it as sparse column operators, and one
scatter writes it and its mirror; the result is exactly Hermitian.  A plan
per set of op axes, cached for the :func:`emulate` call, holds the flat
offsets of the rows, the half columns and their mirrors; the idle column
operators are cached by (axes, duration).  Every dense BLAS or LAPACK call
of the per-op loop, the products and the Cholesky check below, goes through
scipy's library, so numpy's and scipy's thread pools never take turns.

Trace and positivity are checked after every pulse with a duration, in
every run: the trace stays within :data:`TRACE_TOL` (1e-6) of 1, and the
Hermitian part of rho plus :data:`EIG_TOL` (1e-6) times I has a Cholesky
factor, which it has exactly when the Hermitian part's smallest eigenvalue
exceeds -EIG_TOL.
Before allocating anything, :func:`emulate` checks that rho and its working
copies fit :data:`RHO_BYTES_LIMIT`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, get_blas_funcs, get_lapack_funcs

from .errors import InvalidModelError, NumericalFailureError
from .hilbert import SpaceLayout, annihilation, number_operator, pauli
from .pulses import (
    HardwareParams,
    PulseSchedule,
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
#: largest |Tr rho - 1| the per-pulse check accepts
TRACE_TOL = 1e-6
#: most negative eigenvalue of rho's Hermitian part the per-pulse check accepts, negated
EIG_TOL = 1e-6
#: most bytes the density matrix and its working copies may take
RHO_BYTES_LIMIT = 2**31
#: the density matrix plus the working copies one step makes of it (about 4
#: measured on either path, the positivity check's two included), with room
#: for the cached plans and idle column operators, whose arrays grow as
#: dim^2 / (local dim)^2
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
    """-i[h, .] + sum of dissipators, acting on the row-major vec(rho) of h's space.

    With K = h - (i/2) sum_j L_j^dag L_j it is -i K (x) I + i I (x) K* + sum_j L_j (x) L_j*.
    """
    ident = sp.identity(h.shape[0], dtype=complex, format="csr")
    k = sp.csr_matrix(h, dtype=complex)
    for l_op in collapse_ops:
        k = k - 0.5j * (l_op.getH() @ l_op)
    lio = -1j * sp.kron(k, ident) + 1j * sp.kron(ident, k.conj())
    for l_op in collapse_ops:
        lio = lio + sp.kron(l_op, l_op.conj())
    return lio.tocsr()


def _propagator(lio: sp.csr_matrix, t_us: float, dense_bytes: int | None = None):
    """exp(t L) as ``(order, blocks)``: ``order`` lists the vec indices block by block.

    The blocks are the connected components of L's sparsity graph, each
    exponentiated densely, while their bytes fit ``dense_bytes`` (default
    :data:`DENSE_BYTES`); otherwise the one block is the sparse t L itself,
    for ``expm_multiply``.
    """
    from scipy.sparse.csgraph import connected_components  # only the noisy path needs it

    graph = abs(lio)
    graph.eliminate_zeros()
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    limit = DENSE_BYTES if dense_bytes is None else dense_bytes
    if 16 * sum(b.size**2 for b in blocks) > limit:
        return np.arange(lio.shape[0]), [(t_us * lio).tocsr()]
    return order, [expm(t_us * lio[b][:, b].toarray()) for b in blocks]


def _offsets(factors: list, axes: list) -> np.ndarray:
    """Flat offset in a ket index of each basis state of the factors ``axes``, row-major in that order."""
    off = np.zeros(1, dtype=np.intp)
    for a in axes:
        off = (off[:, None] + math.prod(factors[a + 1 :]) * np.arange(factors[a])).ravel()
    return off


@dataclass(frozen=True)
class _Plan:
    """Where one op's rows and the Hermitian half of its columns sit in rho's flat buffer.

    Row (l, l') is a (ket, bra) pair of the op's own factors, in the row-major
    vec order of its local superoperator; column (r, r') is a (ket, bra) pair
    of the other factors with r >= r' as rest indices.  In the mixed radix
    of the rest factors that is the same as a difference vector
    (n_k - n'_k per rest factor) that is lexicographically >= 0.  The r == r'
    columns come first.  The other half of rho is the conjugate of the
    mirror (l', l, r', r) of this one.
    """

    rows: np.ndarray  # flat offset of (l, l')
    swapped: np.ndarray  # flat offset of (l', l)
    lower: np.ndarray  # l > l'
    cols: np.ndarray  # flat offset of (r, r'), the r == r' ones first
    mirror: np.ndarray  # flat offset of (r', r) for the r > r' columns
    ket: np.ndarray  # rest index r of each column
    bra: np.ndarray  # rest index r' of each column
    rest_axes: tuple

    @property
    def diag(self) -> int:
        """Number of r == r' columns."""
        return len(self.cols) - len(self.mirror)

    @classmethod
    def build(cls, layout, axes: list) -> "_Plan":
        factors, dim = layout.factors(), layout.dim
        local = _offsets(factors, axes)
        rest_axes = tuple(a for a in range(len(factors)) if a not in axes)
        rest = _offsets(factors, rest_axes)
        below = np.tril_indices(len(rest), -1)
        ket = np.concatenate([np.arange(len(rest)), below[0]])
        bra = np.concatenate([np.arange(len(rest)), below[1]])
        return cls(
            rows=(local[:, None] * dim + local).ravel(),
            swapped=(local * dim + local[:, None]).ravel(),
            lower=np.greater.outer(np.arange(len(local)), np.arange(len(local))).ravel(),
            cols=rest[ket] * dim + rest[bra],
            mirror=rest[below[1]] * dim + rest[below[0]],
            ket=ket,
            bra=bra,
            rest_axes=rest_axes,
        )

    def idle_operator(self, layout, mode: int, channel: sp.csr_matrix) -> sp.csr_matrix:
        """An idle mode's channel, row-major on its (n, n') pairs, as an operator on these columns.

        The channel keeps n - n' (every dissipator here does), so it maps the
        Hermitian half of the columns to itself.
        """
        factors = layout.factors()
        axis = layout.qubit_count + mode
        d = factors[axis]
        stride = math.prod(factors[a] for a in self.rest_axes if a > axis)
        n, n2 = (self.ket // stride) % d, (self.bra // stride) % d
        pair = n * d + n2
        per_col = np.diff(channel.indptr)[pair]
        col = np.repeat(np.arange(len(pair)), per_col)
        entry = np.repeat(channel.indptr[pair] - (np.cumsum(per_col) - per_col), per_col) + np.arange(col.size)
        m, m2 = np.divmod(channel.indices[entry], d)
        ket = self.ket[col] + (m - n[col]) * stride
        bra = self.bra[col] + (m2 - n2[col]) * stride
        # r > r' columns follow the r == r' ones row by row, as np.tril_indices lists them
        target = np.where(ket == bra, ket, self.diag + ket * (ket - 1) // 2 + bra)
        return sp.csr_matrix((channel.data[entry], (col, target)), shape=(len(pair), len(pair)))


def _channel(rho: np.ndarray, plan: _Plan, prop, w: np.ndarray, idle: list) -> np.ndarray:
    """Apply Ad(D) prop Ad(D^dag) on an op's own factors and the ``idle`` column operators to rho.

    Only the Hermitian half of the columns of ``plan`` is read and computed;
    the result is filled in from it by conjugate symmetry, so it is exactly
    Hermitian.  ``w`` holds the phases of Ad(D) on the (l, l') pairs.  Every
    dense product goes through scipy's BLAS.
    """
    order, blocks = prop
    rows, swapped, w = plan.rows[order], plan.swapped[order], w[order]
    m = rho.reshape(-1)[rows[:, None] + plan.cols]
    m *= w.conj()[:, None]
    out = np.empty(m.shape, dtype=complex)  # C-contiguous, so that gemm writes its row blocks in place
    (gemm,) = get_blas_funcs(("gemm",), (m,))
    start = 0
    for block in blocks:
        stop = start + block.shape[0]
        if sp.issparse(block):
            from scipy.sparse.linalg import expm_multiply  # only oversized local spaces need it

            out[start:stop] = expm_multiply(block, m[start:stop])
        else:
            # block @ m as its transpose, so that every operand is contiguous and out is written in place
            gemm(1.0, m[start:stop].T, block.T, c=out[start:stop].T, overwrite_c=True)
        start = stop
    out *= w[:, None]
    out = out.T
    for op in idle:
        out = op @ out
    new = np.empty_like(rho)
    flat = new.reshape(-1)
    flat[plan.cols[:, None] + rows] = out
    flat[plan.mirror[:, None] + swapped] = out[plan.diag :].conj()
    lower = plan.lower[order]
    flat[plan.cols[: plan.diag, None] + swapped[lower]] = out[: plan.diag, lower].conj()
    np.fill_diagonal(new.imag, 0.0)
    return new


def _check_state(rho, context=""):
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise NumericalFailureError(f"trace deviated to {tr:.8f} {context}")
    # twice (Hermitian part + EIG_TOL I) has a Cholesky factor exactly when the
    # smallest eigenvalue of the Hermitian part exceeds -EIG_TOL.  Its
    # transpose is its conjugate, with the same eigenvalues, and is already in
    # the column-major order LAPACK factors in place.
    shifted = rho + rho.conj().T
    shifted.reshape(-1)[:: len(shifted) + 1] += 2.0 * EIG_TOL
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
    """Propagate a Hermitian density matrix through one pulse (or virtual op).

    Pulses with a duration apply exp(t L_loc) on their own factors and the
    idle-mode channels on the other modes, as in the module docstring, then
    check the trace and positivity of the result
    (:class:`~ionvib.errors.NumericalFailureError` on a violation).
    Zero-duration ops apply their unitary U = exp(-i angle G) as the channel
    Ad(U) = exp(-i angle [G, .]) on their own factors, without a check.
    Only the Hermitian half of ``rho`` is read, and the result is exactly
    Hermitian.  ``cache`` holds the plans, the zero-phase local channels and
    the idle-mode channels by key; it belongs to one :func:`emulate` call,
    whose channels and hardware it assumes.
    """
    cache = {} if cache is None else cache
    unitary = pulse.virtual or pulse.duration_us == 0.0
    t_us = 0.0 if unitary else pulse.duration_us
    rates = {} if unitary else channel_rates_per_us(channels, hardware)
    axes, d, cutoff = pulse_factors(pulse, layout)
    plan = cache.get(tuple(axes))
    if plan is None:
        plan = cache[tuple(axes)] = _Plan.build(layout, axes)
    key = ("channel", pulse.kind, pulse.angle, t_us, cutoff)
    prop = cache.get(key)
    if prop is None:
        span = t_us or 1.0  # a zero-duration op: exp(1 L) with H = angle G
        h0 = (pulse.angle / span) * sp.csr_matrix(base_generator(pulse.kind, cutoff))
        collapse = _collapse_ops(len(pulse.qubits), cutoff, rates)
        prop = cache[key] = _propagator(_liouvillian(h0, collapse), span)
    key = ("idle", tuple(axes), t_us)
    idle = cache.get(key)
    if idle is None:
        idle = cache[key] = []
        if "motional_dephasing" in rates or "heating" in rates:
            for k, dk in enumerate(layout.mode_cutoffs):
                if k != pulse.mode:
                    idle.append(plan.idle_operator(layout, k, _mode_channel(dk, t_us, rates, cache)))
    rho = _channel(rho, plan, prop, np.multiply.outer(d, d.conj()).ravel(), idle)
    if not unitary:
        _check_state(rho, context=f"after {pulse.kind} pulse at step {pulse.step}")
    return rho


def _mode_channel(cutoff: int, t_us: float, rates: dict, cache: dict) -> sp.csr_matrix:
    """exp(t D) of an idle mode's always-on dissipators, row-major on its (n, n') pairs."""
    key = ("mode", cutoff, t_us)
    if key not in cache:
        free = sp.csr_matrix((cutoff, cutoff), dtype=complex)
        order, blocks = _propagator(_liouvillian(free, _collapse_ops(0, cutoff, rates)), t_us, dense_bytes=math.inf)
        inverse = np.argsort(order)
        channel = sp.block_diag(blocks, format="csr")[inverse][:, inverse]
        channel.eliminate_zeros()
        channel.sort_indices()
        cache[key] = channel
    return cache[key]


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


def shot_noise_sigma(p, runs: int):
    """Binomial sampling uncertainty sqrt(P (1-P) / R), elementwise for an array ``p``."""
    return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / runs)


def sample_populations(populations: np.ndarray, policy: MeasurementPolicy):
    """Draw R binary outcomes per point and return (sampled frequency, sigma).

    Each time point uses an independent stream seeded by (seed, point index),
    so results do not depend on evaluation order.
    """
    populations = np.asarray(populations, dtype=float)
    sampled = np.zeros_like(populations)
    r = policy.runs_per_point
    for t, row in enumerate(populations):
        rng = np.random.default_rng(np.random.SeedSequence([int(policy.seed), t]))
        sampled[t] = rng.binomial(r, np.clip(row, 0.0, 1.0)) / r
    return sampled, shot_noise_sigma(sampled, r)


def attach_shot_noise(trace: PopulationTrace, policy: MeasurementPolicy) -> PopulationTrace:
    sampled, sigma = sample_populations(trace.populations, policy)
    trace.sampled = sampled
    trace.sigma = sigma
    trace.metadata["runs_per_point"] = policy.runs_per_point
    trace.metadata["measurement_seed"] = policy.seed
    trace.metadata["rng"] = "numpy PCG64, SeedSequence([seed, time_index])"
    return trace

