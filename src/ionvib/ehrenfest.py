"""Mean-field mixed quantum-classical dynamics with trajectory averaging.

Each trajectory carries quantum electronic amplitudes c and classical
dimensionless mode coordinates (q_k, p_k) with the convention
a_k + a_k^dag <-> sqrt(2) q_k.  Equations of motion (all rates in rad/fs):

    i dc/dt   = H_el(q, t) c,   H_el(q)_ij = delta_ij + sum_k kappa_ijk sqrt(2) q_k
    dq_k/dt   = nu_k p_k
    dp_k/dt   = -nu_k q_k - sqrt(2) sum_ij Re(c_i^* kappa_ijk c_j)

Initial (q, p) are Wigner samples of the thermal oscillator state with
occupation nbar, the ground state at nbar = 0: independent Gaussians with
variance nbar + 1/2 per coordinate.  This one scheme covers every nbar.

Randomness comes from numpy's PCG64 generator; the stream for trajectory r is
seeded with SeedSequence([seed, r]), so ensembles are reproducible across
platforms and independent of scheduling order.

Integration: the whole ensemble is one batch of real variables.  Trajectory
r is the float64 vector (Re c, Im c, q, p) of length 2M + 2N, and the R
trajectories are stacked in trajectory-index order into one R(2M + 2N)
system that a single DOP853 call advances with rtol = atol = tol / sqrt(R); a
lone trajectory (``evolve_trajectory``) is the batch of one.  DOP853 accepts a
step when the RMS of the scaled local error over all R(2M + 2N) components is
at most 1, each component scaled by atol + rtol |y_i| (so Re c and Im c are
scaled separately).  Scaled with tol instead of tol / sqrt(R), the errors of
any one trajectory then have an RMS of at most 1: every accepted step passes
the test that trajectory would meet if it were integrated alone at ``tol``.
Its result still depends on its batch-mates, which set the common step
sizes, so the batch composition is fixed by trajectory index and a rerun is
bit-identical.  scipy raises any rtol below 100 eps (about 2.2e-14) to that
floor with a warning, e.g. tol = 1e-13 at R = 100.

The equations are quadratic in a trajectory's y, so the batch's right-hand
side is one GEMM, dy = [y, P(y)] A, where P(y) holds the products of
(Re c, Im c, q) with (Re c, Im c) and A is one constant real matrix: the
complex couplings (-i delta, -i sqrt(2) kappa) in real 2 x 2 block form, the
+-nu of the oscillators and the sqrt(2) kappa of the force.  A time-dependent
model writes -i H_el(t) into A's c block on each call.  A model without
modes has no force and no q-linear term, so its right-hand side is y A alone.
The populations are (Re c)^2 + (Im c)^2.

At lambda/Delta of about 5 and above single trajectories are chaotic: a
trajectory at tol 1e-10 and the same one at 1e-12 can differ by O(1) in
population.  A result then depends on R and on tol, and only ensemble
statistics (means compared in units of their standard error) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidModelError
from .model import LvcmSpec
from .trace import PopulationTrace

SQRT2 = np.sqrt(2.0)


@dataclass
class TrajectoryState:
    """One trajectory's quantum amplitudes and classical mode coordinates."""

    c: np.ndarray
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)


@dataclass(frozen=True)
class EnsembleConfig:
    """Trajectory count, initial thermal occupation, and the master seed."""

    trajectories: int = 100
    nbar: float = 0.0
    seed: int = 0
    initial_state: int = 0
    tol: float = 1e-10

    def __post_init__(self):
        if self.trajectories < 1:
            raise InvalidModelError("need at least one trajectory", key="trajectories")
        if not (np.isfinite(self.nbar) and self.nbar >= 0):
            raise InvalidModelError(f"nbar must be finite and >= 0, got {self.nbar}", key="nbar")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise InvalidModelError(f"tol must be finite and > 0, got {self.tol}", key="tol")


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def sample_initial(config: EnsembleConfig, spec: LvcmSpec, rng: np.random.Generator) -> TrajectoryState:
    """Draw one Wigner-sampled initial condition."""
    spec.check_state(config.initial_state)
    var = config.nbar + 0.5
    n = spec.mode_count
    q = rng.normal(0.0, np.sqrt(var), size=n)
    p = rng.normal(0.0, np.sqrt(var), size=n)
    c = np.zeros(spec.state_count, dtype=complex)
    c[config.initial_state] = 1.0
    return TrajectoryState(c=c, q=q, p=p)


def mean_field_energy(spec: LvcmSpec, state: TrajectoryState, t_fs: float = 0.0) -> float:
    """Conserved mean-field energy (rad/fs) for time-independent models."""
    h = spec.electronic_matrix(t_fs) + spec.kappa @ (SQRT2 * state.q)
    e_el = float(np.real(np.vdot(state.c, h @ state.c)))
    e_cl = float(0.5 * np.sum(spec.nu * (state.q**2 + state.p**2)))
    return e_el + e_cl


def _realify(z: np.ndarray) -> np.ndarray:
    """Real form of complex row maps over the last two axes: (Re v, Im v) @ _realify(z) = (Re, Im) of v @ z."""
    return np.block([[z.real, z.imag], [-z.imag, z.real]])


def _integrate(spec: LvcmSpec, states, times: np.ndarray, tol: float):
    """Integrate trajectories as one batch; returns (|c_i(t)|^2 of shape (R, T, M), RHS evaluations).

    The R states are stacked, in the given order, into one real system of
    R (Re c, Im c, q, p) rows that one DOP853 call advances with
    rtol = atol = tol / sqrt(R).
    """
    r, m, n = len(states), spec.state_count, spec.mode_count
    if any(s.c.shape != (m,) or s.q.shape != (n,) or s.p.shape != (n,) for s in states):
        raise InvalidModelError(f"a trajectory state needs {m} amplitudes c and {n} coordinates each in q and p")
    w = 2 * m + 2 * n
    y0 = np.concatenate([np.concatenate([s.c.real, s.c.imag, s.q, s.p]) for s in states])
    driven = spec.is_time_dependent()
    pairs = (2 * m + n) * 2 * m  # P(y) = (Re c, Im c, q) x (Re c, Im c)
    a = np.zeros((w + pairs, w))
    a[: 2 * m, : 2 * m] = _realify(-1j * spec.electronic_matrix(0.0).T)  # a driven model rewrites it per call
    k = np.arange(n)
    a[2 * m + n + k, 2 * m + k] = spec.nu
    a[2 * m + k, 2 * m + n + k] = -spec.nu
    quad = a[w:].reshape(2 * m + n, 2 * m, w)
    quad[2 * m :, :, : 2 * m] = _realify(-1j * SQRT2 * spec.kappa.transpose(2, 1, 0))  # q_k c_j -> dc_i
    force = _realify(spec.kappa.conj().transpose(2, 0, 1)).transpose(1, 2, 0)  # conj(c_i) c_j -> dp_k, real part
    quad[: 2 * m, : 2 * m, 2 * m + n :] = -SQRT2 * force
    lin = a[:w]
    # [y, P(y)] refilled on each call, trajectories on the last axis so the products run along the batch
    ext = np.empty((w + pairs, r))
    prod = ext[w:].reshape(2 * m + n, 2 * m, r)

    def rhs(t, y):
        y = y.reshape(r, w)
        if driven:
            a[: 2 * m, : 2 * m] = _realify(-1j * spec.electronic_matrix(t).T)
        if not n:  # without modes there is no force and no q-linear term
            return (y @ lin).ravel()
        y = y.T
        ext[:w] = y
        np.multiply(y[: 2 * m + n, None], y[None, : 2 * m], out=prod)
        return (ext.T @ a).ravel()

    from scipy.integrate import solve_ivp  # only Ehrenfest runs need it

    batch_tol = tol / np.sqrt(r)
    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        y0,
        t_eval=times,
        method="DOP853",
        rtol=batch_tol,
        atol=batch_tol,
    )
    if not sol.success:
        raise ConvergenceError(f"trajectory integration failed: {sol.message}")
    y_t = sol.y.reshape(r, w, -1)
    pops = y_t[:, :m] ** 2 + y_t[:, m : 2 * m] ** 2
    return pops.transpose(0, 2, 1), sol.nfev


def evolve_trajectory(spec: LvcmSpec, state: TrajectoryState, times_fs, tol: float = 1e-10):
    """Integrate one trajectory (a batch of one); returns |c_i(t)|^2 with shape (T, M)."""
    pops, _ = _integrate(spec, [state], np.asarray(times_fs, dtype=float), tol)
    return pops[0]


def ensemble_average(spec: LvcmSpec, config: EnsembleConfig, times_fs) -> PopulationTrace:
    """Mean populations over the ensemble, with per-point standard errors."""
    times = np.asarray(times_fs, dtype=float)
    states = [sample_initial(config, spec, trajectory_rng(config.seed, r)) for r in range(config.trajectories)]
    runs, rhs_evals = _integrate(spec, states, times, config.tol)
    mean = runs.mean(axis=0)
    if config.trajectories > 1:
        stderr = runs.std(axis=0, ddof=1) / np.sqrt(config.trajectories)
    else:
        stderr = np.zeros_like(mean)
    return PopulationTrace(
        times_fs=times,
        populations=mean,
        stderr=stderr,
        metadata={
            "method": "ehrenfest",
            "trajectories": config.trajectories,
            "nbar": config.nbar,
            "seed": config.seed,
            "rng": "numpy PCG64, SeedSequence([seed, trajectory])",
            "integrator": f"DOP853, one batch of {config.trajectories}, rtol=atol=tol/sqrt({config.trajectories})",
            "rhs_evals": rhs_evals,
        },
    )
