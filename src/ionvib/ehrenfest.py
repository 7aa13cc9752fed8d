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

Integration: the whole ensemble is one batch.  The R trajectories are stacked
in trajectory-index order into one (R, M + 2N) complex system, and a single
DOP853 call advances it with rtol = atol = tol / sqrt(R); a lone trajectory
(``evolve_trajectory``) is the batch of one.  DOP853 accepts a step when the
RMS of the scaled local error over all R(M + 2N) components is at most 1, so
the errors of any one trajectory, scaled with tol instead of tol / sqrt(R),
have an RMS of at most 1: every accepted step passes the test that trajectory
would meet if it were integrated alone at ``tol``.  Its result still depends
on its batch-mates, which set the common step sizes, so the batch
composition is fixed by trajectory index and a rerun is bit-identical.
scipy raises any rtol below 100 eps (about 2.2e-14) to that floor with a
warning, e.g. tol = 1e-13 at R = 100.

The equations are quadratic in a trajectory's y = (c, q, p), so the batch's
right-hand side is two small GEMMs, dy = y A + (conj(c, q) (x) c) B, with
constant A (-i delta, +-nu) and B (the sqrt(2) kappa terms), then Im dq =
Im dp = 0; a time-dependent model writes -i H_el(t) into A's c block on
each call.  This relies on Im q = Im p = 0, which holds exactly: y0
has it, and DOP853 only adds multiples of derivatives that have it.

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


def _integrate(spec: LvcmSpec, states, times: np.ndarray, tol: float):
    """Integrate trajectories as one batch; returns (|c_i(t)|^2 of shape (R, T, M), RHS evaluations).

    The R states are stacked, in the given order, into one (R, M + 2N) complex
    system that one DOP853 call advances with rtol = atol = tol / sqrt(R).
    """
    r, m, n = len(states), spec.state_count, spec.mode_count
    if any(s.c.shape != (m,) or s.q.shape != (n,) or s.p.shape != (n,) for s in states):
        raise InvalidModelError(f"a trajectory state needs {m} amplitudes c and {n} coordinates each in q and p")
    w = m + 2 * n
    y0 = np.concatenate([np.concatenate([s.c, s.q, s.p]) for s in states])
    driven = spec.is_time_dependent()
    lin = np.zeros((w, w), dtype=complex)
    lin[:m, :m] = (-1j * spec.electronic_matrix(0.0)).T  # a driven model rewrites it per call
    k = np.arange(n)
    lin[m + n + k, m + k] = spec.nu
    lin[m + k, m + n + k] = -spec.nu
    quad = np.zeros((m + n, m, w), dtype=complex)  # rows: conj((c, q)) (x) c, the only nonzero products
    quad[m:, :, :m] = -1j * SQRT2 * spec.kappa.transpose(2, 1, 0)  # conj(q_k) c_j -> dc_i
    quad[:m, :, m + n :] = -SQRT2 * spec.kappa  # conj(c_i) c_j -> dp_k
    quad = quad.reshape((m + n) * m, w)

    def rhs(t, y):
        y = y.reshape(r, w)
        if driven:
            lin[:m, :m] = (-1j * spec.electronic_matrix(t)).T
        out = y @ lin
        out += (y[:, : m + n].conj()[:, :, None] * y[:, None, :m]).reshape(r, (m + n) * m) @ quad
        out[:, m:].imag = 0.0
        return out.ravel()

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
    c_t = sol.y.reshape(r, w, -1)[:, :m, :]
    return np.abs(c_t.transpose(0, 2, 1)) ** 2, sol.nfev


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
