"""Numerically exact propagation of an LVCM on a truncated product space.

Strategy:

- time-independent Hamiltonians (no drive, or a constant-envelope
  rotating-wave drive) go through Chebyshev series for exp(-i H t)
  (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The spectral
  interval comes from the Gershgorin discs of H, which bound every
  eigenvalue rigorously without an eigensolver; H is shifted and scaled into
  [-1, 1].  The grid is cut into windows of consecutive steps, and one
  recurrence per window yields every grid state of the window from the same
  T_k(X) psi vectors, so a window pays one Bessel tail instead of one per
  step.  A window is the longest run of steps whose series stays within
  ``SERIES_MAX`` terms (at least one step): the cap is on series length
  because each term also costs one accumulation row per open grid point.
  The Bessel coefficients J_k(r dt) are computed once per distinct step
  length and cut below 1e-17; a window's rows are Chebyshev products of
  them, since exp(-iXa) exp(-iXb) = exp(-iX(a+b)).  A window of W grid
  points takes W + ``CHUNK`` + 2 state vectors of extra memory.  There is no
  error control to set;
- time-dependent Hamiltonians (Gaussian or non-RWA drive) go through an
  adaptive high-order Runge-Kutta integrator (DOP853) with local error
  control set by ``eps_int``.  ``eps_int`` governs only this branch.

The electronic Hamiltonian, drive and rotating-wave convention included, is
``LvcmSpec.electronic_matrix``; this module never reads the drive itself.  A
time-independent model puts E(0) (x) I into the static matrix; a
time-dependent one applies E(t) on the electronic factor of the state inside
the integrator's right-hand side.  Each mode term is K_k (x) a_k, with a_k
built by :mod:`ionvib.hilbert` on the mode-only layout.

Thermal initial mode states (one nbar shared by every mode) are expanded
into a weighted mixture of Fock product states (the thermal state is
diagonal), each propagated as a pure state; this is exact and far cheaper
than density propagation at the nbar values of interest (~0.06).

The truncation knob is per-mode Fock cutoffs.  ``converge_cutoffs`` grows them
until (a) bumping any single cutoff by 2 moves no population value by more
than ``eps_cut`` and (b) the top-level leakage stays below ``eps_cut``.  It
runs each cutoff tuple at most once, and ``propagate`` takes its result from
the search's certifying run instead of running it again.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.chebyshev import chebmul

from . import hilbert
from .errors import ConvergenceError, DimensionLimitError, InvalidModelError
from .hilbert import SpaceLayout
from .model import LvcmSpec
from .trace import PopulationTrace

DEFAULT_TAU_FS = 400.0
DEFAULT_GRID_POINTS = 40
#: the cutoff search fails once any mode's cutoff would pass this
MAX_CUTOFF = 64
#: thermal-mixture Fock products below this weight are dropped (the rest renormalized)
WEIGHT_FLOOR = 1e-12


def default_time_grid(tau_fs: float = DEFAULT_TAU_FS, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Equally spaced grid 0, tau/points, ..., tau (points-1)/points."""
    return np.arange(points) * (tau_fs / points)


def electronic_qubits(state_count: int) -> int:
    """Qubits needed to host M electronic states (padded to the next power of two)."""
    if state_count < 1:
        raise InvalidModelError("need at least one electronic state")
    return max(0, (state_count - 1).bit_length())


def layout_for(spec: LvcmSpec, cutoffs) -> SpaceLayout:
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != spec.mode_count:
        raise InvalidModelError("need one cutoff per mode")
    return SpaceLayout(electronic_qubits(spec.state_count), cutoffs)


@dataclass(frozen=True)
class PropagationRequest:
    """Inputs for one exact propagation run."""

    spec: LvcmSpec
    times_fs: np.ndarray
    initial_state: int = 0
    nbar: float = 0.0
    cutoffs: tuple | None = None
    eps_cut: float = 1e-4
    eps_int: float = 1e-8

    def __post_init__(self):
        t = np.asarray(self.times_fs, dtype=float)
        if t.ndim != 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise InvalidModelError("time grid must be strictly increasing and start at 0")
        object.__setattr__(self, "times_fs", t)
        # NaN fails every comparison, so each check is written to reject it
        for key in ("eps_cut", "eps_int"):
            value = getattr(self, key)
            if not 0 < value < math.inf:
                raise InvalidModelError(f"{key} must be finite and > 0, got {value}", key=key)
        if not 0 <= self.nbar < math.inf:
            raise InvalidModelError(f"nbar must be finite and >= 0, got {self.nbar}", key="nbar")


class _Assembled:
    """Static sparse matrix, and the electronic matrix E(t) on the electronic
    factor when the model's own is time-dependent (else ``None``, and E is in
    ``static``)."""

    def __init__(self, static, electronic=None):
        self.static = static
        self.electronic = electronic
        self._chebyshev = None

    def is_static(self) -> bool:
        return self.electronic is None

    def chebyshev(self) -> _Chebyshev:
        """The static part's propagator, built once and shared by every state of a run."""
        if self._chebyshev is None:
            self._chebyshev = _Chebyshev(self.static)
        return self._chebyshev


#: series coefficients below this magnitude are dropped
CHEBYSHEV_CUT = 1e-17
#: most terms one window's series may take.  A window is the longest run of
#: grid steps whose summed series stays within this, and at least one step.
#: Merging steps saves their Bessel tails (40-70 terms each at N = 2..4), but
#: every term then also costs one accumulation row per grid point of the
#: window still open, so the cap is on series length, not on a step count.
#: Best-of-6 runs on toy N = 2..4 (1 BLAS thread) put 384 within 3 % of the
#: fastest cap tried (128, 256, 320, 384, 512, none) on every case; 128 was
#: 27-44 % slower and no cap 12 % slower at N = 2, lambda = 10.
SERIES_MAX = 384
#: U_k psi vectors computed between two accumulation GEMMs
CHUNK = 32


def _cut(coef: np.ndarray) -> np.ndarray:
    """The series up to its last coefficient of magnitude CHEBYSHEV_CUT or more."""
    kept = np.flatnonzero(np.abs(coef) >= CHEBYSHEV_CUT)
    return coef[: kept[-1] + 1]


def _unit(n: int) -> np.ndarray:
    """(-i)^k for k = 0 .. n-1, exactly."""
    return np.array([1, -1j, -1, 1j])[np.arange(n) % 4]


class _Chebyshev:
    """exp(-i H t) on a time grid, as Chebyshev series in the rescaled Hermitian H.

    With the Gershgorin interval [lo, hi] of H, center c and half-width r,
    X = (H - c) / r has its spectrum in [-1, 1] and

        exp(-i H t) = exp(-i c t) sum_k (2 - delta_k0) J_k(r t) U_k(X),   U_k = (-i)^k T_k,

    so the coefficients are real and U_k psi follows U_k = U_{k-2} - 2i X U_{k-1}.
    The series of one step length is cached per distinct dt in ``_series``;
    the Chebyshev products for the later grid points of a window, and each
    window's (W, K) coefficient block, are cached by step sequence.  The W
    accumulators of a window become its returned states.  When r = 0, H is c
    times the identity and each step is the phase alone.
    """

    def __init__(self, h):
        diag = h.diagonal()
        radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
        lo = float(np.min(diag.real - radius))
        hi = float(np.max(diag.real + radius))
        self.center = (hi + lo) / 2
        self.half_width = (hi - lo) / 2
        self._step = None  # -2i X
        if self.half_width > 0:
            shifted = h - self.center * sp.identity(h.shape[0], dtype=complex, format="csr")
            self._step = sp.csr_matrix(shifted * (-2j / self.half_width))
        self._series = {}
        self._rows = {}
        self._blocks = {}
        self.matvecs = 0

    def _coefficients(self, dt: float) -> np.ndarray:
        if dt not in self._series:
            from scipy.special import jv  # only the Chebyshev series needs it

            z = self.half_width * dt
            # |J_k(z)| falls monotonically once k > z: search past z for the
            # first order under the cut, then keep up to the last one above it
            k = int(z) + 1
            while 2 * abs(jv(k, z)) >= CHEBYSHEV_CUT:
                k += 8
            coef = 2 * jv(np.arange(k + 1), z)
            coef[0] /= 2
            self._series[dt] = _cut(coef)
        return self._series[dt]

    def _row(self, key: tuple) -> np.ndarray:
        """U_k coefficients of exp(-i (H - c) sum(key)); the row of ``key[:-1]`` must be cached."""
        if key not in self._rows:
            step = self._coefficients(key[-1])
            if len(key) > 1:
                a, b = self._rows[key[:-1]], step
                prod = chebmul(a * _unit(len(a)), b * _unit(len(b)))
                step = _cut((prod * _unit(len(prod)).conj()).real)
            self._rows[key] = step
        return self._rows[key]

    def _block(self, steps: list, start: int) -> tuple:
        """Coefficient block, row series lengths and phases of the window from ``steps[start]``."""
        key = (steps[start],)
        self._row(key)
        for dt in steps[start + 1 :]:
            if len(self._row(key + (dt,))) > SERIES_MAX:
                break
            key += (dt,)
        if key not in self._blocks:
            rows = [self._row(key[: j + 1]) for j in range(len(key))]
            ends = np.array([len(r) for r in rows])
            coef = np.zeros((len(rows), ends.max()))
            for j, r in enumerate(rows):
                coef[j, : len(r)] = r
            phases = np.exp(-1j * self.center * np.cumsum(key))
            self._blocks[key] = (coef, ends, phases)
        return self._blocks[key]

    def evolve(self, psi0: np.ndarray, times: np.ndarray) -> list:
        """The state at each grid time (first entry is psi0 itself)."""
        steps = np.diff(times).tolist()
        out = [psi0]
        if self._step is None:
            for dt in steps:
                out.append(np.exp(-1j * self.center * dt) * out[-1])
            return out
        buf = np.empty((CHUNK + 2, len(psi0)), dtype=complex)
        flat = buf.view(float)
        while len(out) < len(times):
            coef, ends, phases = self._block(steps, len(out) - 1)
            psi = out[-1]
            acc = np.zeros((len(coef), len(psi)), dtype=complex)
            acc_flat = acc.view(float)
            terms = coef.shape[1]
            buf[2] = psi
            if terms > 1:
                buf[3] = 0.5 * (self._step @ psi)
            filled = min(terms, 2)  # U_0 and U_1 start the first chunk
            for k in range(0, terms, CHUNK):
                n = min(CHUNK, terms - k)
                for r in range(2 + filled, 2 + n):
                    np.add(self._step @ buf[r - 1], buf[r - 2], out=buf[r])
                filled = 0
                first = int(np.argmax(ends > k))  # earlier rows' series have ended
                acc_flat[first:] += coef[first:, k : k + n] @ flat[2 : 2 + n]
                buf[:2] = buf[n : n + 2]
            self.matvecs += terms - 1
            acc *= phases[:, None]
            out.extend(acc)
        return out


def _padded(layout: SpaceLayout, matrix: np.ndarray) -> np.ndarray:
    """An M x M electronic matrix on the qubit register's 2^q states (zero on the padding)."""
    return np.pad(matrix, (0, layout.electronic_dim - len(matrix)))


def hamiltonian_parts(spec: LvcmSpec, layout: SpaceLayout) -> _Assembled:
    modes = SpaceLayout(0, layout.mode_cutoffs)
    electronic = None
    if spec.is_time_dependent():
        static = sp.csr_matrix((layout.dim, layout.dim), dtype=complex)

        def electronic(t):
            return _padded(layout, spec.electronic_matrix(t))

    else:
        static = sp.kron(_padded(layout, spec.electronic_matrix(0.0)), sp.identity(modes.dim), format="csr")
    if spec.mode_count:
        # sum_k nu_k n_k as one diagonal, repeated for every electronic state
        levels = np.indices(layout.mode_cutoffs).reshape(spec.mode_count, -1)
        static = static + sp.diags(np.tile(spec.nu @ levels, layout.electronic_dim), format="csr")
    for k in range(spec.mode_count):
        # K_k (x) a_k ; its Hermitian conjugate carries a_k^dag
        b = sp.kron(_padded(layout, spec.kappa[:, :, k]), hilbert.annihilation(modes, k), format="csr")
        static = static + b + b.getH()
    return _Assembled(sp.csr_matrix(static, dtype=complex), electronic)


def _initial_electronic(spec: LvcmSpec, layout: SpaceLayout, index: int) -> np.ndarray:
    if not 0 <= index < spec.state_count:
        raise InvalidModelError(f"initial state must be 0 .. {spec.state_count - 1}, got {index}")
    vec = np.zeros(layout.electronic_dim, dtype=complex)
    vec[index] = 1.0
    return vec


def _thermal_mixture(layout: SpaceLayout, nbar: float):
    """Fock product states and weights representing the thermal initial condition.

    Every mode starts at the same occupation ``nbar``.
    """
    per_mode = [hilbert.thermal_weights(d, nbar) for d in layout.mode_cutoffs]
    combos = []
    for levels in itertools.product(*[range(len(w)) for w in per_mode]):
        w = math.prod(per_mode[k][n] for k, n in enumerate(levels))
        if w >= WEIGHT_FLOOR:
            combos.append((levels, w))
    total = sum(w for _, w in combos)
    return [(levels, w / total) for levels, w in combos]


def _populations_from_vector(psi: np.ndarray, layout: SpaceLayout, m: int) -> np.ndarray:
    rest = layout.dim // layout.electronic_dim
    probs = np.abs(psi.reshape(layout.electronic_dim, rest)) ** 2
    return probs.sum(axis=1)[:m]


def _propagate_pure(parts: _Assembled, psi0: np.ndarray, times: np.ndarray, eps_int: float):
    """Yield the state at each grid time (first entry is psi0 itself)."""
    if parts.is_static():
        return parts.chebyshev().evolve(psi0, times)

    def rhs(t, y):
        e = parts.electronic(t)
        return -1j * (parts.static @ y + (e @ y.reshape(len(e), -1)).ravel())

    from scipy.integrate import solve_ivp  # only a time-dependent drive needs it

    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        psi0.astype(complex),
        t_eval=times,
        method="DOP853",
        rtol=eps_int,
        atol=eps_int * 1e-2,
    )
    if not sol.success:
        raise ConvergenceError(f"integrator failed: {sol.message}")
    return [sol.y[:, i] for i in range(len(times))]


def _run(request: PropagationRequest, cutoffs):
    """Propagate the thermal mixture at ``cutoffs``.

    Returns the mixture populations (T x M), its top-level leakage summed over
    modes at each grid time, per mode the largest top-level population of
    the mixture at any grid time, and the Chebyshev matvecs spent (0 on the
    DOP853 branch).  Both leakage figures come from one T x N accumulator, so
    they always describe the same state.
    """
    spec = request.spec
    layout = layout_for(spec, cutoffs)
    parts = hamiltonian_parts(spec, layout)
    elec = _initial_electronic(spec, layout, request.initial_state)
    m = spec.state_count
    times = request.times_fs
    pops = np.zeros((len(times), m))
    top = np.zeros((len(times), layout.mode_count))
    for levels, weight in _thermal_mixture(layout, request.nbar):
        psi0 = hilbert.product_state(layout, elec, levels)
        for idx, psi in enumerate(_propagate_pure(parts, psi0, times, request.eps_int)):
            pops[idx] += weight * _populations_from_vector(psi, layout, m)
            top[idx] += weight * hilbert.top_level_populations(layout, psi)
    matvecs = parts.chebyshev().matvecs if parts.is_static() else 0
    return pops, top.sum(axis=1), top.max(axis=0), matvecs


def propagate(request: PropagationRequest) -> PopulationTrace:
    """Run one exact propagation and return the population trace.

    With ``cutoffs=None`` the adaptive cutoff search runs first and its
    certifying run is the result.  The metadata records the cutoffs used, the
    worst-case top-level leakage, the number of distinct runs the search made
    (``search_runs``, 0 at fixed cutoffs) and the cutoff tuples it tried, in
    order (``search_cutoffs``), and the Chebyshev matvecs of every run made,
    the search's included (``matvecs``).
    """
    # the branch's deferred scipy import is paid before the clock starts, so
    # the first run of a process records what later runs record
    if request.spec.is_time_dependent():
        import scipy.integrate  # noqa: F401
    else:
        import scipy.special  # noqa: F401
    start = time.perf_counter()
    runs = {}
    if request.cutoffs is None:
        cutoffs = converge_cutoffs(request, runs)
        pops, leak, _, _ = runs[cutoffs]
        matvecs = sum(run[3] for run in runs.values())
    else:
        cutoffs = tuple(request.cutoffs)
        pops, leak, _, matvecs = _run(request, cutoffs)
    return PopulationTrace(
        times_fs=request.times_fs,
        populations=pops,
        leakage=leak,
        metadata={
            "method": "exact",
            "cutoffs": cutoffs,
            "nbar": request.nbar,
            "eps_int": request.eps_int,
            "max_leakage": float(leak.max()),
            "search_runs": len(runs),
            "search_cutoffs": tuple(runs),
            "matvecs": matvecs,
            # classical-cost counterpart for comparisons: this workbench's
            # exact solver at these convergence settings, not an external
            # tensor-network or hierarchy benchmark
            "wall_time_s": time.perf_counter() - start,
        },
    )


def converge_cutoffs(request: PropagationRequest, runs: dict | None = None) -> tuple:
    """Smallest per-mode cutoffs meeting the eps_cut stability and leakage contract.

    Every cutoff tuple is run at most once.  A caller that passes a dict as
    ``runs`` gets every ``_run`` result of the search in it, keyed by cutoff
    tuple in the order tried; the returned cutoffs' entry is the certifying run.
    """
    spec = request.spec
    n = spec.mode_count
    eps = request.eps_cut
    if request.cutoffs:
        cutoffs = list(request.cutoffs)
    else:
        # uncoupled modes stay in their initial Fock level; cutoff 2 suffices
        cutoffs = [2 if np.max(np.abs(spec.kappa[:, :, k])) == 0 else 4 for k in range(n)]
    runs = {} if runs is None else runs
    bases = []  # base-run populations, one per completed iteration

    def failure(message):
        return ConvergenceError(
            message, last=bases[-1] if bases else None, previous=bases[-2] if len(bases) > 1 else None
        )

    def run(cuts):
        key = tuple(cuts)
        if key not in runs:
            try:
                runs[key] = _run(request, key)
            except DimensionLimitError as exc:
                raise failure("dimension limit reached before cutoff convergence") from exc
        return runs[key]

    for _ in range(64):
        base_pops, _, base_leak, _ = run(cutoffs)
        bases.append(base_pops)
        grow = {}
        for k in range(n):
            if base_leak[k] >= eps:
                grow[k] = 4 if base_leak[k] > 100 * eps else 2
                continue
            probe = list(cutoffs)
            probe[k] += 2
            dev = np.max(np.abs(run(probe)[0] - base_pops))
            if dev >= eps:
                # take bigger strides while clearly unconverged; the final
                # answer is still certified by a +2 probe
                grow[k] = 6 if dev > 100 * eps else 2
        if not grow:
            return tuple(cutoffs)
        for k, step in grow.items():
            cutoffs[k] += step
            if cutoffs[k] > MAX_CUTOFF:
                raise failure(f"mode {k} cutoff exceeded {MAX_CUTOFF} before convergence")
    raise failure("cutoff search did not terminate")
