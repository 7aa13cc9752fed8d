"""Linear vibronic coupling models: construction, validation, derived quantities.

An :class:`LvcmSpec` stores the canonical form

    H/hbar = sum_ij psi_i^dag psi_j (delta_ij + sum_k kappa_ijk (a_k + a_k^dag))
             + sum_k nu_k a_k^dag a_k

with every coefficient in rad/fs.  Builders accept energies in eV (suffix
``_ev`` on their parameters) and convert on entry; nothing outside this module
and the config loader should ever touch eV.

The two-state donor/acceptor convention maps state 0 to the donor and state 1
to the acceptor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError
from .units import ev_to_rad_per_fs

#: electronic coupling of the two-state reference model, eV
TOY_DELTA_EV = 0.08679
#: frequency spread of the reference bath, eV
TOY_NU_SPREAD_EV = 0.01240


@dataclass(frozen=True)
class Envelope:
    """Drive amplitude envelope: constant, or a Gaussian with center and width (fs)."""

    kind: str = "constant"
    amplitude: float = 0.0
    center_fs: float = 0.0
    width_fs: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian"):
            raise InvalidModelError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "gaussian" and self.width_fs <= 0:
            raise InvalidModelError("gaussian envelope width must be positive")

    def at(self, t_fs: float) -> float:
        if self.kind == "constant":
            return self.amplitude
        u = (t_fs - self.center_fs) / self.width_fs
        return self.amplitude * math.exp(-0.5 * u * u)


@dataclass(frozen=True)
class DriveSpec:
    """Dipole-coupled drive term  sum_i mu_i . E(t) |lo_i><hi_i| + h.c.

    ``transitions`` lists (lower_state, upper_state) index pairs, with one real
    2-vector dipole per transition.  The field is polarization (complex
    2-vector) times envelope times the carrier.  With ``rwa`` (the default) the
    model is stored in the frame rotating at the carrier: every state listed in
    ``rotating_states`` has its diagonal energy shifted down by the carrier
    frequency and the couplings become (A(t)/2) (mu_i . polarization).  With
    ``rwa = False`` the lab-frame field  Re[polarization A(t) e^{-i w t}]  is
    used directly.
    """

    transitions: tuple
    dipoles: tuple
    polarization: tuple
    carrier_rad_per_fs: float
    envelope: Envelope
    rwa: bool = True
    rotating_states: tuple = ()

    def __post_init__(self):
        pol = np.asarray(self.polarization, dtype=complex)
        if pol.shape != (2,) or np.linalg.norm(pol) == 0:
            raise InvalidModelError("polarization must be a nonzero 2-vector")
        object.__setattr__(self, "polarization", (complex(pol[0]), complex(pol[1])))
        dips = tuple(tuple(float(x) for x in d) for d in self.dipoles)
        if len(dips) != len(self.transitions) or any(len(d) != 2 for d in dips):
            raise InvalidModelError("need one 2-vector dipole per driven transition")
        object.__setattr__(self, "dipoles", dips)
        object.__setattr__(self, "transitions", tuple((int(a), int(b)) for a, b in self.transitions))
        object.__setattr__(self, "rotating_states", tuple(int(s) for s in self.rotating_states))

    def coupling_coefficients(self, t_fs: float) -> list:
        """Per-transition coefficient c_i(t) multiplying |lo_i><hi_i| at time t."""
        amp = self.envelope.at(t_fs)
        pol = np.asarray(self.polarization)
        out = []
        for mu in self.dipoles:
            mu = np.asarray(mu, dtype=float)
            if self.rwa:
                out.append(0.5 * amp * complex(mu @ pol))
            else:
                field = np.real(pol * amp * np.exp(-1j * self.carrier_rad_per_fs * t_fs))
                out.append(complex(mu @ field))
        return out


class LvcmSpec:
    """Validated, immutable LVCM: M electronic states, N modes (all rad/fs)."""

    __slots__ = ("delta", "kappa", "nu", "drive", "labels")

    def __init__(self, delta, kappa, nu, drive: DriveSpec | None = None, labels=None):
        delta = np.array(delta, dtype=complex)
        kappa = np.array(kappa, dtype=complex)
        nu = np.array(nu, dtype=float)
        m = delta.shape[0]
        if delta.shape != (m, m):
            raise InvalidModelError("delta must be a square matrix")
        n = nu.shape[0] if nu.ndim == 1 else 0
        if nu.ndim != 1:
            raise InvalidModelError("nu must be a 1-d list of frequencies")
        if kappa.size == 0:
            kappa = np.zeros((m, m, n), dtype=complex)
        if kappa.shape != (m, m, n):
            raise InvalidModelError(f"kappa must have shape {(m, m, n)}")
        # NaN and inf pass every other check below, and no solver can run on them
        for name, arr in (("delta", delta), ("kappa", kappa), ("nu", nu)):
            if not np.all(np.isfinite(arr)):
                raise InvalidModelError(f"{name} has an entry that is not finite")
        if np.max(np.abs(delta - delta.conj().T), initial=0.0) > 1e-12:
            raise InvalidModelError("delta is not Hermitian")
        for k in range(n):
            sl = kappa[:, :, k]
            if np.max(np.abs(sl - sl.conj().T), initial=0.0) > 1e-12:
                raise InvalidModelError(f"kappa slice {k} is not Hermitian")
        if np.any(nu <= 0):
            raise InvalidModelError("all mode frequencies must be positive")
        for arr in (delta, kappa, nu):
            arr.setflags(write=False)
        self.delta = delta
        self.kappa = kappa
        self.nu = nu
        self.drive = drive
        self.labels = tuple(labels) if labels is not None else None

    @property
    def state_count(self) -> int:
        return self.delta.shape[0]

    @property
    def mode_count(self) -> int:
        return self.nu.shape[0]

    def check_state(self, index: int) -> None:
        """Raise :class:`InvalidModelError` (key ``initial_state``) unless ``index`` is a state index."""
        if not 0 <= index < self.state_count:
            raise InvalidModelError(
                f"initial state must be 0 .. {self.state_count - 1}, got {index}", key="initial_state"
            )

    def electronic_matrix(self, t_fs: float = 0.0) -> np.ndarray:
        """M x M electronic part at time t: delta plus any drive contribution."""
        h = np.array(self.delta, dtype=complex)
        if self.drive is not None:
            if self.drive.rwa:
                for s in self.drive.rotating_states:
                    h[s, s] -= self.drive.carrier_rad_per_fs
            for (lo, hi), c in zip(self.drive.transitions, self.drive.coupling_coefficients(t_fs)):
                h[lo, hi] += c
                h[hi, lo] += np.conj(c)
        return h

    def is_time_dependent(self) -> bool:
        if self.drive is None:
            return False
        if not self.drive.rwa:
            return True
        return self.drive.envelope.kind != "constant"

    def __eq__(self, other):
        if not isinstance(other, LvcmSpec):
            return NotImplemented
        return (
            np.array_equal(self.delta, other.delta)
            and np.array_equal(self.kappa, other.kappa)
            and np.array_equal(self.nu, other.nu)
            and self.drive == other.drive
            and self.labels == other.labels
        )

    def __repr__(self):
        return (
            f"LvcmSpec(M={self.state_count}, N={self.mode_count}, "
            f"drive={'yes' if self.drive else 'no'})"
        )


def reorganization_energy(spec: LvcmSpec, diagonal_coupling: float) -> float:
    """kappa^2 sum_k 1/nu_k for a uniform diagonal coupling kappa (rad/fs in, rad/fs out)."""
    return float(diagonal_coupling**2 * np.sum(1.0 / spec.nu))


def toy_frequencies_ev(n_modes: int) -> np.ndarray:
    """Reference bath frequencies in eV; the N = 1 edge case is the band bottom."""
    if n_modes < 1:
        raise InvalidModelError("need at least one bath mode")
    if n_modes == 1:
        return np.array([TOY_DELTA_EV])
    k = np.arange(1, n_modes + 1)
    return TOY_DELTA_EV + TOY_NU_SPREAD_EV * (k - 1) / (n_modes - 1)


def build_toy_model(n_modes: int, lambda_over_delta: float) -> LvcmSpec:
    """Two-state donor/acceptor model with N shared modes.

    The off-diagonal electronic coupling is Delta/2 and the diagonal couplings
    are +kappa/2 (donor) and -kappa/2 (acceptor) on every mode, with kappa
    chosen so the reorganization energy kappa^2 sum 1/nu equals
    lambda_over_delta times Delta.  N < 1 and a negative or non-finite
    lambda_over_delta raise :class:`InvalidModelError` naming the config key.
    """
    if n_modes < 1:
        raise InvalidModelError(f"need at least one bath mode, got {n_modes}", key="modes")
    # NaN fails the comparison
    if not 0 <= lambda_over_delta < math.inf:
        raise InvalidModelError(
            f"lambda/Delta must be finite and >= 0, got {lambda_over_delta}", key="lambda_over_delta"
        )
    delta_w = ev_to_rad_per_fs(TOY_DELTA_EV)
    nu = ev_to_rad_per_fs(toy_frequencies_ev(n_modes))
    lam = lambda_over_delta * delta_w
    kappa_w = math.sqrt(lam / np.sum(1.0 / nu)) if lam > 0 else 0.0
    delta = np.array([[0.0, delta_w / 2.0], [delta_w / 2.0, 0.0]], dtype=complex)
    kappa = np.zeros((2, 2, n_modes), dtype=complex)
    kappa[0, 0, :] = +kappa_w / 2.0
    kappa[1, 1, :] = -kappa_w / 2.0
    return LvcmSpec(delta, kappa, nu, labels=("D", "A"))


def build_ci_model(kx_ev: float, kz_ev: float, nux_ev: float, nuz_ev: float) -> LvcmSpec:
    """Two states, two modes: mode x drives the inter-state coupling, mode z the splitting."""
    kx = ev_to_rad_per_fs(kx_ev)
    kz = ev_to_rad_per_fs(kz_ev)
    delta = np.zeros((2, 2), dtype=complex)
    kappa = np.zeros((2, 2, 2), dtype=complex)
    kappa[0, 1, 0] = kx
    kappa[1, 0, 0] = kx
    kappa[0, 0, 1] = +kz
    kappa[1, 1, 1] = -kz
    nu = ev_to_rad_per_fs(np.array([nux_ev, nuz_ev]))
    return LvcmSpec(delta, kappa, nu, labels=("D", "A"))


def _ci_parameters(spec: LvcmSpec):
    if spec.state_count != 2 or spec.mode_count != 2:
        raise InvalidModelError("not a two-state, two-mode intersection model")
    if np.max(np.abs(spec.delta), initial=0.0) > 0:
        raise InvalidModelError("intersection model requires a zero electronic matrix")
    kx = spec.kappa[0, 1, 0]
    kz = spec.kappa[0, 0, 1]
    expect = np.zeros((2, 2, 2), dtype=complex)
    expect[0, 1, 0] = kx
    expect[1, 0, 0] = np.conj(kx)
    expect[0, 0, 1] = kz
    expect[1, 1, 1] = -kz
    if not np.allclose(spec.kappa, expect, rtol=0, atol=1e-14):
        raise InvalidModelError("coupling tensor does not have the intersection-model shape")
    return float(np.real(kx)), float(np.real(kz)), float(spec.nu[0]), float(spec.nu[1])


def ci_adiabatic_surfaces(spec: LvcmSpec, x: float, z: float, px: float, pz: float):
    """Adiabatic surface pair (E-, E+) at classical phase-space point (x, z, px, pz).

    E_pm = (nux/2)(x^2+px^2) + (nuz/2)(z^2+pz^2) +- sqrt(2 kx^2 x^2 + 2 kz^2 z^2),
    in rad/fs, with the dimensionless coordinate convention x = (a + a^dag)/sqrt(2).
    """
    kx, kz, nux, nuz = _ci_parameters(spec)
    harmonic = 0.5 * nux * (x * x + px * px) + 0.5 * nuz * (z * z + pz * pz)
    gap = math.sqrt(2.0 * kx * kx * x * x + 2.0 * kz * kz * z * z)
    return harmonic - gap, harmonic + gap


def build_vaet_model(
    e_d_ev: float,
    e_a_ev: float,
    delta_ev: float,
    kappa_d1_ev: float,
    kappa_d2_ev: float,
    kappa_a2_ev: float,
    kappa_a3_ev: float,
    nu_ev,
) -> LvcmSpec:
    """Two states, three modes: mode 1 on the donor, mode 3 on the acceptor, mode 2 on both.

    Diagonal energies are stored relative to the donor: (0, E_A - E_D).
    """
    nu_ev = np.asarray(nu_ev, dtype=float)
    if nu_ev.shape != (3,):
        raise InvalidModelError("the three-mode transfer model needs exactly 3 frequencies")
    gap = ev_to_rad_per_fs(e_a_ev - e_d_ev)
    half = ev_to_rad_per_fs(delta_ev) / 2.0
    delta = np.array([[0.0, half], [half, gap]], dtype=complex)
    kappa = np.zeros((2, 2, 3), dtype=complex)
    kappa[0, 0, 0] = ev_to_rad_per_fs(kappa_d1_ev)
    kappa[0, 0, 1] = ev_to_rad_per_fs(kappa_d2_ev)
    kappa[1, 1, 1] = ev_to_rad_per_fs(kappa_a2_ev)
    kappa[1, 1, 2] = ev_to_rad_per_fs(kappa_a3_ev)
    return LvcmSpec(delta, kappa, ev_to_rad_per_fs(nu_ev), labels=("D", "A"))


def build_plet_model(
    omega_ev,
    mu1,
    mu2,
    v1_ev: complex,
    v2_ev: complex,
    polarization,
    carrier_ev: float,
    envelope: Envelope,
    rwa: bool = True,
) -> LvcmSpec:
    """Four-state light-driven transfer model: G, two bright donor states, acceptor.

    The two photo-excitation dipoles must be orthogonal; static couplings V_i
    connect each donor state to the acceptor.  No bath modes are attached.
    """
    omega_ev = np.asarray(omega_ev, dtype=float)
    if omega_ev.shape != (4,):
        raise InvalidModelError("need four state energies (G, D1, D2, A)")
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    if abs(float(mu1 @ mu2)) > 1e-12 * max(np.linalg.norm(mu1) * np.linalg.norm(mu2), 1.0):
        raise InvalidModelError("excitation dipoles must be orthogonal")
    delta = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(delta, ev_to_rad_per_fs(omega_ev))
    delta[1, 3] = ev_to_rad_per_fs(complex(v1_ev))
    delta[3, 1] = np.conj(delta[1, 3])
    delta[2, 3] = ev_to_rad_per_fs(complex(v2_ev))
    delta[3, 2] = np.conj(delta[2, 3])
    drive = DriveSpec(
        transitions=((0, 1), (0, 2)),
        dipoles=(tuple(mu1), tuple(mu2)),
        polarization=tuple(np.asarray(polarization, dtype=complex)),
        carrier_rad_per_fs=ev_to_rad_per_fs(carrier_ev),
        envelope=envelope,
        rwa=rwa,
        rotating_states=(1, 2, 3),
    )
    kappa = np.zeros((4, 4, 0), dtype=complex)
    return LvcmSpec(delta, kappa, np.zeros(0), drive=drive, labels=("G", "D1", "D2", "A"))

