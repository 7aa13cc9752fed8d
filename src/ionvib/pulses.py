"""Lowering of an LVCM into a Trotterized schedule of native trapped-ion pulses.

Native operations and their unit-angle generators (``U = exp(-i angle G)``):

- ``carrier``: G = sigma^phi / 2 on one qubit (resonant single-qubit rotation);
- ``sdf``: G = sigma^phi (x) (b e^{i phi_m} + b^dag e^{-i phi_m}) on one qubit
  and one mode (resonant spin-dependent force);
- ``ms``: G = sigma^phi (x) sigma^phi' on two qubits (one half of an
  XX/YY-style pair; the two halves commute and are always emitted together);
- ``disp``: G = b e^{i phi_m} + b^dag e^{-i phi_m}, a spin-independent motional
  drive used for the trace part of diagonal couplings.

Angles are non-negative; signs fold into the phases.  The equatorial spin
operator is sigma^phi = e^{-i phi} |1><0| + e^{+i phi} |0><1|, so sigma^0 = X
and sigma^{-pi/2} = Y.  The sign of phi is a field phase relabeling; this
orientation is fixed so the phi = -pi/2 axis is the standard Pauli Y.

The ideal route (:func:`compose_ideal`) never builds a full-space operator:
each op acts on its own factors only (its one or two qubits and its mode) of
the state reshaped to the layout's tensor factors.  The phases enter as
diagonal conjugations, sigma^phi = D X D^dag with D = diag(1, e^{-i phi}) and
b e^{i phi_m} + b^dag e^{-i phi_m} = D_m (b + b^dag) D_m^dag with
D_m = diag(e^{-i phi_m n}), so every op is D U0 D^dag with a zero-phase U0
(2x2, 4x4, 2d x 2d or d x d) that depends only on (kind, angle, cutoff).
The noisy route (:mod:`ionvib.emulator`) builds its local Liouvillians from
the same zero-phase generators.

Qubit encodings.  A two-state model uses one qubit with the simulated basis
rotated so that the population-difference operator lies in the equatorial
plane (simulated Z -> hardware X, simulated X -> hardware Z).  The static
inter-state coupling then becomes a hardware Z rotation, handled purely as a
spin-phase ramp on later pulses; state-dependent forces are plain equatorial
sdf pulses.  Models with three or more states map one state per qubit
(state i occupied <-> qubit i in |1>); state energies become per-qubit phase
ramps, inter-state couplings become ms pairs, and diagonal couplings become
sdf pulses conjugated into the Z axis.

Each Trotter step lowers, in this order: the dense energy gap (one carrier),
the diagonal couplings by mode, the one-hot inter-state couplings by state
pair, the off-diagonal couplings by (pair, mode), then the drive
transitions, with phases and drive coefficients taken at the step midpoint.

Mode k is assigned the k-th non-CM radial mode in descending frequency; CM
modes are never used.  Harmonic phases (nu_k a^dag a) and the frame terms
(the dense inter-state coupling, the one-hot state energies) emit no pulses:
they only advance motional and spin phases.  The dense frame is undone at
readout by one 2x2 measurement-basis correction on the qubit.  The one-hot
frame exp(-i sum_q g_q Z_q t) is diagonal in the measured basis, so it
cannot move a population and needs no correction.

Basis-change conjugations around a pulse are emitted as explicit ops.  By
default they are ``virtual`` (ideal, zero-duration bookkeeping rotations);
``physical_rotations=True`` turns them into real finite-duration pulses for
noise-accounting studies.  Z-axis rotations are always folded into phases and
never cost time.

Lab durations come from a per-chain linear calibration: duration =
max(floor(n_ions), c(n_ions) * |angle|).  The slopes c reproduce the reference
per-step mean sdf durations 15.7/17.4/19.0 us (2/3/4-ion chains) for the
two-state model at reorganization ratio 30 with 600 steps over 400 fs, and the
2-ion floor is set so the weak-coupling (ratio 1) total operation time is
5.0 ms; other floors scale with the chain slope.  The implied drive strengths
are checked against the sideband-Rabi ceiling and the schedule is rejected if
any pulse exceeds it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from . import hilbert as hb
from .errors import InfeasibleScheduleError, InvalidModelError, UnsupportedChainError
from .model import LvcmSpec, build_toy_model
from .trace import PopulationTrace
from .units import US_PER_MS

TWO_PI = 2.0 * math.pi

#: reference mean sdf pulse durations (us) per chain size, toy model,
#: lambda/Delta = 30, S = 600, tau = 400 fs; mode count used for each chain
REFERENCE_DURATIONS_US = {2: (15.7, 2), 3: (17.4, 3), 4: (19.0, 5)}
REFERENCE_LAMBDA_OVER_DELTA = 30.0
REFERENCE_STEPS = 600
REFERENCE_TAU_FS = 400.0
#: 2-ion cross-mode duration floor (us): 5.0 ms / (2 modes x 600 steps)
FLOOR_2_US = 5000.0 / 1200.0


@lru_cache(maxsize=1)
def default_duration_calibration() -> dict:
    """Per-chain (slope us/rad, floor us) derived from the reference durations."""
    table = {}
    for chain, (mean_us, n_modes) in REFERENCE_DURATIONS_US.items():
        spec = build_toy_model(n_modes, REFERENCE_LAMBDA_OVER_DELTA)
        c_z = float(np.real(spec.kappa[0, 0, 0] - spec.kappa[1, 1, 0])) / 2.0
        angle = c_z * REFERENCE_TAU_FS / REFERENCE_STEPS
        table[chain] = (mean_us / angle, None)
    c2 = table[2][0]
    return {chain: (c, FLOOR_2_US * c / c2) for chain, (c, _) in table.items()}


@dataclass(frozen=True)
class HardwareParams:
    """Trapped-ion system, noise, and overhead parameters (Table-style fields).

    A value out of its range raises :class:`InvalidModelError` naming its key.
    """

    sideband_rabi_khz: tuple = (1.47, 4.95)
    carrier_rabi_khz: float = 50.0
    motional_coherence_ms: float = 36.0
    heating_rate_quanta_per_s: float = 5.0
    laser_coherence_ms: float = 496.0
    cooling_ms: float = 4.0
    state_prep_us: float = 100.0
    measurement_us: float = 150.0
    duration_calibration: dict = field(default_factory=default_duration_calibration)

    def __post_init__(self):
        cal = self.duration_calibration.values()
        for key, values, zero_ok, inf_ok in (
            ("sideband_rabi_khz", self.sideband_rabi_khz, False, False),
            ("carrier_rabi_khz", [self.carrier_rabi_khz], False, False),
            # an infinite coherence time means no decay
            ("motional_coherence_ms", [self.motional_coherence_ms], False, True),
            ("laser_coherence_ms", [self.laser_coherence_ms], False, True),
            ("heating_rate_quanta_per_s", [self.heating_rate_quanta_per_s], True, False),
            ("cooling_ms", [self.cooling_ms], True, False),
            ("state_prep_us", [self.state_prep_us], True, False),
            ("measurement_us", [self.measurement_us], True, False),
            ("duration_slope_us_per_rad", [c for c, _ in cal], False, False),
            ("duration_floor_us", [f for _, f in cal], True, False),
        ):
            for v in values:
                # NaN fails both comparisons
                if not ((v >= 0 if zero_ok else v > 0) and (inf_ok or v < math.inf)):
                    rule = ("" if inf_ok else "finite and ") + (">= 0" if zero_ok else "> 0")
                    raise InvalidModelError(f"must be {rule}, got {v!r}", key=key)

    def overhead_per_run_us(self) -> float:
        return self.cooling_ms * US_PER_MS + self.state_prep_us + self.measurement_us

    def calibration_for(self, n_ions: int):
        try:
            return self.duration_calibration[n_ions]
        except KeyError:
            raise UnsupportedChainError(
                f"no duration calibration for a {n_ions}-ion chain "
                f"(table covers {sorted(self.duration_calibration)})"
            ) from None


@dataclass(frozen=True)
class NativePulse:
    """One native operation; ``virtual`` ops are ideal bookkeeping rotations."""

    step: int
    kind: str  # carrier | sdf | ms | disp
    qubits: tuple
    mode: int | None
    phis: tuple
    phi_m: float
    angle: float
    duration_us: float
    rabi_khz: float
    virtual: bool = False
    frame_tag: str = "eq"


# --- encoding -----------------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class QubitMapping:
    """How simulated electronic states live on the hardware qubits."""

    encoding: str  # dense | onehot
    qubit_count: int
    state_count: int
    # dense only (empty for one-hot, whose frame is diagonal in the measured basis):
    rephase: tuple  # per-state phase factors applied before encoding
    frame_z: tuple  # hardware-Z frame coefficient g: H0 = g Z

    def hw_index(self, state: int) -> int:
        if self.encoding == "dense":
            return state
        return 1 << (self.qubit_count - 1 - state)

    def correction(self, t_fs: float) -> np.ndarray:
        """Dense encoding: the 2x2 unitary mapping the qubit at simulated time t to the readout frame."""
        diag = np.array([1.0, -1.0]) * self.frame_z[0]
        return _H.conj().T @ np.diag(np.exp(-1j * diag * t_fs))


def map_spec(spec: LvcmSpec) -> QubitMapping:
    m = spec.state_count
    if m == 2:
        half = complex(spec.delta[0, 1])  # stored matrix holds Delta/2 off-diagonal
        gamma = np.angle(half) if half != 0 else 0.0
        rephase = (1.0, complex(np.exp(-1j * gamma)))
        # simulated coupling |half| X_sim maps to |half| Z_hw; equatorial pulse
        # phases then advance at twice that rate
        return QubitMapping(
            encoding="dense",
            qubit_count=1,
            state_count=2,
            rephase=rephase,
            frame_z=(abs(half),),
        )
    if m < 2:
        raise InvalidModelError("schedules need at least two electronic states")
    return QubitMapping(encoding="onehot", qubit_count=m, state_count=m, rephase=(), frame_z=())


def ions_for(spec: LvcmSpec) -> int:
    mapping = map_spec(spec)
    from_modes = (spec.mode_count + 1) // 2 + 1 if spec.mode_count else 1
    return max(from_modes, mapping.qubit_count)


# --- ZXZ decomposition for conjugated pulses ----------------------------------


def _axis_of(g: np.ndarray):
    """Pauli axis vector (x, y, z) and magnitude of a traceless Hermitian 2x2."""
    x = float(np.real(g[0, 1]))
    y = float(-np.imag(g[0, 1]))
    z = float(np.real(g[0, 0]))
    r = math.sqrt(x * x + y * y + z * z)
    return np.array([x, y, z]), r


def _conjugation_ops(axis: np.ndarray):
    """(beta, phi_c, phi0) such that

        C = exp(-i (beta/2) sigma^{phi_c})  satisfies  C sigma^{phi0} C^dag = axis . sigma.

    The equatorial projection e of the target fixes phi0; rotating about the
    in-plane axis m = e x z_hat by the tilt angle lifts e onto the target.
    Pure-equatorial targets return beta = 0 and the direct phase phi0.
    """
    x, y, z = axis
    if abs(z) < 1e-14:
        return 0.0, 0.0, math.atan2(-y, x)
    rho = math.hypot(x, y)
    if rho < 1e-14:
        ex, ey = 1.0, 0.0  # target is (+/-)Z; any equatorial start works
    else:
        ex, ey = x / rho, y / rho
    phi0 = math.atan2(-ey, ex)
    phi_c = math.atan2(ex, ey)
    beta = math.atan2(z, rho)
    return beta, phi_c, phi0


# --- lowering ------------------------------------------------------------------


class _Lowerer:
    """Lowers one Trotter step at a time from the model's coupling tables, read once per schedule."""

    def __init__(self, spec, mapping, hardware, n_ions, physical_rotations, dt_fs):
        self.spec = spec
        self.mapping = mapping
        self.hw = hardware
        self.physical = physical_rotations
        self.dt = dt_fs
        self.slope, self.floor = hardware.calibration_for(n_ions)
        self.rabi_max_rad_us = hardware.sideband_rabi_khz[1] * 1e-3 * TWO_PI
        self.carrier_rad_us = hardware.carrier_rabi_khz * 1e-3 * TWO_PI
        # the coupling tables: which terms appear, and their coefficients, are the same at every step
        m, n = spec.state_count, spec.mode_count
        self.dense = mapping.encoding == "dense"
        # diagonal energies in the compilation frame (rad/fs): with a rotating-wave drive the
        # compilation happens in the carrier frame, so the rotating states' energies are shifted
        # down by the carrier; the model's electronic matrix carries that shift
        self.energies = np.real(np.diag(spec.electronic_matrix(0.0)))
        diags = [np.real(np.diagonal(spec.kappa[:, :, k])) for k in range(n)]
        self.diag_couplings = [(k, diag) for k, diag in enumerate(diags) if np.any(np.abs(diag) > 0)]
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        # the dense encoding's inter-state coupling is its frame, so only one-hot lowers it
        self.pair_couplings = [] if self.dense else [((i, j), spec.delta[i, j]) for i, j in pairs if spec.delta[i, j]]
        self.offdiag_couplings = [
            ((i, j), k, spec.kappa[i, j, k]) for i, j in pairs for k in range(n) if spec.kappa[i, j, k]
        ]
        self._pair = self._pair_dense if self.dense else self._pair_onehot

    def _op(self, step, kind, qubits, mode, phis, phi_m, angle, virtual=False, tag="eq"):
        """One native op as a list, empty for a zero angle."""
        angle = float(angle)
        if angle < 0:  # fold the sign into the first spin phase (into phi_m for disp)
            angle = -angle
            if kind == "disp":
                phi_m = phi_m + math.pi
            else:
                phis = (phis[0] + math.pi, *phis[1:])
        if angle < 1e-15:
            return []
        if virtual and not self.physical:
            return [NativePulse(step, kind, qubits, mode, phis, phi_m, angle, 0.0, 0.0, True, "virt")]
        dur = angle / self.carrier_rad_us if kind == "carrier" else max(self.floor, self.slope * angle)
        if kind == "carrier":
            rabi_khz = self.hw.carrier_rabi_khz
        elif kind == "ms":
            # loop-closing detuning 2 pi / t; implied sideband Rabi sqrt(J * delta)
            rabi_rad_us = math.sqrt(2.0 * angle / dur * TWO_PI / dur)
            rabi_khz = rabi_rad_us / (1e-3 * TWO_PI)
            if rabi_rad_us > self.rabi_max_rad_us:
                raise InfeasibleScheduleError(
                    f"ms pulse at step {step} on qubits ({qubits[0]},{qubits[1]}) needs "
                    f"{rabi_khz:.2f} kHz sideband Rabi, above the "
                    f"{self.hw.sideband_rabi_khz[1]} kHz ceiling"
                )
        else:  # sdf and disp
            rabi_khz = 2.0 * angle / dur / (1e-3 * TWO_PI)
        return [NativePulse(step, kind, qubits, mode, phis, phi_m, angle, dur, rabi_khz, False, tag)]

    def _conjugated(self, step, kind, qubit, mode, axis, phi_m, angle):
        """A carrier or sdf about a hardware Pauli axis (unit 3-vector), via carrier conjugation.

        An equatorial axis lowers to the op alone; any other axis puts it
        between two opposite carrier rotations C (virtual by default).
        """
        beta, phi_c, phi0 = _conjugation_ops(axis)
        if beta == 0.0:
            return self._op(step, kind, (qubit,), mode, (phi0,), phi_m, angle)
        # time order: C^dag first, the op, then C (net evolution C U C^dag)
        return [
            *self._op(step, "carrier", (qubit,), None, (phi_c,), 0.0, -beta, virtual=True, tag="conj"),
            *self._op(step, kind, (qubit,), mode, (phi0,), phi_m, angle, tag="conj"),
            *self._op(step, "carrier", (qubit,), None, (phi_c,), 0.0, beta, virtual=True, tag="conj"),
        ]

    def step_ops(self, step: int) -> list:
        """The ops of one Trotter step; frame phases are dense spin 2 g t and mode -nu_k t."""
        t = (step + 0.5) * self.dt
        ops = []
        gap = self.energies[0] - self.energies[1]
        if self.dense and abs(gap) >= 1e-15:
            # (E_D - E_A)/2 Z_sim -> equatorial carrier in the rotating frame
            phi = 2.0 * self.mapping.frame_z[0] * t
            ops += self._op(step, "carrier", (0,), None, (phi,), 0.0, gap * self.dt)
        for k, diag in self.diag_couplings:
            ops += self._diagonal(step, t, k, diag)
        for ij, c in self.pair_couplings:
            ops += self._pair(step, t, ij, None, c)
        for ij, k, c in self.offdiag_couplings:
            ops += self._pair(step, t, ij, k, c)
        if self.spec.drive is not None:
            for ij, c in zip(self.spec.drive.transitions, self.spec.drive.coupling_coefficients(t)):
                if abs(c) > 0:
                    ops += self._pair(step, t, ij, None, c)
        return ops

    def _diagonal(self, step, t, k, diag):
        """Diagonal couplings to mode k: spin-dependent sdf pulses plus a disp for their trace."""
        phi_m = -self.spec.nu[k] * t
        if self.dense:  # spin part (d0 - d1)/2, trace part (d0 + d1)/2
            phi = 2.0 * self.mapping.frame_z[0] * t
            return [
                *self._op(step, "sdf", (0,), k, (phi,), phi_m, (diag[0] - diag[1]) / 2.0 * self.dt),
                *self._op(step, "disp", (), k, (), phi_m, (diag[0] + diag[1]) / 2.0 * self.dt),
            ]
        ops = []
        trace_part = 0.0
        for i, kappa_i in enumerate(diag):
            if abs(kappa_i) < 1e-15:
                continue
            # kappa (I - Z_i)/2 (x) B: Z part is axis -z with weight kappa/2
            axis = np.array([0.0, 0.0, -1.0])
            ops += self._conjugated(step, "sdf", i, k, axis, phi_m, kappa_i * self.dt / 2.0)
            trace_part += kappa_i / 2.0
        ops += self._op(step, "disp", (), k, (), phi_m, trace_part * self.dt)
        return ops

    def _pair_dense(self, step, t, states, mode, coeff):
        """A drive (carrier) or off-diagonal coupling (sdf) about its axis in the frame."""
        # rephased coefficient, then conjugate the generator into the frame
        c = coeff * self.mapping.rephase[0] * np.conj(self.mapping.rephase[1])
        g_sim = np.real(c) * _X + np.imag(c) * _Y  # on (|D>, |A>)
        g_hw = _H @ g_sim @ _H
        u = np.diag(np.exp(1j * np.array([1.0, -1.0]) * self.mapping.frame_z[0] * t))
        g_rot = u @ g_hw @ u.conj().T
        axis, r = _axis_of(g_rot)
        if r < 1e-15:
            return []
        if mode is None:  # the carrier generator is sigma/2
            return self._conjugated(step, "carrier", 0, None, axis / r, 0.0, 2.0 * r * self.dt)
        phi_m = -self.spec.nu[mode] * t
        return self._conjugated(step, "sdf", 0, mode, axis / r, phi_m, r * self.dt)

    def _pair_onehot(self, step, t, states, mode, coeff):
        """(c sigma+_i sigma-_j + h.c.), times B for a mode, as two commuting halves.

        Without a mode (inter-state coupling or drive) it is an XX/YY-style ms
        pair.  With one, each half is an sdf on qubit j conjugated by
        C = carrier_j(b+pi/2, -pi/2) . ms(a, b+pi/2, pi/4), which maps sigma^b_j
        to sigma^a_i sigma^b_j; the ops realize C U_sdf C^dag (verified
        numerically in the test suite).
        """
        i, j = states
        # interaction-picture coefficient picks up the energy-frame phase
        c_t = coeff * np.exp(1j * (self.energies[i] - self.energies[j]) * t)
        delta_phase = np.angle(c_t)
        theta = abs(c_t) * self.dt / 2.0
        if mode is None:
            # written out, not looped over shifts: a zero phase stays -0.0 here
            return [
                *self._op(step, "ms", (i, j), None, (-delta_phase, 0.0), 0.0, theta),
                *self._op(step, "ms", (i, j), None, (-delta_phase - math.pi / 2.0, -math.pi / 2.0), 0.0, theta),
            ]
        phi_m = -self.spec.nu[mode] * t
        ops = []
        for b in (0.0, -math.pi / 2.0):
            a = -delta_phase + b
            pc = b + math.pi / 2.0
            ops += self._op(step, "carrier", (j,), None, (pc,), 0.0, math.pi / 2.0, virtual=True, tag="conj")
            ops += self._op(step, "ms", (i, j), None, (a, pc), 0.0, -math.pi / 4.0, virtual=True, tag="conj")
            ops += self._op(step, "sdf", (j,), mode, (b,), phi_m, theta, tag="conj")
            ops += self._op(step, "ms", (i, j), None, (a, pc), 0.0, math.pi / 4.0, virtual=True, tag="conj")
            ops += self._op(step, "carrier", (j,), None, (pc,), 0.0, -math.pi / 2.0, virtual=True, tag="conj")
        return ops


def running_times_us(step_durations) -> list:
    """Operation time (us) at each step boundary 0 .. S, given each step's op durations.

    Durations are added one at a time, in step order and within a step in op
    order, so every boundary is the same float whichever caller sums the
    same durations.
    """
    times = [0.0]
    total = 0.0
    for durations in step_durations:
        for d in durations:
            total += d
        times.append(total)
    return times


def step_grid(steps: int, points: int) -> list:
    """Trotter-step indices 0, S/P, 2S/P, ... of ``points`` equally spaced grid times.

    A grid time must fall on a step boundary: ``steps`` not a multiple of
    ``points`` raises :class:`~ionvib.errors.InvalidModelError` naming
    ``trotter_steps``.
    """
    if steps % points:
        raise InvalidModelError(
            f"must be a multiple of the grid's point count ({points}), got {steps}", key="trotter_steps"
        )
    stride = steps // points
    return [g * stride for g in range(points)]


@dataclass
class PulseSchedule:
    """Ordered native ops plus everything the emulator needs to run them."""

    spec: LvcmSpec
    mapping: QubitMapping
    hardware: HardwareParams
    tau_fs: float
    steps: int
    n_ions: int
    ops: list
    initial_state: int = 0

    @property
    def pulses(self) -> list:
        return [p for p in self.ops if not p.virtual]

    @property
    def qubit_count(self) -> int:
        return self.mapping.qubit_count

    def operation_times_us(self) -> list:
        """Operation time (us) of the ops before each step boundary 0 .. steps."""
        step_durations = [[] for _ in range(self.steps)]
        for p in self.ops:
            step_durations[p.step].append(p.duration_us)
        return running_times_us(step_durations)

    def operation_time_us(self, upto_step: int | None = None) -> float:
        times = self.operation_times_us()
        limit = self.steps if upto_step is None else upto_step
        return times[min(max(limit, 0), len(times) - 1)]

    def serialize(self) -> str:
        buf = io.StringIO()
        buf.write("# ionvib pulse schedule v1\n")
        buf.write(f"# steps {self.steps}\n")
        buf.write(f"# tau_fs {self.tau_fs!r}\n")
        buf.write(f"# n_ions {self.n_ions}\n")
        buf.write(f"# qubits {self.qubit_count}\n")
        buf.write(f"# encoding {self.mapping.encoding}\n")
        buf.write(f"# operation_time_us {self.operation_time_us()!r}\n")
        buf.write(f"# overhead_us {self.hardware.overhead_per_run_us()!r}\n")
        buf.write("# columns: step kind qubits mode phi phi_m rabi_khz duration_us frame_tag\n")
        for p in self.ops:
            qubits = ",".join(str(q) for q in p.qubits) or "-"
            phis = ",".join(f"{x:.9f}" for x in p.phis) or "-"
            mode = p.mode if p.mode is not None else "-"
            buf.write(
                f"{p.step} {p.kind} {qubits} {mode} {phis} {p.phi_m:.9f} "
                f"{p.rabi_khz:.6f} {p.duration_us:.6f} {p.frame_tag}\n"
            )
        return buf.getvalue()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())


def build_schedule(
    spec: LvcmSpec,
    tau_fs: float,
    steps: int,
    hardware: HardwareParams | None = None,
    initial_state: int = 0,
    physical_rotations: bool = False,
) -> PulseSchedule:
    """Compile a model into a complete pulse schedule, one Trotter step after another.

    A ``steps`` below 1, or a ``tau_fs`` that is not finite and positive,
    raises :class:`~ionvib.errors.InvalidModelError` naming ``trotter_steps``
    or ``tau_fs``.
    """
    spec.check_state(initial_state)
    if steps < 1:
        raise InvalidModelError(f"must be at least 1, got {steps}", key="trotter_steps")
    if not 0 < tau_fs < math.inf:  # NaN fails too
        raise InvalidModelError(f"must be finite and positive, got {tau_fs}", key="tau_fs")
    hardware = hardware or HardwareParams()
    mapping = map_spec(spec)
    n_ions = ions_for(spec)
    low = _Lowerer(spec, mapping, hardware, n_ions, physical_rotations, tau_fs / steps)
    ops = [op for s in range(steps) for op in low.step_ops(s)]
    return PulseSchedule(
        spec=spec,
        mapping=mapping,
        hardware=hardware,
        tau_fs=tau_fs,
        steps=steps,
        n_ions=n_ions,
        ops=ops,
        initial_state=initial_state,
    )


# --- ideal composition (noise-free verification route) --------------------------


def base_generator(kind: str, cutoff: int) -> np.ndarray:
    """Zero-phase unit-angle generator on an op's own factors: sigma^0 = X, b + b^dag.

    Factors are the op's qubits in ``pulse.qubits`` order, then its mode.
    """
    if kind == "carrier":
        return 0.5 * _X
    if kind == "ms":
        return np.kron(_X, _X)
    b = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    if kind == "sdf":
        return np.kron(_X, b + b.T)
    if kind == "disp":
        return b + b.T
    raise InvalidModelError(f"unknown pulse kind {kind!r}")


def pulse_factors(pulse: NativePulse, layout):
    """An op's own tensor axes, the diagonal of its phase conjugation D, and its cutoff.

    The axes are the op's qubits in ``pulse.qubits`` order, then its mode;
    the cutoff is 0 for ops without a mode.  D is the outer product of the
    per-factor phases, raveled in that order.
    """
    axes = list(pulse.qubits)
    phases = [np.array([1.0, np.exp(-1j * phi)]) for phi in pulse.phis]
    cutoff = 0
    if pulse.mode is not None:
        cutoff = layout.mode_cutoffs[pulse.mode]
        axes.append(layout.qubit_count + pulse.mode)
        phases.append(np.exp(-1j * pulse.phi_m * np.arange(cutoff)))
    d = phases[0]
    for p in phases[1:]:
        d = np.multiply.outer(d, p).ravel()
    return axes, d, cutoff


def apply_pulse(psi: np.ndarray, pulse: NativePulse, layout, unitaries: dict) -> np.ndarray:
    """``U psi`` for ``U = exp(-i angle G)`` of one pulse, applied on its own tensor factors.

    U = D U0 D^dag as in the module docstring; ``unitaries`` caches the
    zero-phase U0 by (kind, angle, cutoff) and belongs to one schedule walk.
    """
    axes, d, cutoff = pulse_factors(pulse, layout)
    key = (pulse.kind, pulse.angle, cutoff)
    u0 = unitaries.get(key)
    if u0 is None:
        u0 = unitaries[key] = expm(-1j * pulse.angle * base_generator(pulse.kind, cutoff))
    u = d[:, None] * u0 * d.conj()
    # bring the op's axes to the front, contract, and move them back
    t = psi.reshape(layout.factors())
    rest = [a for a in range(t.ndim) if a not in axes]
    moved = t.transpose(axes + rest)
    out = np.dot(u, moved.reshape(len(u), -1)).reshape(moved.shape)
    return out.transpose(np.argsort(axes + rest)).reshape(-1)


def hardware_layout(schedule: PulseSchedule, cutoffs) -> hb.SpaceLayout:
    """Qubits (x) modes space of a schedule, one Fock cutoff per model mode."""
    if len(cutoffs) != schedule.spec.mode_count:
        raise InvalidModelError("need one cutoff per mode")
    return hb.SpaceLayout(schedule.qubit_count, tuple(cutoffs))


def hardware_initial_vector(schedule: PulseSchedule, layout) -> np.ndarray:
    """Hardware start state: encoded electronic state (dense: rotated by H), all modes in |0>."""
    elec = np.zeros(layout.electronic_dim, dtype=complex)
    elec[schedule.mapping.hw_index(schedule.initial_state)] = 1.0
    if schedule.mapping.encoding == "dense":
        elec = _H @ elec
    return hb.product_state(layout, elec)


def readout_populations(schedule: PulseSchedule, layout, state, t_fs: float) -> np.ndarray:
    """Electronic populations of a hardware vector or density matrix at simulated time t.

    Dense encoding applies the frame correction to the qubit's reduced
    density matrix and reads its computational populations.  One-hot reads
    each state's population as its qubit's |1> marginal of the basis
    probabilities.
    """
    mapping = schedule.mapping
    e = layout.electronic_dim
    if mapping.encoding == "onehot":
        probs = np.real(state.conj() * state if state.ndim == 1 else np.diagonal(state))
        probs = probs.reshape(e, -1).sum(axis=1).reshape((2,) * mapping.qubit_count)
        return np.array([probs.take(1, axis=q).sum() for q in range(mapping.qubit_count)])
    if state.ndim == 1:
        s = state.reshape(e, -1)
        rho_e = s @ s.conj().T
    else:
        rest = layout.dim // e
        rho_e = np.trace(state.reshape(e, rest, e, rest), axis1=1, axis2=3)
    corr = mapping.correction(t_fs)
    return np.real(np.diagonal(corr @ rho_e @ corr.conj().T))


def walk_schedule(schedule: PulseSchedule, layout, state, grid_steps, apply_op):
    """Walk the schedule once, reading the state at each grid step.

    Before reading at grid step g, every op of the Trotter steps below g is
    applied as ``state = apply_op(state, op)``.  ``state`` is a vector or a
    density matrix.  Returns the population trace on the times step * tau/S,
    with top-level leakage.  Grid steps must be non-decreasing and within
    0 .. steps, else :class:`~ionvib.errors.InvalidModelError` is raised.
    """
    grid_steps = list(grid_steps)
    if grid_steps != sorted(grid_steps) or not all(0 <= g <= schedule.steps for g in grid_steps):
        raise InvalidModelError(f"grid steps must be non-decreasing and within 0 .. {schedule.steps}")
    dt_fs = schedule.tau_fs / schedule.steps
    pops = np.zeros((len(grid_steps), schedule.mapping.state_count))
    leak = np.zeros(len(grid_steps))
    op_iter = iter(schedule.ops)
    pending = next(op_iter, None)
    for g, stop in enumerate(grid_steps):
        while pending is not None and pending.step < stop:
            state = apply_op(state, pending)
            pending = next(op_iter, None)
        pops[g] = readout_populations(schedule, layout, state, stop * dt_fs)
        leak[g] = hb.top_level_populations(layout, state).sum()
    times_fs = np.asarray(grid_steps, dtype=float) * dt_fs
    return PopulationTrace(times_fs=times_fs, populations=pops, leakage=leak)


def compose_ideal(schedule: PulseSchedule, cutoffs, grid_steps) -> PopulationTrace:
    """Compose the ideal unitaries of all ops and read populations at grid steps.

    Each op is applied on its own tensor factors by :func:`apply_pulse`, its
    phases as diagonal conjugations of a zero-phase unitary; those unitaries
    are cached for this call only.  ``grid_steps`` are Trotter-step indices
    (0 means the prepared state); the realized times are step * tau/S.
    """
    layout = hardware_layout(schedule, cutoffs)
    unitaries = {}

    def unitary(psi, op):
        return apply_pulse(psi, op, layout, unitaries)

    psi = hardware_initial_vector(schedule, layout)
    trace = walk_schedule(schedule, layout, psi, grid_steps, unitary)
    trace.metadata = {"method": "ion-ideal-composition", "steps": schedule.steps, "cutoffs": tuple(cutoffs)}
    return trace
