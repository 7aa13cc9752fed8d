"""Linear-algebra substrate: truncated qubit (x) Fock product spaces.

Conventions used throughout the workbench:

- Tensor factor order is qubits first (qubit 0 leftmost), then modes in index
  order.  All embedding helpers follow this order.
- Qubit basis is (|0>, |1>) with Z = diag(1, -1).  The ladder operators are
  ``plus`` = |1><0| and ``minus`` = |0><1|.
- Mode k is truncated to Fock levels |0> .. |d_k - 1> with <n-1|a|n> = sqrt(n).

Operators are plain scipy CSR matrices on the layout they are asked for and
states are plain numpy vectors or density matrices; ``QuantumState`` only adds
validation for states handed in from outside.  The noisy emulator builds its
ladder, number and Pauli operators here, on a pulse's own factors
``SpaceLayout(len(qubits), (cutoff,))`` or an idle mode's
``SpaceLayout(0, (cutoff,))``; the tests also build them on the full
qubit (x) mode space.  Product states come from :func:`product_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionLimitError, InvalidModelError

DIM_LIMIT = 2**20


@dataclass(frozen=True)
class SpaceLayout:
    """Shape of a composite qubit (x) truncated-Fock space."""

    qubit_count: int
    mode_cutoffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "mode_cutoffs", tuple(int(d) for d in self.mode_cutoffs))
        if self.qubit_count < 0:
            raise InvalidModelError("qubit_count must be non-negative")
        if any(d < 2 for d in self.mode_cutoffs):
            raise InvalidModelError(f"every cutoff must be at least 2, got {min(self.mode_cutoffs)}", key="cutoffs")
        if self.dim > DIM_LIMIT:
            raise DimensionLimitError(f"total dimension {self.dim} exceeds the limit {DIM_LIMIT}")

    @property
    def mode_count(self) -> int:
        return len(self.mode_cutoffs)

    @property
    def electronic_dim(self) -> int:
        return 2**self.qubit_count

    @property
    def dim(self) -> int:
        return self.electronic_dim * math.prod(self.mode_cutoffs)

    def factors(self) -> list:
        """Dimension of each tensor factor, qubits then modes."""
        return [2] * self.qubit_count + list(self.mode_cutoffs)


class QuantumState:
    """A pure state vector or density matrix on a :class:`SpaceLayout`.

    Vectors are validated to unit norm (1e-9); densities to Hermiticity,
    unit trace (1e-9) and eigenvalues >= -1e-8.
    """

    __slots__ = ("layout", "kind", "data")

    def __init__(self, layout: SpaceLayout, data, kind: str | None = None, validate: bool = True):
        data = np.asarray(data, dtype=complex)
        if kind is None:
            kind = "vector" if data.ndim == 1 else "density"
        if kind == "vector":
            if data.shape != (layout.dim,):
                raise InvalidModelError("state vector shape does not match layout")
            if validate and abs(np.linalg.norm(data) - 1.0) > 1e-9:
                raise InvalidModelError("state vector is not normalized")
        elif kind == "density":
            if data.shape != (layout.dim, layout.dim):
                raise InvalidModelError("density matrix shape does not match layout")
            if validate:
                if np.max(np.abs(data - data.conj().T)) > 1e-9:
                    raise InvalidModelError("density matrix is not Hermitian")
                if abs(np.trace(data).real - 1.0) > 1e-9:
                    raise InvalidModelError("density matrix trace differs from 1")
                if np.linalg.eigvalsh(data).min() < -1e-8:
                    raise InvalidModelError("density matrix has a significantly negative eigenvalue")
        else:
            raise InvalidModelError(f"unknown state kind {kind!r}")
        self.layout = layout
        self.kind = kind
        self.data = data


def _embed(layout: SpaceLayout, factor_index: int, op) -> sp.csr_matrix:
    """Kron an operator acting on one tensor factor with identities elsewhere."""
    dims = layout.factors()
    left = math.prod(dims[:factor_index]) if factor_index > 0 else 1
    right = math.prod(dims[factor_index + 1 :]) if factor_index + 1 < len(dims) else 1
    m = sp.csr_matrix(op, dtype=complex)
    if left > 1:
        m = sp.kron(sp.identity(left, dtype=complex, format="csr"), m, format="csr")
    if right > 1:
        m = sp.kron(m, sp.identity(right, dtype=complex, format="csr"), format="csr")
    return m


def annihilation(layout: SpaceLayout, mode_index: int) -> sp.csr_matrix:
    """Truncated annihilation operator of one mode, identity elsewhere."""
    if not 0 <= mode_index < layout.mode_count:
        raise InvalidModelError(f"mode index {mode_index} out of range")
    d = layout.mode_cutoffs[mode_index]
    a = sp.diags(np.sqrt(np.arange(1, d)), offsets=1, format="csr")
    return _embed(layout, layout.qubit_count + mode_index, a)


def number_operator(layout: SpaceLayout, mode_index: int) -> sp.csr_matrix:
    if not 0 <= mode_index < layout.mode_count:
        raise InvalidModelError(f"mode index {mode_index} out of range")
    d = layout.mode_cutoffs[mode_index]
    n = sp.diags(np.arange(d, dtype=float), format="csr")
    return _embed(layout, layout.qubit_count + mode_index, n)


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "plus": np.array([[0, 0], [1, 0]], dtype=complex),
    "minus": np.array([[0, 1], [0, 0]], dtype=complex),
}


def pauli(layout: SpaceLayout, qubit_index: int, axis: str) -> sp.csr_matrix:
    """Pauli / ladder operator on one qubit, embedded by tensor identity."""
    if not 0 <= qubit_index < layout.qubit_count:
        raise InvalidModelError(f"qubit index {qubit_index} out of range")
    key = axis if axis in ("plus", "minus") else axis.upper()
    if key not in _PAULI:
        raise InvalidModelError(f"unknown Pauli axis {axis!r}")
    return _embed(layout, qubit_index, _PAULI[key])


def thermal_weights(cutoff: int, nbar: float) -> np.ndarray:
    """Truncated geometric occupation p_n ~ (nbar/(1+nbar))^n, renormalized."""
    if nbar < 0:
        raise InvalidModelError("nbar must be non-negative")
    r = nbar / (1.0 + nbar)
    w = r ** np.arange(cutoff)
    return w / w.sum()


def product_state(layout: SpaceLayout, electronic, mode_levels=None) -> np.ndarray:
    """Product vector (electronic amplitudes) (x) |n_1 ... n_N>; modes default to |0>."""
    electronic = np.asarray(electronic, dtype=complex)
    if electronic.shape != (layout.electronic_dim,):
        raise InvalidModelError("electronic amplitude count does not match layout")
    levels = tuple(mode_levels) if mode_levels is not None else (0,) * layout.mode_count
    if len(levels) != layout.mode_count:
        raise InvalidModelError("mode level count does not match layout")
    if not all(0 <= n < d for n, d in zip(levels, layout.mode_cutoffs)):
        raise InvalidModelError("mode level exceeds cutoff")
    vec = np.zeros((layout.electronic_dim, layout.dim // layout.electronic_dim), dtype=complex)
    vec[:, np.ravel_multi_index(levels, layout.mode_cutoffs)] = electronic
    return vec.reshape(-1)


def basis_vector(layout: SpaceLayout, electronic_index: int, mode_levels=None) -> QuantumState:
    """Product basis state |electronic> (x) |n_1 ... n_N>."""
    if not 0 <= electronic_index < layout.electronic_dim:
        raise InvalidModelError(f"electronic index {electronic_index} out of range")
    elec = np.zeros(layout.electronic_dim, dtype=complex)
    elec[electronic_index] = 1.0
    return QuantumState(layout, product_state(layout, elec, mode_levels), "vector", validate=False)


def expectation(state: QuantumState, op) -> complex:
    """<psi|O|psi> for vectors, Tr(rho O) for densities."""
    if op.shape != (state.layout.dim, state.layout.dim):
        raise InvalidModelError("operator shape does not match the state's layout")
    if state.kind == "vector":
        return complex(np.vdot(state.data, op @ state.data))
    return complex(np.trace(op @ state.data))


def top_level_populations(layout: SpaceLayout, data) -> np.ndarray:
    """Population of each mode's highest retained Fock level, from a vector or density."""
    data = np.asarray(data)
    probs = np.abs(data) ** 2 if data.ndim == 1 else np.real(np.diag(data))
    probs = probs.reshape(layout.factors())
    top = np.zeros(layout.mode_count)
    for k in range(layout.mode_count):
        axis = layout.qubit_count + k
        top[k] = probs.sum(axis=tuple(i for i in range(probs.ndim) if i != axis))[-1]
    return top
