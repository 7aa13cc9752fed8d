import math

import numpy as np
import pytest
import scipy.sparse as sp

from ionvib import hilbert as hb
from ionvib.errors import InvalidModelError


@pytest.fixture
def layout():
    return hb.SpaceLayout(1, (4, 3))


def test_annihilation_two_level():
    lay = hb.SpaceLayout(0, (2,))
    a = hb.annihilation(lay, 0).toarray()
    assert np.allclose(a, [[0, 1], [0, 0]])


def test_annihilation_matrix_elements():
    lay = hb.SpaceLayout(0, (6,))
    a = hb.annihilation(lay, 0).toarray()
    for m in range(6):
        for n in range(6):
            expected = math.sqrt(n) if m == n - 1 else 0.0
            assert a[m, n] == pytest.approx(expected)


def test_number_operator_spectrum(layout):
    n = hb.number_operator(layout, 0).toarray()
    vals = np.sort(np.linalg.eigvalsh(n))
    assert set(np.round(np.unique(vals)).astype(int)) == {0, 1, 2, 3}


def test_commutator_below_cutoff():
    lay = hb.SpaceLayout(0, (8,))
    a = hb.annihilation(lay, 0).toarray()
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical on the subspace excluding the top Fock level
    assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-12)


def test_pauli_algebra(layout):
    x = hb.pauli(layout, 0, "X").toarray()
    z = hb.pauli(layout, 0, "Z").toarray()
    eye = np.eye(layout.dim)
    assert np.allclose(x @ x, eye)
    assert np.allclose(x @ z + z @ x, 0.0)


def test_index_bounds(layout):
    with pytest.raises(InvalidModelError):
        hb.annihilation(layout, 2)
    with pytest.raises(InvalidModelError):
        hb.pauli(layout, 1, "X")


@pytest.mark.parametrize("index", [-1, 2])
def test_basis_vector_electronic_index_bounds(index):
    # a negative index must not wrap around to the last state
    with pytest.raises(InvalidModelError):
        hb.basis_vector(hb.SpaceLayout(1, (3,)), index)


def test_product_state(layout):
    amps = np.array([0.6, 0.8j])
    expected = np.kron(np.kron(amps, [0, 0, 1, 0]), [0, 1, 0])
    assert np.array_equal(hb.product_state(layout, amps, (2, 1)), expected)
    assert np.array_equal(hb.product_state(layout, amps), np.kron(np.kron(amps, [1, 0, 0, 0]), [1, 0, 0]))
    for elec, levels in (([1.0], (0, 0)), (amps, (0,)), (amps, (4, 0)), (amps, (0, -1))):
        with pytest.raises(InvalidModelError):
            hb.product_state(layout, elec, levels)


def test_dimension_limit():
    with pytest.raises(InvalidModelError):
        hb.SpaceLayout(2, (64, 64, 64, 64))


def test_thermal_zero_temperature():
    p = hb.thermal_weights(5, 0.0)
    assert np.array_equal(p, np.eye(5)[0])
    assert p[0] == pytest.approx(1.0)
    assert p.sum() == pytest.approx(1.0)


def test_thermal_ratio_and_trace():
    p = hb.thermal_weights(8, 0.06)
    assert p[1] / p[0] == pytest.approx(0.06 / 1.06, rel=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_thermal_mean_occupation_converges():
    n = float(np.arange(8) @ hb.thermal_weights(8, 0.06))
    assert abs(n - 0.06) / 0.06 < 0.01


def test_thermal_rejects_negative():
    with pytest.raises(InvalidModelError):
        hb.thermal_weights(4, -0.1)


def test_expectation_vacuum(layout):
    st = hb.basis_vector(layout, 0)
    n = hb.number_operator(layout, 0)
    assert hb.expectation(st, n) == pytest.approx(0.0)


def test_expectation_hermitian_real(layout):
    rng = np.random.default_rng(1)
    vec = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    vec /= np.linalg.norm(vec)
    st = hb.QuantumState(layout, vec)
    b = hb.annihilation(layout, 1) * np.exp(0.7j)
    h = b + b.getH()
    assert abs(hb.expectation(st, h).imag) < 1e-12


def test_expectation_trace_normalized(layout):
    rho = np.kron(np.diag([1.0, 0.0]), np.diag(hb.thermal_weights(4, 0.2)))
    st = hb.QuantumState(layout, np.kron(rho, np.diag(hb.thermal_weights(3, 0.2))))
    eye = sp.identity(layout.dim, dtype=complex, format="csr")
    assert hb.expectation(st, eye).real == pytest.approx(1.0, abs=1e-12)


def test_expectation_layout_mismatch(layout):
    other = hb.SpaceLayout(1, (4, 4))
    st = hb.basis_vector(layout, 0)
    with pytest.raises(InvalidModelError):
        hb.expectation(st, hb.number_operator(other, 0))


def test_embedding_commutes_on_disjoint_factors(layout):
    a0 = hb.annihilation(layout, 0)
    x = hb.pauli(layout, 0, "X")
    left = (x @ a0).toarray()
    right = (a0 @ x).toarray()
    assert np.allclose(left, right)
    # against the explicit kron of single-factor pieces
    x1 = np.array([[0, 1], [1, 0]], dtype=complex)
    a = np.diag(np.sqrt(np.arange(1, 4)), 1).astype(complex)
    direct = np.kron(np.kron(x1, a), np.eye(3))
    assert np.allclose(left, direct)


def test_state_validation():
    lay = hb.SpaceLayout(0, (3,))
    with pytest.raises(InvalidModelError):
        hb.QuantumState(lay, np.array([1.0, 1.0, 0.0]))  # not normalized
    bad_rho = np.diag([0.8, 0.4, -0.2]).astype(complex)
    with pytest.raises(InvalidModelError):
        hb.QuantumState(lay, bad_rho)


def test_leakage_diagnostic():
    lay = hb.SpaceLayout(0, (3, 3))
    st = hb.basis_vector(lay, 0, (2, 0))
    assert hb.top_level_populations(lay, st.data).sum() == pytest.approx(1.0)
    st0 = hb.basis_vector(lay, 0, (0, 0))
    assert hb.top_level_populations(lay, st0.data).sum() == pytest.approx(0.0)
