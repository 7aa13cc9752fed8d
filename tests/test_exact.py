import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import jv

from ionvib import ehrenfest, exact, hilbert as hb, model
from ionvib.errors import ConvergenceError, InvalidModelError
from ionvib.units import HBAR_EV_FS, ev_to_rad_per_fs

DELTA_W = ev_to_rad_per_fs(0.08679)


def rabi_population(times_fs):
    return np.cos(DELTA_W * times_fs / 2.0) ** 2


class TestAssembly:
    def test_hermitian(self):
        spec = model.build_toy_model(2, 5.0)
        layout = exact.layout_for(spec, (4, 4))
        h = exact.hamiltonian_parts(spec, layout)[0]
        assert abs(h - h.getH()).max() <= 1e-12

    def test_decoupled_block_structure(self):
        # kappa = 0: H = H_el (x) I + I (x) sum nu_k n_k exactly
        spec = model.build_toy_model(2, 0.0)
        layout = exact.layout_for(spec, (3, 3))
        h = exact.hamiltonian_parts(spec, layout)[0].toarray()
        h_el = np.array([[0, DELTA_W / 2], [DELTA_W / 2, 0]])
        expected = np.kron(h_el, np.eye(9)).astype(complex)
        expected += spec.nu[0] * hb.number_operator(layout, 0).toarray()
        expected += spec.nu[1] * hb.number_operator(layout, 1).toarray()
        assert np.allclose(h, expected, atol=1e-14)

    def test_dimension_limit_error(self):
        spec = model.build_toy_model(2, 1.0)
        with pytest.raises(InvalidModelError):
            exact.layout_for(spec, (2048, 2048))


class TestPropagation:
    def test_initial_condition(self):
        spec = model.build_toy_model(2, 1.0)
        tr = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=np.array([0.0, 5.0]), cutoffs=(4, 4))
        )
        assert tr.populations[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert tr.populations[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rabi_limit_and_zero_crossing(self):
        spec = model.build_toy_model(2, 0.0)
        t_zero = math.pi * HBAR_EV_FS / 0.08679  # ~23.8 fs
        times = np.array([0.0, 10.0, t_zero, 35.0, 50.0])
        tr = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(2, 2)))
        assert np.max(np.abs(tr.populations[:, 0] - rabi_population(times))) < 1e-9
        assert tr.populations[2, 0] == pytest.approx(0.0, abs=1e-9)

    def test_population_conservation_and_parity(self):
        spec = model.build_toy_model(2, 3.0)
        times = exact.default_time_grid(300.0, 16)
        tr = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(10, 8)))
        assert np.max(np.abs(tr.populations.sum(axis=1) - 1.0)) < 1e-9
        # sign flip of kappa leaves populations invariant
        flipped = model.LvcmSpec(spec.delta, -spec.kappa, spec.nu)
        tr2 = exact.propagate(exact.PropagationRequest(spec=flipped, times_fs=times, cutoffs=(10, 8)))
        assert np.max(np.abs(tr.populations - tr2.populations)) < 1e-9

    def test_norm_conservation(self):
        spec = model.build_toy_model(2, 5.0)
        layout = exact.layout_for(spec, (12, 10))
        h, _ = exact.hamiltonian_parts(spec, layout)
        psi0 = hb.basis_vector(layout, 0).data
        states = list(exact._Chebyshev(h).evolve(psi0, exact.default_time_grid(400.0, 10)))
        norms = [np.linalg.norm(s) for s in states]
        assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-8

    def test_energy_conservation(self):
        spec = model.build_toy_model(2, 5.0)
        layout = exact.layout_for(spec, (14, 12))
        h, _ = exact.hamiltonian_parts(spec, layout)
        psi0 = hb.basis_vector(layout, 0).data
        states = list(exact._Chebyshev(h).evolve(psi0, exact.default_time_grid(400.0, 10)))
        energies = np.array([np.vdot(psi, h @ psi) for psi in states])
        h_scale = abs(energies[0]) + 1.0
        assert np.max(np.abs(energies - energies[0])) / h_scale < 1e-8

    @pytest.mark.parametrize("name", ["toy", "driven"])
    def test_frame_equivalence(self, name):
        spec, cutoffs = _frame_specs()[name]
        times = exact.default_time_grid(200.0, 11)
        lab = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=cutoffs, eps_int=1e-10))
        assert np.max(np.abs(lab.populations - _interaction_frame_populations(spec, cutoffs, times))) <= 1e-8

    @pytest.mark.parametrize("kind", ["constant", "gaussian"])
    @pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "lab-field"])
    def test_driven_electronic_matches_tdse(self, kind, rwa):
        # with no modes the Ehrenfest equations are the exact electronic TDSE
        envelope = model.Envelope(kind, amplitude=2.0, center_fs=60.0, width_fs=25.0)
        spec = _plet(envelope, rwa)
        times = exact.default_time_grid(150.0, 15)
        tr = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(), eps_int=1e-10))
        start = ehrenfest.TrajectoryState(c=[1, 0, 0, 0], q=np.zeros(0), p=np.zeros(0))
        ref = ehrenfest.evolve_trajectory(spec, start, times, tol=1e-10)
        assert ref[:, 0].min() < 0.7  # the drive moves population out of the ground state
        assert np.max(np.abs(tr.populations - ref)) <= 1e-7

    def test_thermal_initial_state_close_to_ground(self):
        # quantifies the zero-temperature approximation at nbar = 0.06;
        # measured max difference is ~0.035 for lambda = Delta, N = 2
        spec = model.build_toy_model(2, 1.0)
        times = exact.default_time_grid(200.0, 11)
        cold = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(8, 8)))
        warm = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(8, 8), nbar=0.06)
        )
        dev = np.max(np.abs(cold.populations - warm.populations))
        assert 0.0 < dev < 0.05

    @pytest.mark.parametrize("nbar", [0.0, 0.06, 0.5, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_thermal_mixture_matches_product_loop(self, n, nbar):
        # oracle: a Python loop over every Fock product; same levels, same order, same weight bits
        layout = hb.SpaceLayout(1, (12, 10, 8)[:n])
        per_mode = [hb.thermal_weights(d, nbar) for d in layout.mode_cutoffs]
        combos = []
        for levels in itertools.product(*[range(len(w)) for w in per_mode]):
            w = math.prod(per_mode[k][i] for k, i in enumerate(levels))
            if w >= exact.WEIGHT_FLOOR:
                combos.append((levels, w))
        total = sum(w for _, w in combos)
        levels, weights = exact._thermal_mixture(layout, nbar)
        assert [tuple(row) for row in levels.tolist()] == [c for c, _ in combos]
        assert weights.tolist() == [w / total for _, w in combos]
        if nbar < 0.1 and n:
            assert len(combos) < math.prod(layout.mode_cutoffs)  # the floor drops products

    def test_grid_validation(self):
        spec = model.build_toy_model(2, 1.0)
        with pytest.raises(InvalidModelError):
            exact.PropagationRequest(spec=spec, times_fs=np.array([1.0, 2.0]))
        with pytest.raises(InvalidModelError):
            exact.PropagationRequest(spec=spec, times_fs=np.array([0.0, 2.0, 2.0]))
        with pytest.raises(InvalidModelError):
            exact.PropagationRequest(spec=spec, times_fs=np.array([]))


def _plet(envelope, rwa=True):
    pol = (1 / math.sqrt(2), 1j / math.sqrt(2))
    return model.build_plet_model(
        (0.0, 2.00, 2.02, 1.98), (0.012, 0.0), (0.0, 0.012), 0.01, 0.01, pol, 2.00, envelope, rwa
    )


def _frame_specs():
    """The toy model, and a one-mode model under a Gaussian RWA drive."""
    toy = model.build_toy_model(1, 1.0)
    drive = model.DriveSpec(
        transitions=((0, 1),),
        dipoles=((1.0, 0.0),),
        polarization=(1.0, 0.0),
        carrier_rad_per_fs=0.5,
        envelope=model.Envelope("gaussian", amplitude=0.2, center_fs=80.0, width_fs=30.0),
        rotating_states=(1,),
    )
    driven = model.LvcmSpec(toy.delta, toy.kappa, toy.nu, drive=drive)
    return {"toy": (model.build_toy_model(2, 1.0), (8, 8)), "driven": (driven, (8,))}


def _interaction_frame_populations(spec, cutoffs, times):
    """Oracle: electronic populations from the interaction-frame equation, integrated densely.

    With H0 = sum_k nu_k n_k, psi_I = exp(i H0 t) psi obeys
    i d psi_I / dt = [E(t) (x) I + sum_k (K_k (x) a_k e^{-i nu_k t} + h.c.)] psi_I.
    exp(i H0 t) is diagonal in the Fock basis, so the populations are the lab frame's.
    """
    layout = exact.layout_for(spec, cutoffs)
    q, m = layout.electronic_dim, spec.state_count
    rest = layout.dim // q

    def electronic(matrix):  # an M x M matrix on the full space, zero on the padding
        return np.kron(np.pad(matrix, (0, q - m)), np.eye(rest))

    terms = [electronic(spec.kappa[:, :, k]) @ hb.annihilation(layout, k).toarray() for k in range(spec.mode_count)]

    def rhs(t, y):
        h = electronic(spec.electronic_matrix(t))
        for nu, b in zip(spec.nu, terms):
            h = h + np.exp(-1j * nu * t) * b + np.exp(1j * nu * t) * b.conj().T
        return -1j * (h @ y)

    psi0 = hb.basis_vector(layout, 0).data.astype(complex)
    sol = solve_ivp(rhs, (0.0, times[-1]), psi0, t_eval=times, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    return (np.abs(sol.y.T.reshape(len(times), q, rest)) ** 2).sum(axis=2)[:, :m]


def _static_specs():
    """One static lab-frame case per preset; plet's constant RWA drive makes H complex."""
    plet = _plet(model.Envelope("constant", amplitude=1.0))
    vaet = model.build_vaet_model(0.0, 0.02, 0.03, 0.01, 0.012, -0.008, 0.015, (0.05, 0.06, 0.07))
    return {
        "toy": (model.build_toy_model(2, 10.0), (8, 6)),
        "ci": (model.build_ci_model(0.02, 0.02, 0.08, 0.08), (6, 5)),
        "vaet": (vaet, (4, 4, 3)),
        "plet": (plet, ()),
    }


def _kron_hamiltonian(spec, layout):
    """Oracle: the static H as kron chains through ``hilbert``'s embedded ladder operators."""
    pad = lambda m: np.pad(m, (0, layout.electronic_dim - len(m)))  # noqa: E731
    modes = hb.SpaceLayout(0, layout.mode_cutoffs)
    if spec.is_time_dependent():
        static = sp.csr_matrix((layout.dim, layout.dim), dtype=complex)
    else:
        static = sp.kron(pad(spec.electronic_matrix(0.0)), sp.identity(modes.dim), format="csr")
    if spec.mode_count:
        levels = np.indices(layout.mode_cutoffs).reshape(spec.mode_count, -1)
        static = static + sp.diags(np.tile(spec.nu @ levels, layout.electronic_dim), format="csr")
    for k in range(spec.mode_count):
        b = sp.kron(pad(spec.kappa[:, :, k]), hb.annihilation(modes, k), format="csr")
        static = static + b + b.getH()
    static = sp.csr_matrix(static, dtype=complex)
    static.eliminate_zeros()
    return static


def _assembly_specs():
    cases = {f"toy-N{n}": (model.build_toy_model(n, 5.0), (5, 4, 3, 3, 2)[:n]) for n in range(1, 6)}
    cases.update({name: _static_specs()[name] for name in ("ci", "vaet", "plet")})
    cases["driven"] = _frame_specs()["driven"]
    cases["plet-driven"] = (_plet(model.Envelope("gaussian", amplitude=1.0, center_fs=80.0, width_fs=30.0)), ())
    return cases


@pytest.mark.parametrize("name", sorted(_assembly_specs()))
def test_hamiltonian_parts_matches_kron_assembly(name):
    # the same CSR arrays, bit for bit, as the kron-chain construction
    spec, cutoffs = _assembly_specs()[name]
    layout = exact.layout_for(spec, cutoffs)
    got, _ = exact.hamiltonian_parts(spec, layout)
    ref = _kron_hamiltonian(spec, layout)
    assert got.has_canonical_format and ref.has_canonical_format
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


class TestChebyshev:
    @pytest.mark.parametrize("name", ["toy", "ci", "vaet", "plet"])
    def test_matches_dense_exponential(self, name):
        spec, cutoffs = _static_specs()[name]
        layout = exact.layout_for(spec, cutoffs)
        static, electronic = exact.hamiltonian_parts(spec, layout)
        assert electronic is None
        h = static.toarray()
        if name == "plet":
            assert np.abs(h.imag).max() > 0
        rng = np.random.default_rng(3)
        psi0 = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        psi0 /= np.linalg.norm(psi0)
        times = np.array([0.0, 0.7, 5.0, 5.25, 18.0, 60.0, 61.0, 120.0])
        states = list(exact._Chebyshev(static).evolve(psi0, times))
        ref = psi0
        for i, dt in enumerate(np.diff(times)):
            ref = expm(-1j * dt * h) @ ref
            assert np.max(np.abs(states[i + 1] - ref)) <= 1e-12

    def test_gershgorin_interval_holds_the_spectrum(self):
        spec, cutoffs = _static_specs()["toy"]
        h, _ = exact.hamiltonian_parts(spec, exact.layout_for(spec, cutoffs))
        prop = exact._Chebyshev(h)
        eigs = np.linalg.eigvalsh(h.toarray())
        assert prop.center - prop.half_width <= eigs[0] and eigs[-1] <= prop.center + prop.half_width

    @pytest.mark.parametrize("level", [0.0, -0.37])
    def test_zero_width_spectrum_is_a_pure_phase(self, level):
        h = sp.csr_matrix(level * sp.identity(6, dtype=complex))
        prop = exact._Chebyshev(h)
        psi0 = np.arange(1.0, 7.0) + 1j
        states = list(prop.evolve(psi0, np.array([0.0, 2.5, 7.0])))
        assert prop.half_width == 0.0
        assert np.array_equal(states[1], np.exp(-2.5j * level) * psi0)
        assert np.array_equal(states[2], np.exp(-4.5j * level) * states[1])

    def test_coefficients_computed_once_per_step_length(self):
        spec, cutoffs = _static_specs()["toy"]
        prop = exact._Chebyshev(exact.hamiltonian_parts(spec, exact.layout_for(spec, cutoffs))[0])
        psi0 = hb.basis_vector(exact.layout_for(spec, cutoffs), 0).data
        list(prop.evolve(psi0, np.array([0.0, 10.0, 20.0, 30.0, 45.0])))
        list(prop.evolve(psi0, np.array([0.0, 10.0])))
        assert sorted(prop._series) == [10.0, 15.0]

    # plet's spectrum is narrow (r * 400 fs ~ 22), so its grid spans 20 ps to cross windows
    @pytest.mark.parametrize("name,span_fs", [("toy", 400.0), ("plet", 20000.0)])
    def test_windows_match_dense_exponential(self, name, span_fs):
        spec, cutoffs = _static_specs()[name]
        layout = exact.layout_for(spec, cutoffs)
        static, _ = exact.hamiltonian_parts(spec, layout)
        prop = exact._Chebyshev(static)
        h = static.toarray()
        rng = np.random.default_rng(11)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, span_fs, 49))])
        psi0 = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        psi0 /= np.linalg.norm(psi0)
        states = list(prop.evolve(psi0, times))
        assert len(prop._blocks) > 1
        ref = psi0
        for i, dt in enumerate(np.diff(times)):
            ref = expm(-1j * dt * h) @ ref
            assert np.max(np.abs(states[i + 1] - ref)) <= 1e-12

    def test_block_rows_are_the_series_of_the_summed_steps(self):
        spec, cutoffs = _static_specs()["toy"]
        prop = exact._Chebyshev(exact.hamiltonian_parts(spec, exact.layout_for(spec, cutoffs))[0])
        steps = [10.0, 7.5, 10.0, 3.25]
        coef, ends, phases = prop._block(steps, 0)
        assert len(coef) == len(steps)
        for j, tau in enumerate(np.cumsum(steps)):
            series = 2 * jv(np.arange(coef.shape[1]), prop.half_width * tau)
            series[0] /= 2
            assert np.max(np.abs(coef[j] - series)) <= 1e-14
            assert abs(series[ends[j]:]).max(initial=0.0) < exact.CHEBYSHEV_CUT
            assert phases[j] == pytest.approx(np.exp(-1j * prop.center * tau), abs=1e-14)

    def test_window_states_stream(self):
        # the first window's states come out before any later window is computed
        spec, cutoffs = _static_specs()["toy"]
        layout = exact.layout_for(spec, cutoffs)
        prop = exact._Chebyshev(exact.hamiltonian_parts(spec, layout)[0])
        times = exact.default_time_grid(400.0, 40)
        states = iter(prop.evolve(hb.basis_vector(layout, 0).data, times))
        coef, _, _ = prop._block(np.diff(times).tolist(), 0)
        assert 1 < len(coef) < len(times) - 1
        for _ in range(1 + len(coef)):
            next(states)
        assert prop.matvecs == coef.shape[1] - 1

    def test_windowed_run_needs_fewer_matvecs(self):
        # one series per grid step needed 39 steps x 80 terms here (3120 terms, 3081 matvecs)
        spec = model.build_toy_model(2, 10.0)
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(400.0, 40), cutoffs=(20, 18))
        assert 0 < exact.propagate(req).metadata["matvecs"] <= 0.65 * 3120

    def test_matvecs_count_every_run_of_the_search(self):
        spec = model.build_toy_model(2, 1.0)
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(400.0, 8))
        runs = {}
        cutoffs = exact.converge_cutoffs(req, runs)
        assert exact.propagate(req).metadata["matvecs"] == sum(run[3] for run in runs.values()) > runs[cutoffs][3]
        fixed = replace(req, cutoffs=cutoffs)
        assert exact.propagate(fixed).metadata["matvecs"] == runs[cutoffs][3] > 0
        driven, driven_cutoffs = _frame_specs()["driven"]
        assert exact.propagate(replace(fixed, spec=driven, cutoffs=driven_cutoffs)).metadata["matvecs"] == 0


def _matmul_matvec(m, n, indptr, indices, data, x, out):
    """Reference for scipy's CSR kernel as exact.py calls it: ``out``, zero on entry, becomes A @ x."""
    assert not out.any()
    out[...] = sp.csr_matrix((data, indices, indptr), shape=(m, n)) @ x


class TestCsrKernel:
    # exact.py calls scipy's private ``csr_matvec``; these pin it to what ``A @ x`` gives, bit for bit

    @pytest.mark.parametrize("case", ["toy", "plet", "toy-int64"])
    def test_recurrence_matches_matmul(self, monkeypatch, case):
        spec, cutoffs = _static_specs()[case.removesuffix("-int64")]
        layout = exact.layout_for(spec, cutoffs)
        static, _ = exact.hamiltonian_parts(spec, layout)
        assert static.data.imag.any() == (case == "plet")  # toy's H is real, plet's complex
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        times = exact.default_time_grid(20000.0 if case == "plet" else 400.0, 40)

        def states():
            prop = exact._Chebyshev(static)
            if case == "toy-int64":  # scipy keeps int32 indices at these sizes unless told otherwise
                prop._step.indptr = prop._step.indptr.astype(np.int64)
                prop._step.indices = prop._step.indices.astype(np.int64)
            out = np.array(list(prop.evolve(psi0, times)))
            assert len(prop._blocks) > 1 and prop.matvecs > exact.CHUNK
            return out

        got = states()
        monkeypatch.setattr(exact, "csr_matvec", _matmul_matvec)
        assert np.array_equal(got, states())

    def test_dop853_matches_matmul(self, monkeypatch):
        spec, cutoffs = _frame_specs()["driven"]
        layout = exact.layout_for(spec, cutoffs)
        static, electronic = exact.hamiltonian_parts(spec, layout)
        psi0 = hb.basis_vector(layout, 0).data.astype(complex)
        times = exact.default_time_grid(200.0, 10)
        got = exact._dop853(static, electronic, psi0, times, 1e-8)
        monkeypatch.setattr(exact, "csr_matvec", _matmul_matvec)
        assert np.array_equal(got, exact._dop853(static, electronic, psi0, times, 1e-8))


class TestCutoffSearch:
    @pytest.mark.parametrize(
        "ratio,tau_fs,points,expected",
        [
            # uncoupled modes stay in their initial Fock level
            pytest.param(0.0, 100.0, 5, (2, 2), id="uncoupled"),
            pytest.param(1.0, 400.0, 40, (8, 8), id="lam1"),
            pytest.param(5.0, 400.0, 40, (16, 14), id="lam5"),
            pytest.param(10.0, 400.0, 40, (20, 18), id="lam10"),
        ],
    )
    def test_pinned_cutoffs(self, ratio, tau_fs, points, expected):
        spec = model.build_toy_model(2, ratio)
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(tau_fs, points))
        assert exact.converge_cutoffs(req) == expected

    def test_search_leakage_is_mixture_leakage(self):
        # thermal start: the search must check the leakage propagate reports
        spec = model.build_toy_model(1, 5.0)
        req = exact.PropagationRequest(
            spec=spec, times_fs=exact.default_time_grid(100.0, 5), nbar=0.5, cutoffs=(6,)
        )
        assert exact._run(req, (6,))[2][0] == max(exact.propagate(req).leakage)

    def test_monotone_in_coupling(self):
        times = exact.default_time_grid(200.0, 9)
        weak = exact.converge_cutoffs(
            exact.PropagationRequest(spec=model.build_toy_model(2, 1.0), times_fs=times)
        )
        strong = exact.converge_cutoffs(
            exact.PropagationRequest(spec=model.build_toy_model(2, 10.0), times_fs=times)
        )
        assert all(s >= w for s, w in zip(strong, weak))
        assert sum(strong) > sum(weak)

    def test_returned_cutoffs_are_stable(self):
        spec = model.build_toy_model(2, 1.0)
        times = exact.default_time_grid(200.0, 9)
        req = exact.PropagationRequest(spec=spec, times_fs=times, eps_cut=1e-4)
        cuts = exact.converge_cutoffs(req)
        base = exact.propagate(
            exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=cuts)
        ).populations
        for k in range(2):
            probe = list(cuts)
            probe[k] += 2
            grown = exact.propagate(
                exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=tuple(probe))
            ).populations
            assert np.max(np.abs(grown - base)) < 1e-4

    def test_each_tuple_runs_once_and_propagate_reuses_the_certifying_run(self, monkeypatch):
        calls = []
        run = exact._run

        def counting(request, cutoffs):
            calls.append(tuple(cutoffs))
            return run(request, cutoffs)

        monkeypatch.setattr(exact, "_run", counting)
        spec = model.build_toy_model(2, 10.0)
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(400.0, 40))
        assert exact.converge_cutoffs(req) == (20, 18)
        assert len(calls) == len(set(calls))
        searched = list(calls)
        calls.clear()
        tr = exact.propagate(req)
        assert calls == searched
        assert tr.metadata["search_runs"] == len(searched)
        assert tr.metadata["search_cutoffs"] == tuple(searched)
        fixed = exact.propagate(replace(req, cutoffs=(20, 18)))
        assert np.array_equal(fixed.populations, tr.populations)
        assert (fixed.metadata["search_runs"], fixed.metadata["search_cutoffs"]) == (0, ())

    def test_modeless_model_search_is_its_single_run(self):
        spec, _ = _static_specs()["plet"]
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(100.0, 5))
        tr = exact.propagate(req)
        assert (tr.metadata["cutoffs"], tr.metadata["search_cutoffs"]) == ((), ((),))
        fixed = exact.propagate(replace(req, cutoffs=()))
        assert np.array_equal(tr.populations, fixed.populations)

    def test_base_run_over_dimension_limit_is_a_convergence_failure(self, monkeypatch):
        # the search's base run, not a probe, is the first to cross the limit
        monkeypatch.setattr(hb, "DIM_LIMIT", 96)
        spec = model.build_toy_model(2, 1.0)
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(400.0, 8))
        with pytest.raises(ConvergenceError) as info:
            exact.converge_cutoffs(req)
        assert info.value.last is not None and info.value.previous is not None

    def test_failure_when_limit_too_small(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_CUTOFF", 8)
        spec = model.build_toy_model(2, 30.0)
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(400.0, 5))
        with pytest.raises(ConvergenceError):
            exact.converge_cutoffs(req)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        from ionvib import trace as tr

        spec = model.build_toy_model(2, 1.0)
        result = exact.propagate(
            exact.PropagationRequest(
                spec=spec, times_fs=exact.default_time_grid(100.0, 5), cutoffs=(6, 6)
            )
        )
        path = tmp_path / "trace.csv"
        result.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "time_fs,P_0,P_1,leakage"
        back = tr.read_csv(path)
        assert np.array_equal(back.populations, result.populations)
        assert np.array_equal(back.times_fs, result.times_fs)
        assert np.array_equal(back.leakage, result.leakage)


@pytest.mark.parametrize("initial", [-1, 2])
def test_integer_initial_state_out_of_range(initial):
    vaet = model.build_vaet_model(0.0, 0.02, 0.03, 0.01, 0.012, -0.008, 0.015, (0.05, 0.06, 0.07))
    with pytest.raises(InvalidModelError, match="initial state"):
        exact.PropagationRequest(
            spec=vaet, times_fs=np.array([0.0, 5.0]), initial_state=initial, cutoffs=(2, 2, 2)
        )


def test_wall_time_recorded():
    spec = model.build_toy_model(2, 1.0)
    tr = exact.propagate(
        exact.PropagationRequest(spec=spec, times_fs=np.array([0.0, 5.0]), cutoffs=(4, 4))
    )
    assert tr.metadata["wall_time_s"] > 0


CLOCK_PROBE = """
import sys, time
from ionvib import exact, model

modules = []
clock = time.perf_counter
time.perf_counter = lambda: modules.append(sorted(m for m in sys.modules if m in {deferred!r})) or clock()
if {driven!r}:
    envelope = model.Envelope("gaussian", amplitude=0.7, center_fs=50.0, width_fs=20.0)
    spec = model.build_plet_model(
        (0.0, 2.0, 2.02, 1.98), (0.012, 0.0), (0.0, 0.012), 0.01, 0.01, (1.0, 0.0), 2.0, envelope
    )
else:
    spec = model.build_toy_model(1, 5.0)
times = exact.default_time_grid(100.0, 3)
exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(4,) * spec.mode_count))
print(*modules[0])
"""


@pytest.mark.parametrize("driven,module", [(False, "scipy.special"), (True, "scipy.integrate")])
def test_wall_time_starts_after_the_solver_import(tmp_path, driven, module):
    # a fresh interpreter: in-process, other test modules have loaded scipy already
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = CLOCK_PROBE.format(deferred=("scipy.integrate", "scipy.special"), driven=driven)
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert module in proc.stdout.split()  # loaded when the clock first reads
