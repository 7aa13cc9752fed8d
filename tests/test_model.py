import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionvib import model
from ionvib.errors import InvalidModelError
from ionvib.units import ev_to_rad_per_fs, rad_per_fs_to_ev

EV = ev_to_rad_per_fs


class TestReorganizationEnergy:
    def test_zero_coupling(self):
        spec = model.build_toy_model(3, 0.0)
        assert model.reorganization_energy(spec, 0.0) == 0.0

    def test_reference_inversion_lambda_equals_delta(self):
        # independent oracle: invert lambda = kappa^2 sum(1/nu) with the
        # reference frequencies 0.08679, 0.09919 eV
        nu_ev = np.array([0.08679, 0.09919])
        kappa_ev = math.sqrt(0.08679 / np.sum(1.0 / nu_ev))
        assert kappa_ev == pytest.approx(0.063382, abs=1e-6)
        spec = model.build_toy_model(2, 1.0)
        built_kappa = float(np.real(spec.kappa[0, 0, 0])) * 2.0
        assert rad_per_fs_to_ev(built_kappa) == pytest.approx(kappa_ev, rel=1e-12)

    def test_reference_inversion_lambda_30(self):
        nu_ev = np.array([0.08679, 0.09919])
        kappa_ev = math.sqrt(30 * 0.08679 / np.sum(1.0 / nu_ev))
        assert kappa_ev == pytest.approx(0.34717, abs=2e-5)
        spec = model.build_toy_model(2, 30.0)
        lam = model.reorganization_energy(spec, EV(kappa_ev))
        assert rad_per_fs_to_ev(lam) == pytest.approx(30 * 0.08679, rel=1e-4)

    def test_quadratic_in_kappa(self):
        spec = model.build_toy_model(4, 2.0)
        k = 0.0731
        assert model.reorganization_energy(spec, 2 * k) == pytest.approx(
            4 * model.reorganization_energy(spec, k), rel=1e-14
        )


class TestToyModel:
    def test_frequencies_n2(self):
        assert model.toy_frequencies_ev(2) == pytest.approx([0.08679, 0.09919])

    def test_frequencies_n5_reference_values(self):
        assert model.toy_frequencies_ev(5) == pytest.approx(
            [0.08679, 0.08989, 0.09299, 0.09609, 0.09919], abs=1e-12
        )

    def test_single_mode_edge_case(self):
        assert model.toy_frequencies_ev(1) == pytest.approx([0.08679])

    def test_requested_lambda_recovered(self):
        for ratio in (0.5, 1.0, 5.0, 30.0):
            spec = model.build_toy_model(3, ratio)
            kappa = float(np.real(spec.kappa[0, 0, 0])) * 2.0
            lam = model.reorganization_energy(spec, kappa)
            assert lam / EV(0.08679) == pytest.approx(ratio, rel=1e-12)

    def test_structure(self):
        spec = model.build_toy_model(2, 1.0)
        half = EV(0.08679) / 2
        assert spec.delta[0, 1] == pytest.approx(half)
        assert spec.delta[0, 0] == 0 and spec.delta[1, 1] == 0
        assert np.allclose(spec.kappa[0, 0, :], -spec.kappa[1, 1, :])

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidModelError):
            model.build_toy_model(0, 1.0)
        with pytest.raises(InvalidModelError):
            model.build_toy_model(2, -1.0)


class TestIntersectionModel:
    def test_degenerate_at_origin(self):
        spec = model.build_ci_model(0.02, 0.02, 0.08, 0.08)
        lo, hi = model.ci_adiabatic_surfaces(spec, 0, 0, 0, 0)
        assert lo == 0.0 and hi == 0.0

    def test_substitution_point(self):
        k = 0.015
        nu = 0.09
        spec = model.build_ci_model(k, k, nu, nu)
        lo, hi = model.ci_adiabatic_surfaces(spec, 1.0, 0.0, 0.0, 0.0)
        assert hi == pytest.approx(EV(nu) / 2 + math.sqrt(2) * EV(k), rel=1e-12)
        assert lo == pytest.approx(EV(nu) / 2 - math.sqrt(2) * EV(k), rel=1e-12)

    def test_closed_form_many_points(self):
        # acceptance: match the closed form at 1e4 random points to 1e-12
        spec = model.build_ci_model(0.021, 0.017, 0.083, 0.095)
        kx, kz = EV(0.021), EV(0.017)
        nux, nuz = EV(0.083), EV(0.095)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3, 3, size=(10_000, 4))
        for x, z, px, pz in pts:
            lo, hi = model.ci_adiabatic_surfaces(spec, x, z, px, pz)
            harm = 0.5 * nux * (x * x + px * px) + 0.5 * nuz * (z * z + pz * pz)
            gap = math.sqrt(2 * kx * kx * x * x + 2 * kz * kz * z * z)
            assert abs(lo - (harm - gap)) <= 1e-12
            assert abs(hi - (harm + gap)) <= 1e-12

    def test_gap_identity(self):
        spec = model.build_ci_model(0.02, 0.01, 0.08, 0.11)
        kx, kz = EV(0.02), EV(0.01)
        rng = np.random.default_rng(3)
        for x, z, px, pz in rng.uniform(-2, 2, size=(200, 4)):
            lo, hi = model.ci_adiabatic_surfaces(spec, x, z, px, pz)
            assert hi - lo == pytest.approx(
                2 * math.sqrt(2 * kx**2 * x**2 + 2 * kz**2 * z**2), abs=1e-12
            )

    def test_shape_validation(self):
        toy = model.build_toy_model(2, 1.0)
        with pytest.raises(InvalidModelError):
            model.ci_adiabatic_surfaces(toy, 0, 0, 0, 0)
        with pytest.raises(InvalidModelError):
            model.build_ci_model(0.02, 0.02, -0.08, 0.08)


class TestVaetModel:
    def test_structure(self):
        spec = model.build_vaet_model(0.0, 0.03, 0.02, 0.01, 0.012, -0.008, 0.015, (0.05, 0.06, 0.07))
        assert spec.delta[1, 1] == pytest.approx(EV(0.03))
        assert spec.delta[0, 1] == pytest.approx(EV(0.01))
        assert spec.kappa[0, 0, 0] == pytest.approx(EV(0.01))
        assert spec.kappa[1, 1, 0] == 0  # mode 1 couples to the donor only
        assert spec.kappa[0, 0, 2] == 0  # mode 3 couples to the acceptor only

    def test_rejects_bad_frequencies(self):
        with pytest.raises(InvalidModelError):
            model.build_vaet_model(0, 0, 0.02, 0.01, 0.012, -0.008, 0.015, (0.05, -0.06, 0.07))


class TestPletModel:
    def _spec(self, pol=(1.0, 0.0), v2=0.01, rwa=True):
        return model.build_plet_model(
            (0.0, 2.00, 2.02, 1.98),
            (0.012, 0.0),
            (0.0, 0.012),
            0.01,
            v2,
            pol,
            2.00,
            model.Envelope("constant", amplitude=1.0),
            rwa=rwa,
        )

    def test_rejects_non_orthogonal_dipoles(self):
        with pytest.raises(InvalidModelError):
            model.build_plet_model(
                (0.0, 2.0, 2.0, 1.98),
                (1.0, 0.0),
                (0.5, 0.5),
                0.01,
                0.01,
                (1.0, 0.0),
                2.0,
                model.Envelope("constant", amplitude=1.0),
            )

    def test_static_couplings(self):
        spec = self._spec()
        assert spec.delta[1, 3] == pytest.approx(EV(0.01))
        assert spec.delta[2, 3] == pytest.approx(EV(0.01))
        assert spec.kappa.shape == (4, 4, 0)

    def test_rwa_energy_shift(self):
        spec = self._spec()
        h = spec.electronic_matrix(0.0)
        assert h[0, 0] == pytest.approx(0.0)
        assert h[1, 1] == pytest.approx(EV(2.00) - EV(2.00))
        assert h[3, 3] == pytest.approx(EV(1.98) - EV(2.00))

    def test_polarization_selects_transition(self):
        spec = self._spec(pol=(1.0, 0.0))
        coeffs = spec.drive.coupling_coefficients(0.0)
        assert abs(coeffs[0]) > 0
        assert coeffs[1] == 0  # field orthogonal to the second dipole

    def test_rwa_toggle(self):
        assert not self._spec().is_time_dependent()
        lab = self._spec(rwa=False)
        assert lab.is_time_dependent()
        c = lab.drive.coupling_coefficients(0.0)[0]
        assert abs(c.imag) < 1e-15  # lab-frame field is real


class TestValidationProperties:
    @given(
        n=st.integers(min_value=1, max_value=4),
        ratio=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_builders_produce_hermitian_specs(self, n, ratio):
        spec = model.build_toy_model(n, ratio)
        assert np.allclose(spec.delta, spec.delta.conj().T)
        for k in range(spec.mode_count):
            sl = spec.kappa[:, :, k]
            assert np.allclose(sl, sl.conj().T)

    def test_constructor_rejects_non_hermitian(self):
        delta = np.array([[0.0, 0.1], [0.2, 0.0]], dtype=complex)
        with pytest.raises(InvalidModelError):
            model.LvcmSpec(delta, np.zeros((2, 2, 1)), [0.1])
        kappa = np.zeros((2, 2, 1), dtype=complex)
        kappa[0, 1, 0] = 0.1j
        kappa[1, 0, 0] = 0.1j  # should be -0.1j
        with pytest.raises(InvalidModelError):
            model.LvcmSpec(np.zeros((2, 2)), kappa, [0.1])

    def test_constructor_rejects_non_positive_frequency(self):
        with pytest.raises(InvalidModelError):
            model.LvcmSpec(np.zeros((2, 2)), np.zeros((2, 2, 1)), [0.0])

    def test_spec_immutable(self):
        spec = model.build_toy_model(2, 1.0)
        with pytest.raises(ValueError):
            spec.delta[0, 0] = 1.0


class TestModelDynamicsExamples:
    """Dynamical consequences of the model structure, checked with the exact solver."""

    def test_ci_without_promoting_mode_freezes_transfer(self):
        from ionvib import exact

        spec = model.build_ci_model(0.0, 0.02, 0.08, 0.08)
        times = np.linspace(0.0, 300.0, 13)
        tr = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(6, 8)))
        assert np.max(np.abs(tr.populations[:, 0] - 1.0)) < 1e-10

    def _plet(self, pol, v2=0.01, amplitude=1.0):
        return model.build_plet_model(
            (0.0, 2.00, 2.02, 1.98),
            (0.012, 0.0),
            (0.0, 0.012),
            0.01,
            v2,
            pol,
            2.00,
            model.Envelope("constant", amplitude=amplitude),
        )

    def test_field_along_first_dipole_never_populates_second(self):
        from ionvib import exact

        spec = self._plet(pol=(1.0, 0.0), v2=0.0)
        times = np.linspace(0.0, 400.0, 21)
        tr = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=()))
        assert np.max(tr.populations[:, 2]) < 1e-10  # second donor state stays dark
        assert np.max(tr.populations[:, 0]) > 0  # the driven path is active

    def test_no_field_keeps_ground_state(self):
        from ionvib import exact

        spec = self._plet(pol=(1.0, 0.0), amplitude=0.0)
        times = np.linspace(0.0, 400.0, 11)
        tr = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=()))
        assert np.max(np.abs(tr.populations[:, 0] - 1.0)) < 1e-10

    def test_circular_polarizations_interfere_differently(self):
        # same |mu_i| and V1 = V2, but the two circular polarizations drive the
        # slightly split donor states with opposite relative phase; measured
        # acceptor-trace difference is ~0.05 at these illustrative parameters
        from ionvib import exact

        times = np.linspace(0.0, 400.0, 41)
        traces = {}
        for tag, pol in (("L", (1 / np.sqrt(2), 1j / np.sqrt(2))), ("R", (1 / np.sqrt(2), -1j / np.sqrt(2)))):
            spec = self._plet(pol=pol)
            tr = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=()))
            traces[tag] = tr.populations[:, 3]
        assert np.max(np.abs(traces["L"] - traces["R"])) > 0.03
