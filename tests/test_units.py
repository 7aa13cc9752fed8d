import numpy as np
import pytest

from ionvib.units import HBAR_EV_FS, ev_to_rad_per_fs, rad_per_fs_to_ev


def test_zero_energy():
    assert ev_to_rad_per_fs(0.0) == 0.0


def test_hbar_definition():
    assert ev_to_rad_per_fs(HBAR_EV_FS) == 1.0


def test_reference_coupling_frequency():
    # 0.08679 eV / hbar, computed independently here
    expected = 0.08679 / 0.6582119569
    got = ev_to_rad_per_fs(0.08679)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.131857, abs=5e-7)


def test_round_trip_identity_bulk():
    rng = np.random.default_rng(42)
    values = 10.0 ** rng.uniform(-6, 3, size=10_000)
    back = rad_per_fs_to_ev(ev_to_rad_per_fs(values))
    assert np.max(np.abs(back / values - 1.0)) < 1e-12


def test_quantity_round_trip():
    assert rad_per_fs_to_ev(ev_to_rad_per_fs(0.08679)) == pytest.approx(0.08679, rel=1e-15)
