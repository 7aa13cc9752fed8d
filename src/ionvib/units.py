"""Unit handling for the workbench.

Everything downstream works in a single internal unit system:

- energies and angular frequencies: rad/fs
- simulated (molecular) time: fs
- laboratory (hardware) time: us

Model files and user-facing flags quote energies in eV; this module is the one
place where eV <-> rad/fs conversion happens.  The conversion constant is the
reduced Planck constant in eV.fs (CODATA; an external physical constant, not a
fitted parameter):

    hbar = 0.6582119569 eV.fs   =>   omega[rad/fs] = E[eV] / hbar
"""

from __future__ import annotations

HBAR_EV_FS = 0.6582119569

#: microseconds per second, used when folding quoted per-second rates into lab time
US_PER_S = 1.0e6
#: microseconds per millisecond
US_PER_MS = 1.0e3


def ev_to_rad_per_fs(value_ev: float) -> float:
    return value_ev / HBAR_EV_FS


def ev_to_rad_per_fs_complex(values):
    """Complex-array conversion with per-component float division.

    numpy's complex-by-real division can differ from IEEE float division by
    one ulp; converting the real and imaginary parts separately keeps file
    round trips bit-exact.
    """
    import numpy as np

    arr = np.asarray(values, dtype=complex)
    return arr.real / HBAR_EV_FS + 1j * (arr.imag / HBAR_EV_FS)


def rad_per_fs_to_ev(value: float) -> float:
    return value * HBAR_EV_FS
