"""Start-up of fresh ``ionvib`` processes.

The other test modules import ``scipy.integrate`` at top level, so in-process
tests cannot show what a fresh CLI process loads, nor that a path whose scipy
import is deferred works in a process that never loaded it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ionvib import config as cfg
from ionvib import model
from ionvib.trace import read_csv
from ionvib.units import ev_to_rad_per_fs

SRC = str(Path(__file__).resolve().parent.parent / "src")
#: scipy subpackages that only some commands call
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse.linalg")


def _fresh(args, cwd):
    """Run ``python args...`` in a new interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def _cli(args, cwd):
    return _fresh(["-m", "ionvib.cli", *args], cwd)


def test_cli_import_skips_deferred_scipy_subpackages(tmp_path):
    probe = f"import sys, ionvib.cli; print(*[m for m in {DEFERRED!r} if m in sys.modules])"
    proc = _fresh(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cold_ehrenfest_run(tmp_path):
    proc = _cli(
        [
            "run", "--preset", "toy", "--backend", "ehrenfest", "--trajectories", "2",
            "--grid-points", "4", "--output", "ehrenfest.csv",
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    trace = read_csv(tmp_path / "ehrenfest.csv")
    assert len(trace.times_fs) == 4
    assert np.max(np.abs(trace.populations.sum(axis=1) - 1.0)) < 1e-6


def test_cold_driven_exact_run(tmp_path):
    # the Gaussian-envelope plet model of test_driven_spec_round_trips, with
    # one bath mode added so the run has a cutoff to fix
    plet = model.build_plet_model(
        (0.0, 2.0, 2.02, 1.98),
        (0.012, 0.0),
        (0.0, 0.012),
        0.01,
        0.01,
        (1 / np.sqrt(2), 1j / np.sqrt(2)),
        2.0,
        model.Envelope("gaussian", amplitude=0.7, center_fs=50.0, width_fs=20.0),
    )
    kappa = np.diag([0.0, 0.02, 0.02, -0.02]).astype(complex)[:, :, None]
    spec = model.LvcmSpec(
        plet.delta, ev_to_rad_per_fs(kappa), [ev_to_rad_per_fs(0.05)], drive=plet.drive, labels=plet.labels
    )
    cfg.save_model(spec, tmp_path / "driven.ini")
    proc = _cli(
        [
            "run", "--model-file", "driven.ini", "--backend", "exact", "--cutoffs", "4",
            "--grid-points", "4", "--output", "driven.csv",
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    trace = read_csv(tmp_path / "driven.csv")
    assert len(trace.times_fs) == 4
    assert np.max(np.abs(trace.populations.sum(axis=1) - 1.0)) < 1e-6
