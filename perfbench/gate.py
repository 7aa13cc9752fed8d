"""Correctness gate: compare a pass's outputs with the checked-in reference outputs.

The comparison uses this file's own numpy code rather than
``ionvib.trace.compare_traces`` or ``ionvib compare``: both call ``np.trapz``,
which numpy 2.4 no longer has, so they raise on the installed toolchain.

Deterministic outputs must reproduce the reference's cutoffs and stay within
``DET_TOL`` of its populations.  Sampled outputs (Ehrenfest means, shot-noise
columns) are judged in units of their own standard error or sigma, so they
pass for any seed.

``python3 perfbench/gate.py`` runs the gate's self-test.
"""

from __future__ import annotations

import configparser
import gzip
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "ref"

#: max |dP| allowed against the reference for deterministic backends
#: (far below the solver's eps_cut of 1e-4)
DET_TOL = 1e-8
#: acceptance criterion 2: ion-ideal vs exact at S = 600
IDEAL_EXACT_TOL = 0.01
#: largest allowed shift of a sampled value, in units of its standard error
Z_MAX = 6.0
#: physical sanity: populations in [0, 1] and summing to 1
PHYS_TOL = 1e-6

_POP = re.compile(r"P_\d+")


def read_table(path):
    """Header names and a (rows, cols) float array from a CSV file."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_cutoffs(sidecar) -> tuple | None:
    """Cutoffs recorded in a run's ``.meta.ini`` sidecar, or None if it has none."""
    p = configparser.ConfigParser(interpolation=None)
    if not p.read(sidecar):
        raise FileNotFoundError(sidecar)
    for section in ("exact", "ion"):
        text = p.get(section, "cutoffs", fallback="").strip()
        if text:
            return tuple(int(v) for v in text.replace(",", " ").split())
    return None


def read_int(sidecar, section: str, key: str) -> int:
    p = configparser.ConfigParser(interpolation=None)
    p.read(sidecar)
    return int(p.get(section, key))


def _columns(header, pattern):
    return [i for i, h in enumerate(header) if pattern(h)]


class Report:
    """Problems found and facts read while checking one pass."""

    def __init__(self):
        self.problems = []
        self.max_dp = 0.0
        self.ideal_vs_exact = 0.0
        self.shift_stderr = 0.0
        self.shift_sigma = 0.0
        self.cutoffs = []

    def fail(self, file: str, message: str):
        self.problems.append(f"{file}: {message}")


def _load_pair(path, ref_path, rep: Report, name: str):
    header, data = read_table(path)
    ref_header, ref = read_table(ref_path)
    if header != ref_header or data.shape != ref.shape:
        rep.fail(name, f"layout {header} {data.shape} differs from reference {ref_header} {ref.shape}")
        return None
    if np.max(np.abs(data[:, 0] - ref[:, 0])) > 1e-9:
        rep.fail(name, "time grid differs from reference")
        return None
    return header, data, ref


def _physical(header, data, rep: Report, name: str):
    pops = data[:, _columns(header, _POP.fullmatch)]
    if pops.min() < -PHYS_TOL or pops.max() > 1 + PHYS_TOL:
        rep.fail(name, "population outside [0, 1]")
    if np.max(np.abs(pops.sum(axis=1) - 1.0)) > PHYS_TOL:
        rep.fail(name, "populations do not sum to 1")


def _deterministic(header, data, ref, rep: Report, name: str):
    cols = _columns(header, lambda h: _POP.fullmatch(h) or h == "leakage")
    dp = float(np.max(np.abs(data[:, cols] - ref[:, cols])))
    rep.max_dp = max(rep.max_dp, dp)
    if not dp <= DET_TOL:
        rep.fail(name, f"max |dP| vs reference {dp:.3g} > {DET_TOL:g}")


def _cutoffs(path, ref_path, rep: Report, name: str):
    got = read_cutoffs(str(path) + ".meta.ini")
    want = read_cutoffs(str(ref_path) + ".meta.ini")
    if got != want:
        rep.fail(name, f"cutoffs {got} differ from reference {want}")
    if got:
        rep.cutoffs.append(got)


def check_trace(path, ref_path, rep: Report, name: str):
    loaded = _load_pair(path, ref_path, rep, name)
    if loaded:
        header, data, ref = loaded
        _physical(header, data, rep, name)
        _deterministic(header, data, ref, rep, name)
    _cutoffs(path, ref_path, rep, name)
    return loaded


def check_noisy(path, ref_path, rep: Report, name: str):
    loaded = check_trace(path, ref_path, rep, name)
    if not loaded:
        return
    header, data, ref = loaded
    runs = read_int(str(path) + ".meta.ini", "ion", "runs_per_point")
    m = len(_columns(header, _POP.fullmatch))
    col = {h: i for i, h in enumerate(header)}
    for i in range(m):
        p_hat = data[:, col[f"P_{i}_sampled"]]
        sigma = data[:, col[f"P_{i}_sigma"]]
        p_ref = np.clip(ref[:, col[f"P_{i}"]], 0.0, 1.0)
        if np.max(np.abs(p_hat * runs - np.round(p_hat * runs))) > 1e-9:
            rep.fail(name, f"P_{i}_sampled is not a count over {runs} runs")
        if np.max(np.abs(sigma - np.sqrt(p_hat * (1 - p_hat) / runs))) > 1e-12:
            rep.fail(name, f"P_{i}_sigma is not the binomial sigma of P_{i}_sampled")
        scale = np.maximum.reduce([sigma, np.sqrt(p_ref * (1 - p_ref) / runs), np.full_like(sigma, 1.0 / runs)])
        z = float(np.max(np.abs(p_hat - p_ref) / scale))
        rep.shift_sigma = max(rep.shift_sigma, z)
        if not z <= Z_MAX:
            rep.fail(name, f"P_{i}_sampled is {z:.2f} sigma from the reference populations")


def check_ensemble(path, ref_path, rep: Report, name: str):
    loaded = _load_pair(path, ref_path, rep, name)
    if not loaded:
        return
    header, data, ref = loaded
    _physical(header, data, rep, name)
    runs = read_int(str(path) + ".meta.ini", "ehrenfest", "trajectories")
    ref_runs = read_int(str(ref_path) + ".meta.ini", "ehrenfest", "trajectories")
    m = len(_columns(header, _POP.fullmatch))
    col = {h: i for i, h in enumerate(header)}
    for i in range(m):
        mean, se = data[:, col[f"P_{i}"]], data[:, col[f"stderr_{i}"]]
        ref_mean, ref_se = ref[:, col[f"P_{i}"]], ref[:, col[f"stderr_{i}"]]
        # the reference's stderr rescaled to this ensemble size floors the
        # run's own: a 20-trajectory stderr is sometimes far too small at a point
        expected = ref_se * math.sqrt(ref_runs / runs)
        scale = np.sqrt(np.maximum(se, expected) ** 2 + ref_se**2)
        spread = scale > 1e-12
        if np.any(np.abs(mean - ref_mean)[~spread] > 1e-9):
            rep.fail(name, f"P_{i} differs from the reference where neither has spread")
        if spread.any():
            z = float(np.max(np.abs(mean - ref_mean)[spread] / scale[spread]))
            rep.shift_stderr = max(rep.shift_stderr, z)
            if not z <= Z_MAX:
                rep.fail(name, f"mean P_{i} is {z:.2f} stderr from the reference")
            ratio = math.sqrt(np.mean(se**2) / np.mean(expected**2))
            if not 0.5 <= ratio <= 2.0:
                rep.fail(name, f"stderr_{i} is {ratio:.2f} times the reference's rescaled stderr")


def _tokens(path):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return [line.replace(",", " ").split() for line in fh]


def check_text(path, ref_path, rep: Report, name: str):
    """Token-by-token comparison; numbers agree to DET_TOL (absolute) or 1e-12 (relative)."""
    got, want = _tokens(path), _tokens(ref_path)
    if len(got) != len(want):
        rep.fail(name, f"{len(got)} lines, reference has {len(want)}")
        return
    worst = 0.0
    for n, (a, b) in enumerate(zip(got, want), start=1):
        if len(a) != len(b):
            rep.fail(name, f"line {n} has {len(a)} fields, reference has {len(b)}")
            return
        for x, y in zip(a, b):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                rep.fail(name, f"line {n}: {x!r} differs from reference {y!r}")
                return
            diff = abs(fx - fy)
            if not (diff <= DET_TOL or diff <= 1e-12 * abs(fy)):  # NaN fails too
                rep.fail(name, f"line {n}: {x} differs from reference {y}")
                return
            worst = max(worst, diff)
    rep.max_dp = max(rep.max_dp, worst)


CHECKS = {
    "trace": check_trace,
    "noisy": check_noisy,
    "ensemble": check_ensemble,
    "schedule": check_text,
    "table": check_text,
}


def ref_path(workload: str, file: str) -> Path:
    path = REF_DIR / workload / file
    gz = path.with_name(path.name + ".gz")
    return gz if gz.exists() else path


def check_output(workload: str, out_dir, output, rep: Report):
    """Check one output file of a workload against its reference."""
    path = Path(out_dir) / output.file
    if not path.exists():
        rep.fail(output.file, "missing")
        return
    try:
        CHECKS[output.kind](path, ref_path(workload, output.file), rep, output.file)
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        rep.fail(output.file, f"unreadable: {exc!r}")


def check_ideal_vs_exact(out_dir, ideal_file: str, exact_file: str, rep: Report):
    """Acceptance criterion 2: the ideal Trotter composition tracks the exact solver."""
    try:
        header, ideal = read_table(Path(out_dir) / ideal_file)
        _, exact = read_table(Path(out_dir) / exact_file)
    except (OSError, ValueError) as exc:
        rep.fail(ideal_file, f"unreadable: {exc!r}")
        return
    cols = _columns(header, _POP.fullmatch)
    if ideal.shape != exact.shape or np.max(np.abs(ideal[:, 0] - exact[:, 0])) > 1e-9:
        rep.fail(ideal_file, f"grid differs from {exact_file}")
        return
    dp = float(np.max(np.abs(ideal[:, cols] - exact[:, cols])))
    rep.ideal_vs_exact = max(rep.ideal_vs_exact, dp)
    if not dp <= IDEAL_EXACT_TOL:
        rep.fail(ideal_file, f"ideal vs exact max |dP| {dp:.3g} > {IDEAL_EXACT_TOL}")


def self_test(scratch: Path) -> bool:
    """The gate accepts an unchanged reference and rejects a shifted trace or wrong cutoffs."""
    from workloads import Output

    src = REF_DIR / "exact-sweep" / "trace_lam10_N2.csv"
    out = Output(src.name, "trace")
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)

    def verdict(label, edit):
        shutil.copy(src, scratch / src.name)
        shutil.copy(str(src) + ".meta.ini", scratch / (src.name + ".meta.ini"))
        edit()
        rep = Report()
        check_output("exact-sweep", scratch, out, rep)
        print(f"gate self-test: {label}: {'rejected' if rep.problems else 'accepted'} {rep.problems}")
        return not rep.problems

    def shift_p0():
        header, data = read_table(src)
        data[:, header.index("P_0")] += 1e-3
        with open(scratch / src.name, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def wrong_cutoffs():
        sidecar = scratch / (src.name + ".meta.ini")
        text = sidecar.read_text(encoding="utf-8")
        good = " ".join(str(c) for c in read_cutoffs(sidecar))
        sidecar.write_text(text.replace(f"cutoffs = {good}", "cutoffs = 14 14", 1), encoding="utf-8")

    ok = verdict("unchanged reference", lambda: None)
    ok &= not verdict("P_0 shifted by 1e-3", shift_p0)
    ok &= not verdict("wrong cutoff tuple", wrong_cutoffs)
    shutil.rmtree(scratch)
    return ok


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    root = Path(__file__).resolve().parent.parent
    passed = self_test(root / ".perfbench_out" / "gate-self-test")
    print("gate self-test", "PASS" if passed else "FAIL")
    sys.exit(0 if passed else 1)
