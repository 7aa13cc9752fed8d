"""Command-line interface.

Subcommands:

    run       propagate one model with one backend, write trace CSV + sidecar
    sweep     fan a run out over a (lambda, modes) grid of the two-state model
    compare   deviation report between two trace CSVs
    compile   lower a model to a pulse schedule file
    estimate  experimental-time table over a parameter grid

Every quantity-carrying flag and config key names its unit (``--tau-fs``,
``delta_ev``, ...).  Each output CSV gets a ``<output>.meta.ini`` sidecar
holding the fully resolved configuration (seeds and adaptive cutoffs
included); running ``ionvib run --config <sidecar>`` reproduces the output
byte-for-byte.

Exit codes: 0 success, 2 config/parse error, 3 convergence failure,
4 infeasible schedule, 1 other workbench errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import config as cfg
from . import ehrenfest as ehr
from . import emulator, estimator, exact, pulses, trace
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleScheduleError,
    InvalidModelError,
    IonvibError,
    UnsupportedChainError,
)

PRESET_SECTIONS = {
    "toy": {"model": {"preset": "toy", "modes": "2", "lambda_over_delta": "1.0"}},
    "ci": {
        "model": {"preset": "ci", "kx_ev": "0.02", "kz_ev": "0.02", "nux_ev": "0.08", "nuz_ev": "0.08"}
    },
    # vaet and plet parameter values are illustrative workbench choices,
    # not measured or published numbers
    "vaet": {
        "model": {
            "preset": "vaet",
            "e_d_ev": "0.0",
            "e_a_ev": "-0.0124",
            "delta_ev": "0.0124",
            "kappa_d1_ev": "0.0062",
            "kappa_d2_ev": "0.0062",
            "kappa_a2_ev": "-0.0062",
            "kappa_a3_ev": "0.0062",
            "nu_ev": "0.0124 0.0186 0.0248",
        }
    },
    "plet": {
        "model": {
            "preset": "plet",
            "omega_ev": "0.0 2.0 2.02 1.98",
            "mu1": "0.012 0.0",
            "mu2": "0.0 0.012",
            "v1_ev": "0.01",
            "v2_ev": "0.01",
        },
        "drive": {
            "polarization": "0.7071067811865476 0.7071067811865476j",
            "carrier_ev": "2.0",
            "envelope": "constant",
            "amplitude": "1.0",
            "rwa": "true",
        },
    },
}


def _grid_steps(steps: int, points: int):
    if steps % points:
        raise ConfigError(
            f"trotter_steps ({steps}) must be a multiple of grid_points ({points})",
            key="trotter_steps",
        )
    stride = steps // points
    return [g * stride for g in range(points)]


def _parse_cutoffs(section: dict):
    cutoffs = tuple(cfg.parse_value(section, "cutoffs", cfg.ints))
    if any(c < 2 for c in cutoffs):
        raise ConfigError(f"every cutoff must be at least 2, got {min(cutoffs)}", key="cutoffs")
    return cutoffs or None


def _at_least(section: dict, key: str, minimum: int) -> int:
    value = cfg.parse_value(section, key, int)
    if value < minimum:
        raise ConfigError(f"must be at least {minimum}, got {value}", key=key)
    return value


def _search_diagnostics(tried) -> dict:
    """Sidecar entries for a cutoff search: distinct runs, and the tuples tried in order."""
    return {"search_runs": len(tried), "search_cutoffs": " ".join(",".join(map(str, t)) for t in tried)}


def execute_run(run_cfg: cfg.RunConfig) -> dict:
    """Run one backend; returns diagnostics recorded into the sidecar."""
    run = run_cfg.section("run")
    backend = run["backend"]
    output = run["output"]
    tau_fs = cfg.parse_value(run, "tau_fs")
    if not 0 < tau_fs < math.inf:
        raise ConfigError(f"must be finite and positive, got {tau_fs}", key="tau_fs")
    points = _at_least(run, "grid_points", 1)
    seed = _at_least(run, "seed", 0)
    initial = cfg.parse_value(run, "initial_state", int)
    diagnostics = {}

    if backend == "estimate":
        est = run_cfg.section("estimate")
        time_points = _at_least(est, "time_points", 1)
        steps = _at_least(est, "trotter_steps", 1)
        if steps % time_points:
            raise ConfigError(f"must be a multiple of time_points ({time_points}), got {steps}", key="trotter_steps")
        plan = estimator.ExperimentPlan(
            lambdas=tuple(cfg.parse_value(est, "lambdas", cfg.floats)),
            mode_counts=tuple(cfg.parse_value(est, "modes_list", cfg.ints)),
            runs_per_point=_at_least(est, "runs_per_point", 1),
            time_points=time_points,
            tau_fs=tau_fs,
            trotter_steps=steps,
            hardware=run_cfg.hardware(),
        )
        try:
            rows = estimator.experimental_time(plan)
        except InvalidModelError as exc:
            if exc.key is None:
                raise
            # the grid's toy models take their values from these keys
            key = {"lambda_over_delta": "lambdas", "modes": "modes_list"}.get(exc.key, exc.key)
            raise ConfigError(str(exc), key=key) from None
        estimator.rows_to_csv(rows, output)
        diagnostics["overhead_baseline_s"] = estimator.overhead_baseline_s(plan)
        diagnostics["longest_run_operation_ms"] = "; ".join(
            f"lambda={r.lambda_over_delta:g} N={r.n_modes}: {r.longest_run_operation_ms:.3f}"
            for r in rows
        )
        return diagnostics

    spec = run_cfg.spec()
    if not 0 <= initial < spec.state_count:
        raise ConfigError(
            f"must be a state index 0 .. {spec.state_count - 1}, got {initial}", key="initial_state"
        )

    if backend == "exact":
        ex = run_cfg.section("exact")
        # the frame rotation is diagonal in the Fock basis, so both frames give
        # the same populations and leakage, and both values run the same solver
        if ex["frame"] not in ("lab", "interaction"):
            raise ConfigError(f"unknown frame {ex['frame']!r}", key="frame")
        req = exact.PropagationRequest(
            spec=spec,
            times_fs=exact.default_time_grid(tau_fs, points),
            initial_state=initial,
            nbar=cfg.parse_value(ex, "nbar"),
            cutoffs=_parse_cutoffs(ex),
            eps_cut=cfg.parse_value(ex, "eps_cut"),
            eps_int=cfg.parse_value(ex, "eps_int"),
        )
        result = exact.propagate(req)
        result.to_csv(output)
        run_cfg.sections["exact"]["cutoffs"] = " ".join(str(c) for c in result.metadata["cutoffs"])
        diagnostics["cutoffs"] = result.metadata["cutoffs"]
        diagnostics["max_leakage"] = result.metadata["max_leakage"]
        diagnostics.update(_search_diagnostics(result.metadata["search_cutoffs"]))
        diagnostics["matvecs"] = result.metadata["matvecs"]
        diagnostics["classical_wall_time_s"] = (
            f"{result.metadata['wall_time_s']:.3f} "
            "(this workbench's exact solver at the recorded convergence settings; "
            "not an external benchmark)"
        )
        return diagnostics

    if backend == "ehrenfest":
        eh = run_cfg.section("ehrenfest")
        conf = ehr.EnsembleConfig(
            trajectories=_at_least(eh, "trajectories", 1),
            nbar=cfg.parse_value(eh, "nbar"),
            seed=seed,
            initial_state=initial,
            tol=cfg.parse_value(eh, "tol"),
        )
        result = ehr.ensemble_average(spec, conf, exact.default_time_grid(tau_fs, points))
        result.to_csv(output)
        diagnostics["integrator"] = result.metadata["integrator"]
        diagnostics["rhs_evals"] = result.metadata["rhs_evals"]
        return diagnostics

    ion = run_cfg.section("ion")
    if backend != "compile":
        # the emulated ions start with every mode in its ground state
        nbar = cfg.parse_value(ion, "nbar", float, "0.0")
        if nbar != 0:
            raise ConfigError(f"ion backends have no thermal initial state; must be 0, got {nbar}", key="nbar")
    steps = _at_least(ion, "trotter_steps", 1)
    physical_rotations = cfg.parse_bool(ion, "physical_rotations")
    if backend == "ion-noisy":
        # parsed before the schedule build and the cutoff search, so a bad value fails at once
        channels = emulator.NoiseChannels(
            motional_dephasing=cfg.parse_bool(ion, "motional_dephasing"),
            heating=cfg.parse_bool(ion, "heating"),
            laser_dephasing=cfg.parse_bool(ion, "laser_dephasing"),
        )
        runs = _at_least(ion, "runs_per_point", 0)  # 0: no shot sampling
        policy = emulator.MeasurementPolicy(runs_per_point=runs, seed=seed) if runs > 0 else None
    schedule = pulses.build_schedule(
        spec,
        tau_fs,
        steps,
        hardware=run_cfg.hardware(),
        initial_state=initial,
        physical_rotations=physical_rotations,
    )
    if backend == "compile":
        schedule.write(output)
        diagnostics["operation_time_us"] = schedule.operation_time_us()
        diagnostics["n_ions"] = schedule.n_ions
        return diagnostics

    grid_steps = _grid_steps(steps, points)
    cutoffs = _parse_cutoffs(ion)
    if cutoffs is None:
        req = exact.PropagationRequest(spec=spec, times_fs=exact.default_time_grid(tau_fs, points))
        searched = {}
        cutoffs = exact.converge_cutoffs(req, searched)
        run_cfg.sections["ion"]["cutoffs"] = " ".join(str(c) for c in cutoffs)
        diagnostics.update(_search_diagnostics(tuple(searched)))
    diagnostics["cutoffs"] = cutoffs

    if backend == "ion-ideal":
        result = pulses.compose_ideal(schedule, cutoffs, grid_steps)
    else:
        result = emulator.emulate(schedule, channels, cutoffs, grid_steps, policy=policy)
    result.to_csv(output)
    diagnostics["max_leakage"] = float(result.leakage.max())
    diagnostics["operation_time_us"] = schedule.operation_time_us()
    return diagnostics


def _sections_from_flags(args) -> dict:
    sections = {}
    if args.config:
        # resolved once, after the flags: --backend may pick another backend's section
        sections = cfg.load_run_sections(args.config)
    if args.model_file:
        model_cfg = cfg.load_model(args.model_file)
        sections.update(cfg.spec_to_sections(model_cfg))
    if args.preset:
        if args.preset not in PRESET_SECTIONS:
            raise ConfigError(f"unknown preset {args.preset!r}", key="preset")
        for name, kv in PRESET_SECTIONS[args.preset].items():
            sections.setdefault(name, {}).update(kv)
    model = sections.setdefault("model", {})
    if args.lambda_over_delta is not None:
        model["lambda_over_delta"] = repr(args.lambda_over_delta)
    if args.modes is not None:
        model["modes"] = str(args.modes)
    run = sections.setdefault("run", {})
    for key, value in (
        ("backend", args.backend),
        ("output", args.output),
        ("tau_fs", None if args.tau_fs is None else repr(args.tau_fs)),
        ("grid_points", None if args.grid_points is None else str(args.grid_points)),
        ("seed", None if args.seed is None else str(args.seed)),
    ):
        if value is not None:
            run[key] = value
    if args.hardware:
        hw = cfg.load_hardware(args.hardware)
        sections.update(cfg.hardware_to_sections(hw))
    if args.steps is not None:
        sections.setdefault("ion", {})["trotter_steps"] = str(args.steps)
        sections.setdefault("estimate", {})["trotter_steps"] = str(args.steps)
    if args.runs is not None:
        sections.setdefault("ion", {})["runs_per_point"] = str(args.runs)
        sections.setdefault("estimate", {})["runs_per_point"] = str(args.runs)
    if args.cutoffs is not None:
        sections.setdefault("ion", {})["cutoffs"] = args.cutoffs.replace(",", " ")
        sections.setdefault("exact", {})["cutoffs"] = args.cutoffs.replace(",", " ")
    if args.trajectories is not None:
        sections.setdefault("ehrenfest", {})["trajectories"] = str(args.trajectories)
    if args.nbar is not None:
        for name in ("exact", "ehrenfest", "ion"):
            sections.setdefault(name, {})["nbar"] = repr(args.nbar)
    if args.lambdas is not None:
        sections.setdefault("estimate", {})["lambdas"] = args.lambdas.replace(",", " ")
    if args.modes_list is not None:
        sections.setdefault("estimate", {})["modes_list"] = args.modes_list.replace(",", " ")
    return sections


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="run config file (e.g. a previous sidecar)")
    p.add_argument("--model-file", help="model config file ([model]/[modes]/[drive] sections)")
    p.add_argument("--preset", choices=sorted(PRESET_SECTIONS), help="built-in model preset")
    p.add_argument("--lambda-over-delta", type=float, help="reorganization ratio (toy preset)")
    p.add_argument("--modes", type=int, help="bath mode count (toy preset)")
    p.add_argument("--backend", choices=cfg.BACKENDS)
    p.add_argument("--output", help="output file path")
    p.add_argument("--tau-fs", type=float, help="simulated evolution span (fs)")
    p.add_argument("--grid-points", type=int, help="equally spaced trace points")
    p.add_argument("--seed", type=int, help="master seed for sampling backends")
    p.add_argument("--steps", type=int, help="Trotter step count (ion backends)")
    p.add_argument("--runs", type=int, help="measurement runs per time point")
    p.add_argument("--cutoffs", help="fixed per-mode Fock cutoffs, e.g. 8,8")
    p.add_argument("--trajectories", type=int, help="Ehrenfest ensemble size")
    p.add_argument("--nbar", type=float, help="initial thermal occupation per mode")
    p.add_argument("--hardware", help="hardware parameter file")
    p.add_argument("--lambdas", help="estimate grid, e.g. 1,5,10,20,30")
    p.add_argument("--modes-list", help="estimate grid, e.g. 2,3,4,5")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ionvib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="propagate one model with one backend")
    _add_run_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="fan a run over a lambda x modes grid")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--sweep-lambdas", default="1,5,10,20,30")
    p_sweep.add_argument("--sweep-modes", default="2")
    p_sweep.add_argument("--output-dir", default=".")

    p_cmp = sub.add_parser("compare", help="deviation report between two trace CSVs")
    p_cmp.add_argument("trace_a")
    p_cmp.add_argument("trace_b")
    p_cmp.add_argument("--flag-threshold", type=float, default=0.1)

    p_compile = sub.add_parser("compile", help="lower a model to a pulse schedule")
    _add_run_flags(p_compile)

    p_est = sub.add_parser("estimate", help="experimental-time table")
    _add_run_flags(p_est)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidModelError as exc:
        # a model error that names its config key is a bad config value
        print(f"error: {exc}" + ("" if exc.key is None else f" (key: {exc.key})"), file=sys.stderr)
        return 1 if exc.key is None else 2
    except ConvergenceError as exc:
        gap = ""
        if exc.last is not None and exc.previous is not None:
            gap = f"; the last two iterates differ by max |dP| = {np.max(np.abs(exc.last - exc.previous)):.3g}"
        print(f"error: {exc}{gap}", file=sys.stderr)
        return 3
    except (InfeasibleScheduleError, UnsupportedChainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except IonvibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "compare":
        a = trace.read_csv(args.trace_a)
        b = trace.read_csv(args.trace_b)
        report = trace.compare_traces(a, b)
        for i in range(a.state_count):
            print(
                f"state {i}: max |dP| = {report['max_abs'][i]:.6g}, "
                f"integrated |dP| dt = {report['integrated_abs'][i]:.6g} fs"
            )
        print(f"overall max |dP| = {report['max_abs_overall']:.6g}")
        if report["max_abs_overall"] > args.flag_threshold:
            print(f"FLAG: max deviation exceeds {args.flag_threshold}")
        return 0

    if args.command in ("run", "compile", "estimate"):
        sections = _sections_from_flags(args)
        if args.command == "compile":
            sections.setdefault("run", {})["backend"] = "compile"
            sections["run"].setdefault("output", "schedule.txt")
        if args.command == "estimate":
            sections.setdefault("run", {})["backend"] = "estimate"
            sections["run"].setdefault("output", "estimate.csv")
        run_cfg = cfg.resolve_run_config(sections)
        diagnostics = execute_run(run_cfg)
        output = run_cfg.section("run")["output"]
        cfg.write_sidecar(run_cfg, output + ".meta.ini", diagnostics)
        print(f"wrote {output} (+ sidecar)")
        return 0

    if args.command == "sweep":
        import os

        lambdas = cfg.parse_value(vars(args), "sweep_lambdas", cfg.floats)
        modes = cfg.parse_value(vars(args), "sweep_modes", cfg.ints)
        base_sections = _sections_from_flags(args)
        points = []
        for n in modes:
            for lam in lambdas:
                sections = {k: dict(v) for k, v in base_sections.items()}
                sections.setdefault("model", {}).update(
                    {"preset": "toy", "modes": str(n), "lambda_over_delta": repr(lam)}
                )
                path = os.path.join(args.output_dir, f"trace_lam{lam:g}_N{n}.csv")
                sections.setdefault("run", {})["output"] = path
                run_cfg = cfg.resolve_run_config(sections)
                run_cfg.spec()  # every point's model is built, so a bad value fails before any run
                points.append(run_cfg)
        os.makedirs(args.output_dir, exist_ok=True)
        for run_cfg in points:
            path = run_cfg.section("run")["output"]
            diagnostics = execute_run(run_cfg)
            cfg.write_sidecar(run_cfg, path + ".meta.ini", diagnostics)
            print(f"wrote {path}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
