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
byte-for-byte.  An ``ion-noisy`` output does so only under the same BLAS
thread settings, which its sidecar records as ``blas_threads``.

Exit codes: 0 success, 2 config/parse error, 3 convergence failure,
4 infeasible schedule, 1 other workbench errors.
"""

from __future__ import annotations

import argparse
import os
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

def _parse_cutoffs(section: dict):
    return tuple(cfg.parse_value(section, "cutoffs", cfg.ints)) or None


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
    diagnostics = {}

    if backend == "estimate":  # reads no other [run] setting
        est = run_cfg.section("estimate")
        plan = estimator.ExperimentPlan(
            lambdas=tuple(cfg.parse_value(est, "lambdas", cfg.floats)),
            mode_counts=tuple(cfg.parse_value(est, "modes_list", cfg.ints)),
            runs_per_point=cfg.parse_value(est, "runs_per_point", int),
            time_points=cfg.parse_value(est, "time_points", int),
            tau_fs=tau_fs,
            trotter_steps=cfg.parse_value(est, "trotter_steps", int),
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

    times = exact.default_time_grid(tau_fs, cfg.parse_value(run, "grid_points", int))
    seed = _at_least(run, "seed", 0)
    initial = cfg.parse_value(run, "initial_state", int)
    spec = run_cfg.spec()

    if backend == "exact":
        ex = run_cfg.section("exact")
        req = exact.PropagationRequest(
            spec=spec,
            times_fs=times,
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
            trajectories=cfg.parse_value(eh, "trajectories", int),
            nbar=cfg.parse_value(eh, "nbar"),
            seed=seed,
            initial_state=initial,
            tol=cfg.parse_value(eh, "tol"),
        )
        result = ehr.ensemble_average(spec, conf, times)
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
    steps = cfg.parse_value(ion, "trotter_steps", int)
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

    grid_steps = pulses.step_grid(steps, len(times))
    # the exact contract the cutoffs are searched under, and the leakage bound the ion run is held to
    eps_cut = cfg.parse_value(run_cfg.section("exact"), "eps_cut")
    req = exact.PropagationRequest(spec=spec, times_fs=times, initial_state=initial, eps_cut=eps_cut)
    cutoffs = _parse_cutoffs(ion)
    if cutoffs is None:
        searched = {}
        cutoffs = exact.converge_cutoffs(req, searched)
        run_cfg.sections["ion"]["cutoffs"] = " ".join(str(c) for c in cutoffs)
        diagnostics.update(_search_diagnostics(tuple(searched)))
    diagnostics["cutoffs"] = cutoffs

    if backend == "ion-ideal":
        result = pulses.compose_ideal(schedule, cutoffs, grid_steps)
    else:
        result = emulator.emulate(schedule, channels, cutoffs, grid_steps, policy=policy)
        # the cached channel exponentials factor with LAPACK's threaded LU, so
        # their last bits, and the CSV's, follow the BLAS thread count
        threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        diagnostics["blas_threads"] = f"{threads}; cpu_count={os.cpu_count()}"
    result.to_csv(output)
    diagnostics["max_leakage"] = float(result.leakage.max())
    if diagnostics["max_leakage"] > req.eps_cut:
        print(
            f"warning: {backend} max_leakage {diagnostics['max_leakage']:.3g} exceeds [exact] eps_cut "
            f"{req.eps_cut:g}: cutoffs are certified on the exact state, not on the Trotterized one",
            file=sys.stderr,
        )
    diagnostics["operation_time_us"] = schedule.operation_time_us()
    return diagnostics


def _spaced(text: str) -> str:
    """A comma list as its config value, e.g. ``8,8`` -> ``8 8``."""
    return text.replace(",", " ")


#: every run flag once: its argparse type (or choices), its help, and the section.key pairs it
#: writes; --config, --model-file and --hardware write whole files' sections instead
_RUN_FLAGS = (
    ("--config", str, "run config file (e.g. a previous sidecar)", ""),
    ("--model-file", str, "model config file ([model]/[modes]/[drive] sections)", ""),
    ("--preset", sorted(cfg.PRESET_SECTIONS), "built-in model preset", "model.preset"),
    ("--lambda-over-delta", float, "reorganization ratio (toy preset)", "model.lambda_over_delta"),
    ("--modes", int, "bath mode count (toy preset)", "model.modes"),
    ("--backend", cfg.BACKENDS, None, "run.backend"),
    ("--output", str, "output file path", "run.output"),
    ("--tau-fs", float, "simulated evolution span (fs)", "run.tau_fs"),
    ("--grid-points", int, "equally spaced trace points", "run.grid_points estimate.time_points"),
    ("--seed", int, "master seed for sampling backends", "run.seed"),
    ("--steps", int, "Trotter step count (ion backends)", "ion.trotter_steps estimate.trotter_steps"),
    ("--runs", int, "measurement runs per time point", "ion.runs_per_point estimate.runs_per_point"),
    ("--cutoffs", _spaced, "fixed per-mode Fock cutoffs, e.g. 8,8", "exact.cutoffs ion.cutoffs"),
    ("--trajectories", int, "Ehrenfest ensemble size", "ehrenfest.trajectories"),
    ("--nbar", float, "initial thermal occupation per mode", "exact.nbar ehrenfest.nbar ion.nbar"),
    ("--hardware", str, "hardware parameter file", ""),
    ("--lambdas", _spaced, "estimate grid, e.g. 1,5,10,20,30", "estimate.lambdas"),
    ("--modes-list", _spaced, "estimate grid, e.g. 2,3,4,5", "estimate.modes_list"),
)


def _sections_from_flags(args) -> dict:
    sections = {}
    if args.config:
        # resolved once, after the flags: --backend may pick another backend's section
        sections = cfg.load_run_sections(args.config)
    if args.model_file:
        sections.update(cfg.spec_to_sections(cfg.load_model(args.model_file)))
    if args.hardware:
        sections.update(cfg.hardware_to_sections(cfg.load_hardware(args.hardware)))
    for name in ("model", "run"):  # present, if empty, in every sidecar
        sections.setdefault(name, {})
    for flag, _, _, targets in _RUN_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        for target in targets.split():
            name, key = target.split(".")
            sections.setdefault(name, {})[key] = repr(value) if isinstance(value, float) else str(value)
    return sections


def _add_run_flags(p: argparse.ArgumentParser):
    for flag, kind, help_text, _ in _RUN_FLAGS:
        p.add_argument(flag, help=help_text, **({"type": kind} if callable(kind) else {"choices": kind}))


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
        if args.command != "run":
            sections["run"]["backend"] = args.command
            sections["run"].setdefault("output", "schedule.txt" if args.command == "compile" else "estimate.csv")
        run_cfg = cfg.resolve_run_config(sections)
        diagnostics = execute_run(run_cfg)
        output = run_cfg.section("run")["output"]
        cfg.write_sidecar(run_cfg, output + ".meta.ini", diagnostics)
        print(f"wrote {output} (+ sidecar)")
        return 0

    if args.command == "sweep":
        lambdas = cfg.parse_value(vars(args), "sweep_lambdas", cfg.floats)
        modes = cfg.parse_value(vars(args), "sweep_modes", cfg.ints)
        # each point's output file is named by these labels; a repeated one would overwrite a trace
        for key, labels in (("sweep_lambdas", [f"{lam:g}" for lam in lambdas]), ("sweep_modes", modes)):
            if not labels:
                raise ConfigError("sweep grid is empty", key=key)
            repeated = [x for i, x in enumerate(labels) if x in labels[:i]]
            if repeated:
                raise ConfigError(f"two points share the output file label {repeated[0]!r}", key=key)
        points = []
        for n in modes:
            for lam in lambdas:
                path = os.path.join(args.output_dir, f"trace_lam{lam:g}_N{n}.csv")
                point = {"preset": "toy", "modes": n, "lambda_over_delta": lam, "output": path}
                run_cfg = cfg.resolve_run_config(_sections_from_flags(argparse.Namespace(**{**vars(args), **point})))
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
