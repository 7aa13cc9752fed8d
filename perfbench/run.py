"""Benchmark: time to a checked trace for each ionvib backend.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One process runs one workload in a closed loop: it repeats the workload's
pass (its list of ``ionvib`` CLI calls, made in-process through
``ionvib.cli.main``) until ``--seconds`` are used up, and checks every
pass's outputs against the reference outputs in ``perfbench/ref``.
BLAS/OpenMP threads are pinned to 1.  ``--workload all`` runs each workload
in its own process and prints one table.

With ``--trace 0`` the last line reports the end-to-end metrics: ``setup_s``
(median over fresh processes of start-up to ready, one timed before every
pass), ``wall_s`` (median pass time) and ``peak_rss_mb``.  With ``--trace 1`` passes alternate untraced and
traced, and the last line reports the per-layer metrics of the traced passes.
The lines before it record the environment and every metric with its unit.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is first imported, in this process and its children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: fresh-process start-ups timed before each untraced pass, so that the
#: set-up samples are spread over the whole window like the passes
SETUP_SAMPLES_PER_PASS = 1
#: the toy preset's two electronic states sit on one qubit
ELECTRONIC_DIM = 2
OP_SPAN = "cli.main"


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_sample() -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "ready.py")], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.split()[-1]) - start


def call_cli(cli, argv) -> bool:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0
    except (Exception, SystemExit) as exc:
        print(f"operation {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        return False


def run_pass(cli, ivtrace, workload, out_dir, seed, tracer):
    """Run every operation of one pass; returns (op wall seconds, op cpu seconds, ok per op)."""
    wall = cpu = 0.0
    ok = []
    for op in workload.ops:
        argv = op.args(str(out_dir), seed)
        span = tracer.span(OP_SPAN) if tracer else contextlib.nullcontext()
        c0, t0 = time.process_time(), time.perf_counter()
        with span:
            ok.append(call_cli(cli, argv))
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if tracer:  # read-back probe, outside the operation span
            for out in op.outputs:
                if out.kind in ("trace", "noisy", "ensemble") and (out_dir / out.file).exists():
                    ivtrace.read_csv(out_dir / out.file)
    return wall, cpu, ok


def check_pass(gate, workload, out_dir, ok):
    """Gate every output; an operation fails on a bad exit or on any output outside the gate."""
    rep = gate.Report()
    failed = 0
    for op, op_ok in zip(workload.ops, ok):
        before = len(rep.problems)
        for out in op.outputs:
            gate.check_output(workload.name, out_dir, out, rep)
            for ideal, exact in workload.ideal_exact_pairs:
                if out.file == ideal:
                    gate.check_ideal_vs_exact(out_dir, ideal, exact, rep)
        failed += int(not op_ok or len(rep.problems) > before)
    for problem in rep.problems:
        print(f"gate: {problem}", file=sys.stderr)
    return rep, failed


def pass_layer_metrics(spans, tracer, rep) -> dict:
    metrics = spans.layer_metrics(tracer.spans, OP_SPAN)
    dims = [ELECTRONIC_DIM * math.prod(c) for c in rep.cutoffs]
    state_dim = max(dims, default=0)
    metrics.update(
        {
            "exact.cutoffs": (sum(sum(c) for c in rep.cutoffs), "count"),
            "exact.state_dim": (state_dim, "count"),
            "exact.state_bytes": (16 * state_dim, "bytes"),
            "check.max_dP_vs_ref": (rep.max_dp, "P"),
            "check.ideal_vs_exact_max_dP": (rep.ideal_vs_exact, "P"),
            "check.ehrenfest_shift_stderr": (rep.shift_stderr, "stderr"),
        }
    )
    return metrics


def run_workload(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS, pass_seed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()), flush=True)

    import gate
    import spans
    from ionvib import cli, pulses
    from ionvib import trace as ivtrace

    pulses.default_duration_calibration()
    out_dir = OUT / workload.name

    setups, cycles, walls, traced_walls, layer_runs, all_spans = [], [], [], [], [], []
    attempted = failed = 0
    busy_wall = busy_cpu = 0.0
    noisy_z = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        cycle_start = time.perf_counter()
        tracer = spans.Tracer() if args.trace and index % 2 else None
        if not args.trace:
            setups.extend(setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS))
        shutil.rmtree(out_dir, ignore_errors=True)  # no output of an earlier pass can pass the gate
        out_dir.mkdir(parents=True)
        if tracer:
            tracer.install()
        try:
            wall, cpu, ok = run_pass(cli, ivtrace, workload, out_dir, pass_seed(args.seed, index), tracer)
        finally:
            if tracer:
                tracer.uninstall()
        rep, bad = check_pass(gate, workload, out_dir, ok)
        attempted += len(ok)
        failed += bad
        busy_wall += wall
        busy_cpu += cpu
        noisy_z = max(noisy_z, rep.shift_sigma)
        if tracer:
            traced_walls.append(wall)
            layer_runs.append(pass_layer_metrics(spans, tracer, rep))
            all_spans.append(tracer.to_json())
        else:
            walls.append(wall)
        index += 1
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        # start no cycle (set-up samples, pass and gate) that would likely end past the window
        if index >= (2 if args.trace else 1) and now - start + statistics.median(cycles) > args.seconds:
            break

    print(f"workload {workload.name}: seed {args.seed}, {len(walls)} untraced and {len(traced_walls)} traced passes")
    print(f"pass wall times (s): {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"fail_frac = {failed / attempted:g} ratio ({failed} of {attempted} operations failed)")
    print(f"gate: worst sampled shift {noisy_z:.3f} sigma (ion-noisy shot columns)")
    if args.trace:
        metrics = {
            name: {"value": statistics.median(run[name][0] for run in layer_runs), "unit": layer_runs[0][name][1]}
            for name in layer_runs[0]
        }
        metrics["cpu.utilization"] = {"value": busy_cpu / busy_wall, "unit": "ratio"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls),
            "unit": "s",
        }
        (OUT / f"{workload.name}.spans.json").write_text(json.dumps(all_spans), encoding="utf-8")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and set-up time are its own."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\n" + "metric".ljust(32) + "".join(w.rjust(20) for w in results))
    for name, first in next(iter(results.values()))["metrics"].items():
        cells = [f"{r['metrics'][name]['value']:.4g} {first['unit']}" for r in results.values()]
        print(name.ljust(32) + "".join(c.rjust(20) for c in cells))
    print("fail_frac".ljust(32) + "".join(f"{r['failed'] / r['attempted']:g} ratio".rjust(20) for r in results.values()))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ionvib" / "__init__.py").is_file():
        print(f"error: no ionvib sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
