"""Run two sets of benchmark runs of the same code and report per-metric spread and agreement.

    python3 perfbench/agree.py                                   # 10 runs per set, every workload
    python3 perfbench/agree.py --runs 5 --workloads ion-noisy    # quick look at one workload

Each set makes ``--runs`` runs of every workload, each with another seed
(set 0 seeds 1..runs, set 1 the next ``runs``); runs of the two sets
alternate, so slow drift of the host hits both alike.  For every (workload,
end-to-end metric) it prints each set's median, quartiles and spread
(quartile distance over median), and whether each spread and the distance
between the two sets' medians (over the smaller median, so either set may be
the slower) stay within the metric's bound in BENCHMARK.json.  Raw values go
to .perfbench_out/agree.json.  Exit status 1 if anything is out of bounds or
a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1
SETS = 2


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload (at least 2)")
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated workload names")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {}  # "workload|set" -> metric -> [values]
    ok = True
    for workload in workloads:
        for i in range(args.runs):
            for s in range(SETS):
                seed = FIRST_SEED + s * args.runs + i
                res = run_once(spec, workload, seed)
                print(f"{workload} set {s} seed {seed}: correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
                ok &= bool(res["correct"]) and res["failed"] == 0
                for name, m in res["metrics"].items():
                    values.setdefault(f"{workload}|{s}", {}).setdefault(name, []).append(m["value"])

    print("\nworkload          metric         set  median      q1          q3          spread  bound")
    for workload in workloads:
        for name, m in metrics.items():
            meds = []
            for s in range(SETS):
                med, q1, q3, sp = spread(values[f"{workload}|{s}"][name])
                meds.append(med)
                flag = ""
                if sp > m["bound"]:
                    flag, ok = "OUT OF BOUND", False
                elif sp > m["bound"] / 3:
                    flag = "above bound/3"
                print(f"{workload:<17} {name:<14} {s:>3}  {med:<11.5g} {q1:<11.5g} {q3:<11.5g} {sp:<7.3f} {m['bound']}  {flag}")
            gap = abs(meds[1] - meds[0]) / min(meds)
            within = gap <= m["bound"]
            ok &= within
            print(f"{'':<17} {name:<14} sets differ by {gap:.3f} of the smaller median "
                  f"({'within' if within else 'OUTSIDE'} bound {m['bound']})")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "agree.json").write_text(json.dumps(values, indent=1), encoding="utf-8")
    print("agreement", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
