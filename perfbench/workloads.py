"""The benchmark's workloads: the ionvib CLI calls one pass makes, and what each writes.

Every workload runs the toy donor/acceptor preset over 400 fs on 40 grid
points.  A pass is the workload's full list of operations; the benchmark
repeats passes until its time window is used up.  ``{dir}`` and ``{seed}``
in an argument list are filled in per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

#: seed the checked-in reference outputs were made with
REF_SEED = 7

#: Ehrenfest reference ensemble size; larger than the workload's so that the
#: reference's own standard error adds little to the comparison
REF_TRAJECTORIES = 200


@dataclass(frozen=True)
class Output:
    """One file an operation writes, and how the gate judges it.

    ``kind`` is one of ``trace`` (deterministic populations and cutoffs),
    ``noisy`` (deterministic populations plus shot-sampled columns),
    ``ensemble`` (Ehrenfest means with standard errors), ``schedule`` or
    ``table`` (deterministic text compared token by token).
    """

    file: str
    kind: str


@dataclass(frozen=True)
class Op:
    argv: tuple
    outputs: tuple

    def args(self, out_dir: str, seed: int) -> list:
        return [a.format(dir=out_dir, seed=seed) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    #: (ion-ideal file, exact file) pairs held to acceptance criterion 2's bound
    ideal_exact_pairs: tuple = ()


def _run(*argv, output, kind="trace"):
    return Op(("run", "--preset", "toy", *argv, "--seed", "{seed}", "--output", "{dir}/" + output), (Output(output, kind),))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-sweep",
            "classical-cost curve: adaptive cutoff search plus exact propagation at lambda 1 and 10, N=2",
            (
                Op(
                    (
                        "sweep", "--backend", "exact", "--sweep-lambdas", "1,10", "--sweep-modes", "2",
                        "--seed", "{seed}", "--output-dir", "{dir}",
                    ),
                    tuple(Output(f"trace_lam{lam}_N2.csv", "trace") for lam in (1, 10)),
                ),
            ),
        ),
        Workload(
            "ion-ideal-verify",
            "ion-ideal S=600 vs exact at fixed cutoffs (16,14), then README compile and estimate",
            (
                _run(
                    "--modes", "2", "--lambda-over-delta", "5", "--backend", "ion-ideal", "--steps", "600",
                    "--cutoffs", "16,14", output="ideal.csv",
                ),
                _run("--modes", "2", "--lambda-over-delta", "5", "--backend", "exact", "--cutoffs", "16,14", output="exact.csv"),
                Op(
                    (
                        "compile", "--preset", "toy", "--lambda-over-delta", "30", "--modes", "5", "--steps", "600",
                        "--seed", "{seed}", "--output", "{dir}/schedule.txt",
                    ),
                    (Output("schedule.txt", "schedule"),),
                ),
                Op(
                    (
                        "estimate", "--lambdas", "1,5,10,20,30", "--modes-list", "2,3,4,5", "--runs", "100",
                        "--seed", "{seed}", "--output", "{dir}/cost.csv",
                    ),
                    (Output("cost.csv", "table"),),
                ),
            ),
            ideal_exact_pairs=(("ideal.csv", "exact.csv"),),
        ),
        Workload(
            "ion-noisy",
            "Lindblad density path with positivity check and shot sampling, lambda 1, N=2, S=120, R=100",
            (
                _run(
                    "--modes", "2", "--lambda-over-delta", "1", "--backend", "ion-noisy", "--steps", "120",
                    "--runs", "100", output="noisy.csv", kind="noisy",
                ),
            ),
        ),
        Workload(
            "ehrenfest",
            "Ehrenfest ensemble of 20 Wigner-sampled trajectories at lambda 5, N=2; runs nowhere else",
            (
                _run(
                    "--modes", "2", "--lambda-over-delta", "5", "--backend", "ehrenfest", "--trajectories", "20",
                    output="ehrenfest.csv", kind="ensemble",
                ),
            ),
        ),
    )
}


def pass_seed(seed: int, index: int) -> int:
    """Seed handed to the program for pass ``index`` of a run started with ``seed``."""
    return (seed * 1009 + index) % 2**31
