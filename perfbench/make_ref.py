"""Regenerate the reference outputs in perfbench/ref from the current sources.

    python3 perfbench/make_ref.py

Runs each workload's operations once at ``REF_SEED`` (the Ehrenfest
ensemble with ``REF_TRAJECTORIES`` trajectories) and stores the outputs and
their sidecars.  Only rerun this on a commit whose results are trusted: the
gate judges every later commit against these files.
"""

import gzip
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import git_sha  # noqa: E402  (importing run pins BLAS/OpenMP threads to 1 before numpy loads)
from ionvib import cli  # noqa: E402
from workloads import REF_SEED, REF_TRAJECTORIES, WORKLOADS  # noqa: E402


def main() -> int:
    ref = HERE / "ref"
    shutil.rmtree(ref, ignore_errors=True)
    manifest = {"git_sha": git_sha(), "seed": REF_SEED, "commands": {}}
    for workload in WORKLOADS.values():
        out_dir = ref / workload.name
        out_dir.mkdir(parents=True)
        os.chdir(out_dir)  # sidecars then record relative output paths
        for op in workload.ops:
            argv = op.args(".", REF_SEED)
            if "--trajectories" in argv:
                argv[argv.index("--trajectories") + 1] = str(REF_TRAJECTORIES)
            if cli.main(argv) != 0:
                print(f"error: {' '.join(argv)} failed", file=sys.stderr)
                return 1
            manifest["commands"].setdefault(workload.name, []).append(" ".join(argv))
        for out in (o for op in workload.ops for o in op.outputs):
            if out.kind == "schedule":
                path = out_dir / out.file
                with open(path, "rb") as src, gzip.GzipFile(str(path) + ".gz", "wb", mtime=0) as dst:
                    shutil.copyfileobj(src, dst)
                path.unlink()
                Path(str(path) + ".meta.ini").unlink()
            elif out.kind == "table":
                Path(out_dir / (out.file + ".meta.ini")).unlink()
    (ref / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
