"""Record the benchmark of this checkout in one JSON file.

Runs the command of ``BENCHMARK.json`` once with ``--trace 0`` and once with
``--trace 1`` for every workload it names, one run after another, and
writes each run's final JSON line together with the commit, Python, numpy
and the number of usable CPUs::

    python3 tools/record_bench.py --seed 7 --out BENCH_6.json

A performance claim quotes its before and after numbers from such files,
recorded on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout.strip()


def run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its final JSON line."""
    args = [*command, "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", f"{seconds:g}", "--trace", str(trace)]
    print("running " + " ".join(args), file=sys.stderr, flush=True)
    proc = subprocess.run(args, cwd=REPO, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": contract["run_seconds"],
        "command": contract["command"],
        "runs": {},
    }
    for workload in (w["name"] for w in contract["workloads"]):
        record["runs"][workload] = {
            f"trace{trace}": run(contract["command"], workload, args.seed, contract["run_seconds"], trace)
            for trace in (0, 1)
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
