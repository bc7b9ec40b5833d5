"""Benchmark of the warpagg pipeline.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the program from its
``src/`` directory (never from an installed copy). Each workload runs one
operation at a time in a closed loop with one caller, BLAS pinned to
``BLAS_THREADS`` threads. The run prints a table of every metric with its
unit and sample count, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The full result, with the environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _declared(trace: bool) -> list[str]:
    """Names of the metrics BENCHMARK.json expects on the result line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def import_program() -> None:
    """Put the checkout's src/ first on the path and make sure warpagg comes from it."""
    src = ROOT / "src"
    if not (src / "warpagg").is_dir():
        raise SystemExit(f"error: no warpagg sources under {src.relative_to(ROOT)}/; "
                         "run from a source checkout")
    sys.path.insert(0, str(src))
    import warpagg.attack

    if src not in Path(warpagg.attack.__file__).resolve().parents:
        raise SystemExit("error: warpagg was imported from outside this checkout")


def _table(name: str, result: dict) -> list[str]:
    lines = [f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {result['correct']}",
             f"   {'metric':<40} {'value':>14}  {'unit':<10} n"]
    for key, val in result["metrics"].items():
        if val is None:
            lines.append(f"   {key:<40} {'n/a':>14}  (too few samples)")
        else:
            value, unit, n = val
            lines.append(f"   {key:<40} {value:>14.6g}  {unit:<10} {n}")
    lines.extend(f"   problem: {p.splitlines()[-1]}" for p in result["problems"][:10])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)

    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    sys.path.insert(0, str(BENCH))
    import measure
    import workloads

    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.SPECS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; have {sorted(workloads.SPECS)} or 'all'")
    declared = _declared(args.trace == "1")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure.run_workload(workloads.SPECS[name], args.seed, args.seconds,
                                      args.trace == "1", OUT)
        for line in _table(name, result):
            print(line)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": int(args.trace), "env": env, **result}
        (OUT / f"result_{name}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in declared:
            if result["metrics"][metric] is None:
                print(f"error: {name}: no samples for {metric}", file=sys.stderr)
                return 1
            value, unit, _ = result["metrics"][metric]
            final["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
