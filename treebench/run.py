"""Benchmark of treesolve: solve, transpose solve, vjp and a training step.

Run from the root of a checkout:

    python3 treebench/run.py --workload quadtree-d4 --seed 0 --seconds 10 --trace 0
    python3 treebench/run.py --workload all            # every workload, one process

``--trace 0`` times the package's public calls and reports the end-to-end
metrics; ``--trace 1`` wraps the package's functions and reports per-layer
metrics.  Every output is checked apart from the solver.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The package is loaded from ``src/`` of the
checkout; without it the benchmark exits with status 2.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["quadtree-d4", "quadtree-d16", "chain-d4", "image-train-d1"]
# One BLAS/OpenMP thread, at most nproc: single-threaded runs vary least on a
# shared machine, and the solver's small blocks gain nothing from threads.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return ap.parse_args(argv)


def machine(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def report(name, result, seed):
    print(f"== {name}  seed {seed}  rounds {result['rounds']}  set-ups {result['setups']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for metric, (value, unit) in result["metrics"].items():
        n = result["samples"].get(metric)
        extra = f"  median of {n}, raw {result['raw'][metric]:.6g} s" if n else ""
        if metric in result["p90"]:
            extra += f", p90 {result['p90'][metric]:.6g}"
        print(f"   {metric:28s} {value:14.6g} {unit:6s}{extra}")
    bad = [k for k, ok in result["fixed_checks"].items() if not ok]
    print(f"   fixed checks: {len(result['fixed_checks']) - len(bad)} passed"
          + (f", failed: {', '.join(bad)}" if bad else ""))
    if result["failures"]:
        print(f"   failed operations: {result['failures']}")
    if result.get("not_hit"):
        print(f"   wrappers never called (metrics left out): {', '.join(result['not_hit'])}",
              file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "treesolve" / "__init__.py").is_file():
        print(f"treesolve sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import numpy as np
    import treesolve
    if Path(treesolve.__file__).resolve().parent != SRC / "treesolve":
        print(f"treesolve was imported from {treesolve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = workloads.run(name, args.seed, args.seconds, args.trace, args.smoke)
        report(name, results[name], args.seed)
    print("machine: " + json.dumps(machine(np)))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
