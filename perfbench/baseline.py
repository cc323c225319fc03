"""Repeat the benchmark over several seeds and record the result.

Run from the root of a pcsft checkout:

    python3 perfbench/baseline.py --runs 10

For each workload it makes ``--runs`` untraced runs with seeds 1, 2,
..., and reports per end-to-end metric the median and the spread
(distance between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them). It then makes one
traced run per workload with seed 1 and writes everything, with a
record of the machine, to ``perfbench/BASELINE.json``.

The exit code is 1 when any run fails or any spread, ``setup_s``
included, reaches its metric's bound. A spread at or above a third of
its bound is steady enough to pass but is flagged, in the output and in
the record, as short of the steadiness target.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from run import HERE, run_child


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    returncode, table, result = run_child(workload, seed, seconds, trace)
    if returncode != 0 or result is None:
        print("\n".join(table), file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {returncode}")
    result["process_s"] = time.monotonic() - start
    result["table"] = table
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def blas_threads():
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cache_per_core": caches,
    }


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seeds = list(range(1, args.runs + 1))
    seconds = spec["run_seconds"]
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}

    workloads = {}
    within_bounds = True
    short_of_target = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run(name, seed, seconds, 0) for seed in seeds]
        summary = {"seeds": seeds, "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            q1, median, q3 = statistics.quantiles(values, n=4)
            within_bounds &= s < bound
            steady = s < bound / 3
            if not steady:
                short_of_target.append(f"{name} {metric} {s:.3f}")
            summary["metrics"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": s,
                "bound": bound,
                "steady": steady,
                "values": values,
            }
            flag = "" if steady else ("  ABOVE BOUND" if s >= bound else "  above bound/3")
            print(f"{name:<15} {metric:<12} median {statistics.median(values):<12.6g} spread {s:.4f}"
                  f" (bound {bound}){flag}  [{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
        summary["failed"] = sum(r["failed"] for r in runs)
        summary["attempted"] = sum(r["attempted"] for r in runs)
        summary["run_process_s"] = statistics.median(r["process_s"] for r in runs)
        summary["extra"] = [line.strip() for line in runs[0]["table"] if line.strip().startswith("time_to_1pct_s")]
        print(f"{name:<15} failed {summary['failed']} of {summary['attempted']};"
              f" median process time {summary['run_process_s']:.1f} s", flush=True)
        traced = run(name, seeds[0], seconds, 1)
        summary["traced_seed"] = seeds[0]
        summary["traced_table"] = traced["table"]
        summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        workloads[name] = summary
    if short_of_target:
        print(f"spreads at or above a third of their bound: {'; '.join(short_of_target)}")

    path = HERE / "BASELINE.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update(environment=environment(), run_seconds=seconds, runs_per_workload=args.runs,
                  workloads=workloads, short_of_target=short_of_target)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if within_bounds else 1


if __name__ == "__main__":
    sys.exit(main())
