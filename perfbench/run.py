"""pcsft benchmark runner.

Run from the root of a pcsft checkout (the directory holding
``BENCHMARK.json`` and ``src/pcsft``):

    python3 perfbench/run.py --workload field-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

One run is closed-loop: one process, one caller, and the next pass of
the workload starts when the previous one ends. Passes repeat the same
inputs until the next pass would end after ``--seconds``. The first
pass is a warm-up: it is checked but not timed. At least two timed
passes follow, and every pass must give outputs byte-identical to the
first. BLAS runs at its library default thread count.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (lower quartile of the timed passes), ``setup_s`` (lower
quartile of fresh processes timed from interpreter start to inputs
ready, spread evenly over the run), ``work_per_s`` and ``peak_rss_mb``.
The lower quartile rather than the median, because the machine slows
down in spells of seconds that a 1-in-4 quantile mostly steps over.
It also prints ``time_to_1pct_s`` for the Monte Carlo workloads and
``failed_ratio``, which the last line carries as ``attempted``/``failed``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self time, calls and computed work per pcsft layer
(see ``tracing.py``), plus ``trace.overhead_ratio``. Its spans are
written to ``.perfbench_work/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = ".perfbench_work"
SETUP_PROBES = 9
DEFAULT_SEED = 1
HARD_LIMIT_S = 150  # no new pass once one would end later than this


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def use_checkout(root: Path):
    """Import pcsft from the checkout's sources and nowhere else."""
    if not (root / "src" / "pcsft" / "__init__.py").is_file():
        fail(f"no pcsft sources under {root / 'src'}; run from the root of a pcsft checkout")
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(HERE))
    import pcsft

    if Path(pcsft.__file__).resolve().parent != (root / "src" / "pcsft").resolve():
        fail(f"imported pcsft from {pcsft.__file__}, not from the checkout")


def make_workload(name, seed, work_dir):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, work_dir)


def setup_probe(args, root: Path):
    """Child process of a setup_s measurement: build inputs, report when ready."""
    use_checkout(root)
    work_dir = root / WORK / f"probe-{os.getpid()}"
    try:
        make_workload(args.workload, args.seed, work_dir)
        print(f"ready {monotonic()!r}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def setup_prober(args):
    """A callable that times one fresh process's set-up, in seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]

    def probe() -> float:
        start = monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) < 2 or lines[-2] != "ready":
            sys.stderr.write(proc.stderr)
            fail(f"setup probe failed with exit code {proc.returncode}", 1)
        return float(lines[-1]) - start

    return probe


def low_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run_passes(workload, seconds, tracer, probe=None):
    """Closed loop of passes; returns per-pass records and set-up times.

    The first pass is an untraced warm-up. With a tracer, the rest
    alternate traced and untraced, so that both halves see the same
    state of the process. With a set-up ``probe``, SETUP_PROBES probes
    run between passes, spread evenly over ``seconds``.
    """
    passes = []
    setup_times = []
    first = {}
    start = monotonic()
    min_passes, floor = (5, 3) if tracer is not None else (3, 2)
    while True:
        due = len(setup_times) * seconds / SETUP_PROBES
        if probe is not None and len(setup_times) < SETUP_PROBES and monotonic() - start >= due:
            setup_times.append(probe())
        traced = tracer is not None and len(passes) % 2 == 1
        workload.prepare()
        error = None
        output = None
        if traced:
            tracer.install()
        try:
            t0 = monotonic()
            try:
                output = workload.run()
            except Exception:
                error = traceback.format_exc()
            elapsed = monotonic() - t0
        finally:
            if traced:
                tracer.uninstall()
        if error is None:
            ops = workload.check(output)
            estimates = workload.estimates(output)
        else:
            from workloads import Op

            sys.stderr.write(error)
            ops = [Op(workload.name, "", error.strip().splitlines()[-1])]
            estimates = []
        if not passes:
            first = {op.label: op.digest for op in ops if op.failure is None}
        for op in ops:
            if passes and op.failure is None and first.get(op.label) != op.digest:
                op.failure = "outputs differ from the first pass with the same seed"
        passes.append(
            {
                "seconds": elapsed,
                "traced": traced,
                "ops": ops,
                "estimates": estimates,
                "io_bytes": workload.io_bytes() if error is None else 0,
            }
        )
        so_far = monotonic() - start
        typical = statistics.median(p["seconds"] for p in passes)
        if len(passes) >= min_passes and so_far + typical > seconds:
            break
        if len(passes) >= floor and so_far + typical > HARD_LIMIT_S:
            break
    while probe is not None and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    return passes, setup_times


def end_to_end(workload, passes, setup_times):
    wall_s = low_quartile([p["seconds"] for p in passes[1:]])
    m = {
        "wall_s": wall_s,
        "setup_s": low_quartile(setup_times),
        "work_per_s": workload.work / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    extra = {}
    estimates = passes[0]["estimates"]
    if estimates:
        worst = max((se / abs(mean) / 0.01) ** 2 for mean, se in estimates)
        extra["time_to_1pct_s"] = wall_s * worst
    return m, extra


def print_end_to_end(workload, passes, setup_times, m, extra, units, attempted, failed):
    wall = sorted(p["seconds"] for p in passes[1:])
    setup = sorted(setup_times)
    notes = {
        "wall_s": f"lower quartile of {len(wall)} timed passes; median {statistics.median(wall):.4f},"
        f" min {wall[0]:.4f}, max {wall[-1]:.4f}",
        "setup_s": f"lower quartile of {len(setup)} fresh processes; median {statistics.median(setup):.4f},"
        f" min {setup[0]:.4f}, max {setup[-1]:.4f}",
        "work_per_s": f"{workload.unit} per second ({workload.work} per pass)",
        "peak_rss_mb": "peak resident memory of this process",
        "time_to_1pct_s": "wall_s x max_k (stderr_k / |mean_k| / 0.01)^2",
    }
    for name, value in list(m.items()) + list(extra.items()):
        unit = units.get(name, "s")
        print(f"  {name:<16} {value:>14.6g} {unit:<5} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<16} {failed / attempted:>14.6g} {'':<5} {failed} of {attempted} operations failed")


def print_layers(tracer, m, metrics, passes_traced):
    wall = m["trace.wall_s"]
    print(f"  per traced pass ({passes_traced} traced passes; traced wall_s {wall:.4f} s,"
          f" untraced {m['trace.untraced_wall_s']:.4f} s, overhead {m['trace.overhead_ratio']:+.3f})")
    print(f"  {'span':<44} {'calls':>9} {'self_s':>10} {'share':>7}")
    ranked = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    for name, total in ranked:
        s = total / passes_traced
        if s < 1e-4 * wall:
            continue
        print(f"  {name:<44} {tracer.calls[name] / passes_traced:>9.6g} {s:>10.4f} {s / wall:>7.1%}")
    print("  per-layer metrics:")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")


def select(m, entries):
    missing = [e["name"] for e in entries if e["name"] not in m]
    if missing:
        fail(f"BENCHMARK.json names metrics the benchmark does not compute: {', '.join(missing)}")
    return {e["name"]: {"value": float(m[e["name"]]), "unit": e["unit"]} for e in entries}


def run_one(args, root: Path, spec: dict):
    use_checkout(root)
    work_dir = root / WORK / f"{args.workload}-{os.getpid()}"
    tracer = None
    dgemm = 0.0
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        if args.trace:
            import tracing

            dgemm = tracing.dgemm_gflops()
            tracer = tracing.Tracer()
        probe = None if args.trace else setup_prober(args)
        passes, setup_times = run_passes(workload, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failures = [op for op in ops if op.failure is not None]
    attempted, failed = len(ops), len(failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}"
          f"  (closed loop, 1 caller)")
    for op in failures[:10]:
        print(f"  FAILED {op.label}: {op.failure}")
    digest = hashlib.sha256("".join(op.digest for op in passes[0]["ops"]).encode()).hexdigest()[:16]
    print(f"  output digest {digest} (information only; not compared across commits)")

    if args.trace:
        untraced = [p["seconds"] for p in passes[1:] if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        io_bytes = sum(p["io_bytes"] for p in traced)
        m = tracing.layer_metrics(
            tracer,
            len(traced),
            statistics.median(p["seconds"] for p in traced),
            statistics.median(untraced),
            dgemm,
            io_bytes,
        )
        metrics = select(m, spec["per_layer"])
        print_layers(tracer, m, metrics, len(traced))
        spans_path = root / WORK / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans_path)
        print(f"  spans written to {spans_path.relative_to(root)}")
    else:
        m, extra = end_to_end(workload, passes, setup_times)
        units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
        print_end_to_end(workload, passes, setup_times, m, extra, units, attempted, failed)
        metrics = select(m, spec["end_to_end"])
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_child(workload, seed, seconds, trace):
    """Run one workload in a child process.

    Returns its exit code, its table (every output line but the last) and
    its result line parsed, or None when the last line is not a result.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, lines, None
    return proc.returncode, lines[:-1], result


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    code = 0
    for name in names:
        returncode, table, result = run_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(table), flush=True)
        code = code or returncode
        if result is None:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            code = code or 1
        results[name] = result
    summary = {
        "correct": all(r["correct"] for r in results.values()) and code == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the root of a pcsft checkout")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        setup_probe(args, root)
        return 0
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
