"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dlx-table1 --seed 0 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --workload all        # the three, untraced

A run sets up (the program is imported in fresh interpreters several
times to time ``setup_s``), then repeats units of the workload until it
has made the workload's minimum number of units and ``--seconds`` have
passed.  With ``--trace 1`` it then repeats the first units with every
layer's entry points wrapped (see ``tracing.py``) and reports the
per-layer metrics instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output differs from ``reference.json``.
A full record of the run (environment, units, metrics) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    END_TO_END,
    OPS_ALIAS,
    PER_LAYER,
    UNITS,
    WORKLOADS,
    layer_metrics,
    phase_cross_check,
    zero_guard,
)

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
OUT_DIR = os.path.join(HERE, "out")


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def probe_setup(workload: str, size: str) -> int:
    """Child side of a setup probe: set up, then say so."""
    import workloads

    workloads.make(workload, 0, size, load_references()).setup()
    print("ready", flush=True)
    return 0


def time_setup(workload: str, size: str) -> float:
    """Seconds from interpreter start to a set-up workload, in a child."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         workload, "--size", size],
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        child.stdout.close()
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed")
    return elapsed


def load_references() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from repro.datapath.batched import effective_lanes

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "lanes": effective_lanes(None),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def run_workload(args) -> tuple[dict, int]:
    """One workload: returns (result object, exit code)."""
    import workloads
    from repro.datapath.batched import counters_delta, counters_snapshot
    from tracing import Tracer

    references = load_references()
    workload = workloads.make(args.workload, args.seed, args.size,
                              references, args.offset)
    setup_times = [time_setup(args.workload, args.size)
                   for _ in range(SETUP_PROBES)]
    workload.setup()

    units = []
    started = time.perf_counter()
    while (len(units) < workload.min_units
           or time.perf_counter() - started < args.seconds):
        units.append(workload.unit(len(units)))
    problems = workload.finish(units)

    layer_values = None
    overhead = None
    phases = {}
    traced_units = []
    if args.trace:
        tracer = Tracer()
        counters_before = counters_snapshot()
        tracer.install()
        try:
            for k in range(workload.min_units):
                with tracer.root("bench.unit"):
                    traced_units.append(workload.unit(k))
        finally:
            tracer.uninstall()
        problems += workload.finish(traced_units)
        # Medians, so that the untraced side's colder first unit does not
        # count as negative overhead.
        overhead = 100.0 * (
            statistics.median(u.seconds for u in traced_units)
            / statistics.median(u.seconds for u in units) - 1.0)
        layer_values = layer_metrics(
            tracer, counters_delta(counters_before), traced_units[0].outputs)
        layer_values["trace.overhead_pct"] = overhead
        phases = phase_cross_check(tracer)
        # The tiny self-test inputs are too small to reach every layer.
        zeros = (zero_guard(args.workload, layer_values)
                 if args.size == "full" else [])
        if zeros:
            problems.append("zero-counter guard: " + ", ".join(zeros)
                            + f" read 0 on {args.workload}")
        tracer.write(os.path.join(
            OUT_DIR,
            f"spans-{args.workload}-{args.size}-seed{args.seed}.json"))

    all_units = units + traced_units
    for unit in all_units:
        problems += unit.problems
    attempted = sum(u.ops for u in all_units)
    failed = sum(u.failed for u in all_units)
    correct = failed == 0 and not problems

    rates = [u.ops / u.seconds for u in units]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "ops_per_s": (statistics.median(rates), _spread(rates), len(rates)),
        "setup_s": (statistics.median(setup_times), _spread(setup_times),
                    len(setup_times)),
        "peak_rss_mb": (rss_mb, 0.0, 1),
    }

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(units)} units in "
          f"{sum(u.seconds for u in units):.1f} s, "
          f"{attempted} operations, {failed} failed")
    for name, unit, *_ in END_TO_END:
        value, spread, n = end_to_end[name]
        label = name
        if name == "ops_per_s":
            label = f"{name} ({OPS_ALIAS[args.workload]})"
        print(f"  {label:<34} {value:12.4f} {unit:<6} "
              f"over {n}, spread {100 * spread:.1f}%")
    print("  outputs: " + ", ".join(
        f"{k}={v:g}" for k, v in units[0].outputs.items()))
    if layer_values is not None:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<34} {layer_values[name]:14.6g} {unit}")
        print(f"  tracing overhead {overhead:.1f}% over "
              f"{len(traced_units)} units")
        for line in cross_check(phases):
            print(f"  cross-check: {line}")
    env = environment()
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    if args.trace:
        metrics = {name: {"value": layer_values[name], "unit": UNITS[name]}
                   for name, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": UNITS[name]}
                   for name, *_ in END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  size=args.size, offset=args.offset, env=env,
                  problems=problems, phase_cross_check=phases,
                  units=[{"ops": u.ops, "seconds": u.seconds,
                          "cpu_seconds": u.cpu_seconds,
                          "failed": u.failed, "outputs": u.outputs}
                         for u in all_units],
                  setup_times=setup_times)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(
            OUT_DIR, f"result-{args.workload}-{args.size}-seed{args.seed}"
                     f"-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return result, 0 if correct else 1


def cross_check(phases: dict) -> list[str]:
    """One line per TG phase with time in it; those where outside span
    time and the program's ``phase_seconds`` differ by more than the
    ``ops_per_s`` bound are marked DISAGREE."""
    bound = {name: b for name, _, _, b in END_TO_END}["ops_per_s"]
    lines = []
    for phase, (spans, program) in phases.items():
        if not program:
            continue
        ratio = spans / program
        verdict = "DISAGREE" if abs(ratio - 1.0) > bound else "agree"
        lines.append(f"{phase}: spans {spans:.3f} s, phase_seconds "
                     f"{program:.3f} s, ratio {ratio:.3f} ({verdict})")
    return lines


def run_all(args) -> int:
    """Each workload untraced, in its own process; one summary table."""
    worst = 0
    summary = []
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--size", args.size],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        sys.stdout.write(child.stdout)
        worst = max(worst, child.returncode)
        summary.append((name, json.loads(child.stdout.splitlines()[-1])))
    print("summary:")
    for name, result in summary:
        values = ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                           for k, v in result["metrics"].items())
        print(f"  {name:<11} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}  {values}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in summary),
        "attempted": sum(r["attempted"] for _, r in summary),
        "failed": sum(r["failed"] for _, r in summary),
        "metrics": {},
    }))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's inputs")
    parser.add_argument("--offset", type=int, default=0,
                        help="dlx-table1 sample offset; 1-5 are held out")
    parser.add_argument("--probe-setup", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        return probe_setup(args.probe_setup, args.size)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result, code = run_workload(args)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
