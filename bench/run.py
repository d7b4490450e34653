"""riskshare benchmark: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload cli_batch --seed 1 --seconds 15 --trace 0

One caller in one thread drives riskshare's public functions in a closed
loop: each op starts when the previous one has returned. The op set is fixed
by the seed, and the number of whole passes over it by --seconds alone
(pass_count), so a seed's attempted and failed ops repeat exactly from run
to run. Every op is checked after it is timed (bench/checks.py). A
probe loop between ops measures the host's speed, and each op's latency is
its median over the passes at reference host speed (see run_pass and
op_latencies); ops_per_s divides the ops of a pass by the sum of those, and
the percentiles are taken over them. setup_s is scaled the same way. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics named in BENCHMARK.json. With --trace 1 the passes of half of
--seconds run untraced and then one runs traced (bench/tracing.py), and the
object carries the per-layer metrics of the traced pass. Human-readable lines
come first.

Run it from the root of a source checkout; riskshare is imported from src/.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported anywhere in this process.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse
import dataclasses
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "riskshare"
SETUP_ROUNDS = 9
# A run makes --seconds over PASS_S passes, and at least MIN_PASSES. PASS_S is
# a pass's usual wall time on the 2-vCPU build host, which is 1.5 to 2.5 times
# its time at the probe's reference speed. The count depends on --seconds
# alone, never on how fast the host is running. Only a run that reaches
# RUN_CAP_S starts no further pass, so that it ends within its 180 s even on
# a host several times slower; it says so on stderr.
PASS_S = {"cli_batch": 2.7, "growing_markets": 12.0, "oracle_check": 10.0}
MIN_PASSES = 3
RUN_CAP_S = 120.0
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
# Host speed probe: fixed work in the three kinds riskshare's ops are made
# of (an interpreter loop, arithmetic on small numpy arrays, allocating and
# sorting Python objects), touching no riskshare code, run about every
# CALIBRATION_EVERY_S between ops. CALIBRATION_REF_S is its time on the
# 2-vCPU build host when no other tenant contends for the CPU.
CALIBRATION_STEPS = 10_000
CALIBRATION_REF_S = 1.6e-3
CALIBRATION_EVERY_S = 0.1
_PROBE_PROBS = np.full(8, 1.0 / 8.0)
_PROBE_ROWS = np.linspace(-1.0, 1.0, 48).reshape(6, 8)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_batch", "growing_markets", "oracle_check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_lines() -> dict[str, int]:
    return {path.stem: len(path.read_text().splitlines())
            for path in sorted(PACKAGE.glob("*.py"))}


def print_machine_block(scipy) -> None:
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} "
          + " ".join(f"{name}={os.environ[name]}" for name in BLAS_ENV))
    print(f"commit: {git_commit()}")
    print("source lines: " + " ".join(f"{k}={v}" for k, v in source_lines().items()))


def time_import() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import riskshare.cli"],
        check=True, cwd=ROOT,
    )
    return time.perf_counter() - t0


def calibration() -> float:
    """Seconds the host takes right now for the fixed probe work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i
    for j in range(CALIBRATION_STEPS // 50):
        x = _PROBE_ROWS[j % 6] * 1.5 + 0.1
        c = x - _PROBE_PROBS @ x
        total += float(_PROBE_PROBS @ (c * c))
    items = [(i, float(i), [i]) for i in range(CALIBRATION_STEPS // 10)]
    items.sort(key=lambda item: -item[1])
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time measured between two probes, at the probe's reference speed."""
    return seconds * 2.0 * CALIBRATION_REF_S / (probe_before + probe_after)


def run_pass(ops) -> tuple[list, list[float], list[float]]:
    """Run one pass in a closed loop.

    Returns what each op left to check, each op's latency as measured, and
    each op's latency at reference host speed, from the probes taken just
    before and just after it.
    """
    records, raw, probe_before = [], [], []
    probes = [calibration()]
    due = time.perf_counter() + CALIBRATION_EVERY_S
    for op in ops:
        if time.perf_counter() >= due:
            probes.append(calibration())
            due = time.perf_counter() + CALIBRATION_EVERY_S
        probe_before.append(len(probes) - 1)
        t0 = time.perf_counter()
        out = op.run()
        raw.append(time.perf_counter() - t0)
        records.append(op.collect(out))
    probes.append(calibration())
    scaled = [at_reference_speed(t, probes[j], probes[j + 1])
              for t, j in zip(raw, probe_before)]
    return records, raw, scaled


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def op_latencies(passes: list[list[float]]) -> list[float]:
    """Each op's median scaled latency over the passes of the run.

    On the build host, other tenants slow pure-Python work by up to 1.7x,
    for seconds or for whole minutes; the probe loop slows with it, so the
    scaled times repeat from run to run where the measured ones do not.
    Every op of the set keeps its own figure, so slow ops, failing ones
    included, are never dropped.
    """
    return [statistics.median(times) for times in zip(*passes)]


def tail_percentile(pass_size: int) -> float:
    """Highest ladder percentile with at least ten ops of a pass beyond."""
    return max(q for q in TAIL_LADDER
               if pass_size - math.ceil(q / 100.0 * pass_size) >= 10)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def main() -> int:
    args = parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"riskshare sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import scipy

    import riskshare
    if Path(riskshare.__file__).resolve().parent != PACKAGE:
        print(f"imported riskshare from {riskshare.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    print_machine_block(scipy)
    missed = checks.self_test()
    print("checker self-test: " + ("ok" if not missed else "MISSED " + "; ".join(missed)))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            before = calibration()
            t0 = time.perf_counter()
            time_import()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            workload.warm_up()
            elapsed = time.perf_counter() - t0
            setup_times.append(at_reference_speed(elapsed, before, calibration()))

        ops = workload.ops
        failures, times, raw_times = [], [], []
        failed_per_pass = []
        t_start = time.perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        planned = pass_count(args.workload, budget)
        longest = 0.0
        while len(times) < planned:
            if time.perf_counter() - t_start + longest > RUN_CAP_S:
                print(f"stopped after {len(times)} of {planned} passes: "
                      f"the run reached {RUN_CAP_S:g} s", file=sys.stderr)
                break
            t_pass = time.perf_counter()
            records, raw, scaled = run_pass(ops)
            checked = workload.check_pass(ops, records)
            failures += checked
            failed_per_pass.append(sum(1 for f in checked if f))
            raw_times.append(raw)
            times.append(scaled)
            longest = max(longest, time.perf_counter() - t_pass)
        if args.trace:
            tracer = tracing.Tracer(riskshare)
            tracer.install()
            try:
                records, _, scaled = run_pass([_tagged(tracer, op) for op in ops])
            finally:
                tracer.uninstall()
            failures += workload.check_pass(ops, records)
            traced_time = sum(scaled)
        wall = time.perf_counter() - t_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    pass_size = len(ops)
    passes = attempted // pass_size
    print(f"workload: {args.workload} seed={args.seed} passes={passes} "
          f"ops/pass={pass_size} wall_s={wall:.2f} closed loop, 1 caller")
    print(f"ops: attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6f}")
    print("failed ops in each untraced pass: "
          + " ".join(map(str, failed_per_pass)))
    kinds = {}
    for f in failures:
        for message in f[:1]:
            kind = re.sub(r"\d[\d.e+-]*", "#", message)
            kinds[kind] = kinds.get(kind, 0) + 1
    for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  failed {count:5d} x {kind}")

    if args.trace:
        tags = {m.group(1) for m in (re.search(r"\.(n\d+_m\d+)$", d["name"])
                                     for d in spec["per_layer"]) if m}
        values = tracer.metrics(sorted(tags))
        values["cli.report_bytes"] = workload.report_bytes(records)
        values["trace_overhead_frac"] = (
            traced_time / statistics.median(map(sum, times)) - 1.0)
        for layer, lines in source_lines().items():
            values[f"{layer}.source_lines"] = lines
        print("spans (layer function calls inclusive_s self_s):")
        for row in tracer.function_table()[:25]:
            print("  %-12s %-32s %9d %10.4f %10.4f" % row)
        declared = spec["per_layer"]
    else:
        latencies = op_latencies(times)
        measured = op_latencies(raw_times)
        q = tail_percentile(pass_size)
        values = {
            "ops_per_s": pass_size / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * percentile(latencies, q),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        beyond = pass_size - math.ceil(q / 100.0 * pass_size)
        print("op time of each pass, measured (s): "
              + " ".join(f"{sum(t):.3f}" for t in raw_times))
        print("op time of each pass, at reference speed (s): "
              + " ".join(f"{sum(t):.3f}" for t in times))
        print(f"as measured, unscaled: ops_per_s={pass_size / sum(measured):.6g} "
              f"latency_p50_ms={1e3 * statistics.median(measured):.6g} "
              f"latency_tail_ms={1e3 * percentile(measured, q):.6g}")
        print(f"latency_tail_ms is p{q:g} of the ops' latencies over {passes} "
              f"passes, {beyond} of {pass_size} ops beyond it")
        print("setup rounds (s): " + " ".join(f"{t:.3f}" for t in setup_times))
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _tagged(tracer, op):
    """The op with its market-size tag set on the tracer before it runs."""

    def tagged_run():
        tracer.set_tag(op.tag)
        return op.run()

    return dataclasses.replace(op, run=tagged_run)


if __name__ == "__main__":
    sys.exit(main())
