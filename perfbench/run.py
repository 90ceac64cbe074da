#!/usr/bin/env python3
"""The GreenMatch repository benchmark.

Builds the benchmark (the cargo package next to this file, which depends
on the repository's crates by path) and runs it from the repository root.

One run, printing one JSON result as the last line of standard output:

    python3 perfbench/run.py --workload week-replay --seed 1 --seconds 25 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` is the traced run,
which reports the per-layer metrics and writes its spans to
`perfbench/out/spans-<workload>-seed<seed>.jsonl`.

Every metric of every workload, with the output checks, in one command;
with `--rounds N` this is the steadiness mode, which runs each workload N
times (alternating workloads, seed 1..N) and prints the median, quartiles
and largest deviation of each end-to-end metric:

    python3 perfbench/run.py --suite [--rounds N] [--seconds S] [--no-trace]

The build goes to $CARGO_TARGET_DIR, or `.bench_build` when that is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ["week-replay", "mega-service", "geo-archive"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave the wrapper room to report.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    binary = target / "release" / "gm-perfbench"
    if done.returncode != 0 or not binary.is_file():
        log(f"perfbench: build failed (exit {done.returncode})")
        return None
    return binary


def run_binary(binary, workload, seed, seconds, trace, capture_stderr=False):
    """Run one measurement; return (exit code, stdout lines, stderr text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    stderr = subprocess.PIPE if capture_stderr else None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S}s")
            return 1, [], ""
    return proc.returncode, out.splitlines(), err or ""


def parse_result(lines):
    """The result object on the last line, or None if it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def single(args):
    binary = build()
    if binary is None:
        return 1
    code, lines, _ = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(lines)
    if result is None:
        log(f"perfbench: no result from the benchmark (exit {code})")
        return code or 1
    expected = {m["name"] for m in json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]} if SPEC.is_file() else None
    if expected is not None and set(result["metrics"]) != expected:
        log(f"perfbench: metric set differs from {SPEC.name}: "
            f"{sorted(set(result['metrics']) ^ expected)}")
        return 1
    for line in lines:
        print(line)
    return code


def spread_table(rows, bounds):
    """Print median, quartiles, IQR/median and max deviation per metric."""
    log(f"{'workload':<13} {'metric':<20} {'unit':<6} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'iqr/med':>8} {'maxdev':>7} {'bound':>6}")
    for (workload, name), (unit, values) in rows.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        maxdev = max(abs(v - med) for v in values) / med if med else 0.0
        bound = bounds.get(name)
        flag = " !" if bound is not None and iqr > bound / 3 else ""
        log(f"{workload:<13} {name:<20} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{iqr:>8.4f} {maxdev:>7.4f} {bound if bound is not None else '-':>6}{flag}")


def suite(args):
    binary = build()
    if binary is None:
        return 1
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    rows, proc_rows, ok = {}, {}, True
    for r in range(args.rounds):
        seed = r + 1
        order = WORKLOADS if r % 2 == 0 else list(reversed(WORKLOADS))
        for workload in order:
            code, lines, err = run_binary(binary, workload, seed, args.seconds, 0,
                                          capture_stderr=True)
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                log(f"FAILED {workload} seed {seed} (exit {code})\n{err}")
                continue
            for name, m in result["metrics"].items():
                rows.setdefault((workload, name), (m["unit"], []))[1].append(m["value"])
            proc = json.loads(next(l for l in err.splitlines() if l.startswith("proc "))[5:])
            for key in ("cpu_ratio", "runq_wait_ms"):
                proc_rows.setdefault((workload, "proc." + key), ("", []))[1].append(proc[key])
            log(f"round {r + 1}/{args.rounds} {workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()))
    spread_table(rows, bounds)
    spread_table(proc_rows, {})
    if not args.no_trace:
        for workload in WORKLOADS:
            code, lines, err = run_binary(binary, workload, 1, args.seconds, 1,
                                          capture_stderr=True)
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                log(f"FAILED traced {workload} (exit {code})\n{err}")
                continue
            log("\n".join(l for l in err.splitlines() if l.startswith(("trace", "layers"))))
            for name, m in result["metrics"].items():
                log(f"  {workload:<13} {name:<36} {m['value']:>14.6g} {m['unit']}")
    log("suite: all runs correct" if ok else "suite: some runs FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--suite", action="store_true",
                   help="run every workload, untraced then traced")
    p.add_argument("--rounds", type=int, default=1, help="untraced runs per workload in --suite")
    p.add_argument("--no-trace", action="store_true", help="skip the traced runs of --suite")
    args = p.parse_args()
    if args.suite:
        return suite(args)
    if args.workload is None:
        p.error("--workload is required (or use --suite)")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
