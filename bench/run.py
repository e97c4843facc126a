"""Benchmark of mapenum's certification workloads.

One workload, as BENCHMARK.json's command runs it (last stdout line is the
result; exit 1 if any check failed):

    python3 bench/run.py --workload series-oracle --seed 1 --seconds 28 --trace 0

Every workload, printed as a table (add --trace 1 for the per-layer run):

    python3 bench/run.py --all --seed 1 [--trace 1] [--out bench/runs/new.jsonl]

Compare two sets of runs saved with --out, one row per (workload, metric):

    python3 bench/run.py --compare bench/runs/base.jsonl bench/runs/new.jsonl

Each sample is a fresh interpreter (worker.py) run one at a time, so every
cold pass starts with the oracles' caches empty. A run starts one pass
interpreter after another until --seconds is used up, and reports medians.
wall_ref and warm_ref are the cold and warm pass times in units of a fixed
slice of reference work interleaved with the pass (reference.py), which a
slow spell of a shared host stretches as much as the pass; wall_s and warm_s
are the same passes in seconds. setup_s is each interpreter's setup in units
of slices timed around it, converted to seconds at the slice's nominal
duration; setup_raw_s is the same setup in seconds. With --trace 1 a run alternates
untraced and traced cold passes; the per-layer metrics come from the traced
ones, and trace.overhead_frac compares the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summary import classify, percentile, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3  # untraced passes in an untraced run
MIN_TRACED = 2  # of each kind in a traced run
DEADLINE_S = 170  # no run may take longer than this


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "_frac")):
        return "frac"
    return "count"


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one worker to completion and return its sample."""
    if timeout <= 0:
        raise BenchError(f"out of time before a {mode} sample of {workload}")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} sample of {workload} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All samples of one run, reduced to a record with medians."""
    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    plain, traced = [], []
    durations: dict[str, list[float]] = {}
    while True:
        if trace:
            mode = "trace" if len(traced) < len(plain) else "cold"
            enough = len(plain) >= MIN_TRACED and len(traced) >= MIN_TRACED
        else:
            mode = "pass"
            enough = len(plain) >= MIN_PASSES
        expected = statistics.median(durations[mode]) if mode in durations else 0.0
        if enough and time.monotonic() - start + expected > seconds:
            break
        began = time.monotonic()
        sample = spawn(workload, seed, mode, left())
        durations.setdefault(mode, []).append(time.monotonic() - began)
        (traced if mode == "trace" else plain).append(sample)

    samples = plain + traced
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(seed),
        "cases": plain[0]["cases"],
        "queries": plain[0]["queries"],
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "failures": [f for s in samples for f in s["failures"]][:5],
        "missing": traced[0]["missing"] if traced else [],
    }
    metrics = {}

    def put(name: str, values: list[float]) -> None:
        metrics[name] = {"value": statistics.median(values), "unit": unit_of(name), "samples": len(values)}

    put("setup_s", [s["setup_s"] for s in plain])
    put("setup_raw_s", [s["setup_raw_s"] for s in plain])
    put("wall_s", [s["wall_s"] for s in plain])
    put("wall_ref", [s["wall_ref"] for s in plain])
    if not trace:
        put("warm_s", [s["warm_s"] for s in plain])
        put("warm_ref", [s["warm_ref"] for s in plain])
    put("peak_rss_mb", [s["peak_rss_mb"] for s in plain])
    metrics["failed_frac"] = {"value": record["failed"] / record["attempted"], "unit": "frac",
                              "samples": record["attempted"]}
    query_ms = [q for s in plain for q in s["query_ms"]]
    if query_ms:
        for p in (50, 90):
            metrics[f"query_p{p}_ms"] = {"value": percentile(query_ms, p), "unit": "ms", "samples": len(query_ms)}
    if traced:
        for name in traced[0]["layers"]:
            put(name, [s["layers"][name] for s in traced])
        ratios = [t["wall_ref"] / p["wall_ref"] for t, p in zip(traced, plain)]
        metrics["trace.overhead_frac"] = {"value": statistics.median(ratios) - 1, "unit": "frac",
                                          "samples": len(ratios)}
    record["metrics"] = metrics
    return record


def print_table(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  {record['cases']} cases, "
          f"{record['queries']} queries per pass; {record['attempted']} checks attempted, "
          f"{record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"   {name:<38} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    for failure in record["failures"]:
        print(f"   FAIL {failure}")
    if record["missing"]:
        print(f"   not found, skipped: {', '.join(record['missing'])}")


def save(path: str | None, records: list[dict]) -> None:
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")


def compare(base_path: str, new_path: str, spec: dict) -> int:
    def load(path: str) -> dict[str, list[dict]]:
        runs: dict[str, list[dict]] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    runs.setdefault(record["workload"], []).append(record)
        return runs

    def describe(values: list[float]) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    base, new = load(base_path), load(new_path)
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False
    print(f"{'workload':<20} {'metric':<14} {'base median [q1, q3]':<40} {'new median [q1, q3]':<40} "
          f"{'worse by':>9}  verdict")
    for workload in [w for w in workloads if w in base and w in new]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            verdict, change = classify(b, n, metric["bound"], metric["better"])
            regressed |= verdict == "regressed"
            print(f"{workload:<20} {name:<14} {describe(b):<40} {describe(n):<40} {change:>+9.1%}  "
                  f"{verdict} (bound {metric['bound']:.0%})")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=workloads)
    target.add_argument("--all", action="store_true", help="run every workload and print a table")
    target.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --out files")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        records = [measure(w, args.seed, seconds, bool(args.trace))
                   for w in (workloads if args.all else [args.workload])]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(args.out, records)
    correct = all(r["failed"] == 0 for r in records)
    if args.all:
        for record in records:
            print_table(record)
        print(f"environment: {json.dumps(records[0]['env'])}")
        return 0 if correct else 1
    (record,) = records
    print(json.dumps(record))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
