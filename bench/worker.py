"""One benchmark sample in a fresh interpreter.

Started by run.py, one at a time, so the oracles' unbounded caches start
empty in every cold pass. Modes:

- cold:  setup (import mapenum and generate the inputs), then a cold pass.
- pass:  setup, a cold pass, then the same pass again in the same process
         (warm), repeated until the warm passes have run WARM_MIN_S.
- trace: setup with every declared public function wrapped, then a cold pass.

Every pass runs with reference slices interleaved (reference.py), and setup
is bracketed by SETUP_SLICES slices before and after it. ``setup_raw_s`` is
setup in seconds; ``setup_s`` is setup in slices, converted to seconds at the
nominal slice time, so a slow spell of a shared host does not move it.

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
WARM_MIN_S = 1.0  # repeat the warm pass until it has run this long
SETUP_SLICES = 10  # reference slices timed right before and right after setup


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("cold", "pass", "trace"), required=True)
    args = parser.parse_args()

    slices = [reference.timed_slice() for _ in range(SETUP_SLICES)]
    began = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mapenum
    except ImportError as exc:
        print(f"error: cannot import mapenum from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    if not Path(mapenum.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported mapenum from {mapenum.__file__}, not from this checkout", file=sys.stderr)
        return 3

    import tracer
    import workloads

    out: dict = {}
    if args.mode == "trace":
        recorder = tracer.Tracer()
        _, out["missing"] = tracer.install(recorder)
    ops = workloads.make_inputs(args.workload, args.seed)
    out["setup_raw_s"] = time.perf_counter() - began
    slices += [reference.timed_slice() for _ in range(SETUP_SLICES)]
    out["setup_s"] = out["setup_raw_s"] / statistics.median(slices) * reference.SLICE_NOMINAL_S
    out["cases"] = sum(op.cases for op in ops)
    out["queries"] = sum(op.queries for op in ops)

    # Pass and query times exclude the reference slices run during them.
    on_slice = recorder.exclude if args.mode == "trace" else None
    with reference.Interleaved(on_slice) as ref:
        cold = workloads.run_pass(ops, ref.own_clock)
    out["wall_ref"] = cold.wall_s / ref.mean_slice_s()
    passes = [cold]
    if args.mode == "trace":
        out["layers"] = tracer.layer_metrics(recorder, cold.wall_s)
        out["layers"]["verify.cases"] = workloads.verify_cases(ops)
    elif args.mode == "pass":
        warm = []
        with reference.Interleaved() as ref:
            while not warm or sum(p.wall_s for p in warm) < WARM_MIN_S:
                warm.append(workloads.run_pass(ops, ref.own_clock))
        out["warm_s"] = statistics.median(p.wall_s for p in warm)
        out["warm_ref"] = out["warm_s"] / ref.mean_slice_s()
        passes += warm
    out["wall_s"] = passes[0].wall_s
    out["query_ms"] = passes[0].query_ms
    out["attempted"] = sum(p.attempted for p in passes)
    out["failed"] = sum(p.failed for p in passes)
    out["failures"] = [f for p in passes for f in p.failures][:5]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
