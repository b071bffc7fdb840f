"""Run one workload in this (fresh) process and print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds T \
        --mode measure|setup|trace --t0 <time.monotonic() at spawn>

``run.py`` starts it with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``.  ``setup`` mode stops where the first timed operation
would start; ``trace`` mode wraps the layer entry points first and also
writes the spans as a Chrome trace, ``perfbench/out/<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import the benchmark as a package, not as sibling scripts

from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["measure", "setup", "trace"])
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.seconds)
    workload.setup()
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    tracer = None
    if args.mode == "trace":
        from perfbench import layers
        from perfbench.spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
        origin_ns = time.perf_counter_ns()
    result = workload.run(tracer)
    out = {
        "setup_s": result.phase_start - args.t0,
        "latencies": result.latencies,
        "attempted": result.attempted,
        "failed": result.failed,
        "phase_s": result.phase_s,
        "throughput": result.throughput,
        "digest": result.digest,
        "problems": result.problems,
        "info": result.info,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from perfbench.layers import per_layer_metrics

        extra = {}
        if "sched_util" in result.info:
            extra["sched.util"] = result.info["sched_util"]
        metrics, unattributed = per_layer_metrics(tracer, result.phase_s, extra)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"{args.workload}.trace.json"  # the latest traced run
        tracer.write_chrome_trace(trace_path, origin_ns)
        out.update(
            per_layer=metrics,
            unattributed=unattributed,
            missing_targets=tracer.missing,
            spans=len(tracer.spans),
            chrome_trace=str(trace_path.relative_to(ROOT)),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
