"""Self-tests of the benchmark's own code; ``run.py`` runs them first.

    python3 perfbench/selftest.py

* exact percentiles lie in [min, max] and never decrease as q grows;
* the request generators give the same list for the same seed and a
  different one for another seed;
* ``BENCHMARK.json`` names exactly the workloads and metrics the code
  reports.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import the benchmark as a package, not as sibling scripts

from perfbench.stats import nearest_rank  # noqa: E402
from perfbench.workloads import END_TO_END, WORKLOADS, plan_requests, sched_requests  # noqa: E402

_QS = [i / 100 for i in range(101)]


def _check_percentiles(samples) -> list[str]:
    lo, hi = min(samples), max(samples)
    values = [nearest_rank(samples, q) for q in _QS]
    problems = []
    if any(not lo <= v <= hi for v in values):
        problems.append(f"percentile outside [{lo}, {hi}] for {samples[:4]}...")
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append(f"percentiles not monotone in q for {samples[:4]}...")
    return problems


def test_percentiles() -> list[str]:
    rng = random.Random(0)
    problems = []
    # the case a bucketed histogram gets wrong: 16 spans in [20.0, 20.1] ms
    problems += _check_percentiles([20.0 + rng.random() * 0.1 for _ in range(16)])
    for n in (1, 2, 3, 10, 99, 100, 101, 1000):
        problems += _check_percentiles([rng.lognormvariate(0, 2) for _ in range(n)])
    problems += _check_percentiles([5.0] * 7)
    ranks = list(range(1, 101))
    if (nearest_rank(ranks, 0.5), nearest_rank(ranks, 0.9), nearest_rank(ranks, 1.0)) != (50, 90, 100):
        problems.append("nearest rank of 1..100 is not 50 / 90 / 100 at q = .5 / .9 / 1")
    return problems


def test_generators() -> list[str]:
    problems = []
    for name, make in (("plan", plan_requests), ("sched", sched_requests)):
        if make(1, 2) != make(1, 2):
            problems.append(f"{name} requests differ between two draws at the same seed")
        if make(1, 2) == make(2, 2):
            problems.append(f"{name} requests are the same at seeds 1 and 2")
    return problems


def test_benchmark_json() -> list[str]:
    from perfbench.layers import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code's")
    for key, reported in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(reported):
            problems.append(f"BENCHMARK.json {key} differs from the metrics the code reports")
    return problems


def run_all() -> list[str]:
    return test_percentiles() + test_generators() + test_benchmark_json()


if __name__ == "__main__":
    failures = run_all()
    for line in failures:
        print(f"FAIL {line}")
    print("self-tests ok" if not failures else f"{len(failures)} self-test failure(s)")
    sys.exit(1 if failures else 0)
