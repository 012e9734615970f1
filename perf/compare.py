#!/usr/bin/env python3
"""Compare two suite results by the benchmark's own bounds.

    python3 perf/run.py --runs 10 --output perf/out/a.json
    python3 perf/run.py --runs 10 --output perf/out/b.json
    python3 perf/compare.py perf/out/a.json perf/out/b.json

One row per end-to-end metric and workload: both medians, how far B is
*worse* than A as a share of A's median, the bound BENCHMARK.json fixes
for the metric, and each side's run-to-run spread (distance between the
quartiles over the median). Exits non-zero when a median worsened by
more than its bound, when a workload or metric is present on one side
only, when a run failed its correctness gate or ended without a result,
or when a count that must repeat exactly (same seed, simulator
workload) differs or has no twin to be compared with. A spread wider
than the bound is flagged as unresolved, not as a breach; so is a
metric on a workload where it says nothing new (``REPORTED_ONLY``).
Running it on two results of the same code is the A/A check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every run reports every end-to-end metric (the driver's contract),
#: but on these workloads the metric is fixed by something other than
#: the program's speed, or repeats another one. Such a row is printed
#: and labelled, and cannot breach.
REPORTED_ONLY = {
    ("open_inproc", "txn_per_s"): "set by the offered schedule",
    ("recover_inproc", "txn_per_s"): "set by the downtime, the vote timeout and the recovery timers",
    ("sim_storm", "decide_p50_ms"): "wall ms per simulated txn = 1000 / decide-phase txn/s; read txn_per_s",
}

#: Per-layer counts that are functions of the seed alone on sim_storm.
EXACT_ON_SIM = (
    "sim.steps_per_txn",
    "net.msgs_per_txn",
    "storage.forces_per_txn",
    "model.forces_residual",
    "model.msgs_residual",
)


def load_runs(path: str) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def values(runs: list[dict], workload: str, metric: str, traced: bool = False) -> list[float]:
    return [
        run["metrics"][metric]
        for run in runs
        if run["workload"] == workload and run["traced"] == traced and metric in run["metrics"]
    ]


def spread(sample: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(sample) < 2:
        return 0.0
    first, _, third = statistics.quantiles(sample, n=4)
    return (third - first) / statistics.median(sample)


def worsening(before: float, after: float, better: str) -> float:
    """How far ``after`` is worse than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if better == "lower" else -change


def exact_repeats(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    """Print the exact counters of every traced ``sim_storm`` pair with
    the same seed; return what differs or could not be compared."""
    problems = []
    by_seed = [
        {run["seed"]: run for run in runs
         if run["workload"] == "sim_storm" and run["traced"] and run["metrics"]}
        for runs in (runs_a, runs_b)
    ]
    seeds = sorted(set(by_seed[0]) | set(by_seed[1]))
    if not seeds:
        problems.append("no traced sim_storm run on either side: exact counters unchecked")
    for seed in seeds:
        a, b = by_seed[0].get(seed), by_seed[1].get(seed)
        if a is None or b is None:
            problems.append(f"sim_storm seed={seed} traced run only in {'B' if a is None else 'A'}")
            continue
        if (a["seconds"], a["attempted"]) != (b["seconds"], b["attempted"]):
            problems.append(
                f"sim_storm seed={seed} did different work: A {a['attempted']} txns in "
                f"{a['seconds']} s, B {b['attempted']} in {b['seconds']} s"
            )
            continue
        for name in EXACT_ON_SIM:
            same = a["metrics"][name] == b["metrics"][name]
            print(f"exact  sim_storm seed={seed} {name:28s}"
                  f"{a['metrics'][name]!r:>22} {b['metrics'][name]!r:>22}  {'same' if same else 'DIFFERS'}")
            if not same:
                problems.append(f"sim_storm seed={seed} {name} does not repeat")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    breaches = []

    print(f"{'workload':22s}{'metric':20s}{'A median':>14s}{'B median':>14s}"
          f"{'worse by':>10s}{'bound':>8s}{'spread A':>10s}{'spread B':>10s}  verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = values(runs_a, workload, metric["name"])
            b = values(runs_b, workload, metric["name"])
            if not a or not b:
                absent = " and ".join(side for side, sample in (("A", a), ("B", b)) if not sample)
                print(f"{workload:22s}{metric['name']:20s}  MISSING in {absent}")
                breaches.append(f"{workload} {metric['name']} missing in {absent}")
                continue
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            wide = max(spread(a), spread(b)) > metric["bound"]
            reported_only = REPORTED_ONLY.get((workload, metric["name"]))
            if reported_only:
                verdict = f"not gated: {reported_only}"
            elif worse > metric["bound"]:
                verdict = "BREACH"
                breaches.append(f"{workload} {metric['name']} worse by {worse:.1%}")
            else:
                verdict = "unresolved (spread > bound)" if wide else "ok"
            print(f"{workload:22s}{metric['name']:20s}{statistics.median(a):14.4f}"
                  f"{statistics.median(b):14.4f}{worse:+10.1%}{metric['bound']:8.0%}"
                  f"{spread(a):10.1%}{spread(b):10.1%}  {verdict}")

    for label, runs in (("A", runs_a), ("B", runs_b)):
        for run in runs:
            if not run["correct"]:
                breaches.append(
                    f"{label}: {run['workload']} seed={run['seed']} traced={run['traced']}"
                    f" failed: {run['gates']}"
                )

    breaches += exact_repeats(runs_a, runs_b)

    knee_a = values(runs_a, "open_inproc", "driver.max_rate_ok", traced=True)
    knee_b = values(runs_b, "open_inproc", "driver.max_rate_ok", traced=True)
    print(f"note   open_inproc driver.max_rate_ok  A {sorted(set(knee_a))}  B {sorted(set(knee_b))}")

    for breach in breaches:
        print(f"BREACH: {breach}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
