#!/usr/bin/env python3
"""The repo benchmark.

    python3 perf/run.py                     # every workload, untraced then traced
    python3 perf/run.py --smoke             # the same, each run a few seconds
    python3 perf/run.py --workload closed_inproc --seed 7 --seconds 20 --trace 0

With ``--workload`` one run is made and its result is the last line of
standard output: one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Without
it every workload runs twice, untraced and traced, each time in a fresh
interpreter (so imports and peak RSS are each run's own); every metric
is printed by name and unit, and the results are written to
``perf/out/suite.json`` for ``perf/compare.py``.
A run whose correctness gate failed exits non-zero.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

#: Fresh interpreters started to time "process start -> imports done".
IMPORT_PROBES = 5

#: A single run is abandoned (children reaped, data removed) after this
#: long, whatever it was doing; the suite gives each run a little more.
HARD_TIMEOUT_S = 150.0

class HardTimeout(SystemExit):
    """Raised by SIGALRM. A ``SystemExit`` so that asyncio lets it out
    of the event loop instead of parking it in a task."""


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload and print its result line")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = install the per-layer span hooks")
    parser.add_argument("--smoke", action="store_true", help="small units, about 2 s of measuring per run, same metric names")
    parser.add_argument("--runs", type=int, default=1, help="suite: runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--output", type=Path, default=OUT / "suite.json", help="suite: where the results go")
    return parser.parse_args(argv)


# -- one run ------------------------------------------------------------------


def import_probe_s() -> list[float]:
    """Wall times of fresh interpreters importing what a run imports:
    the part of set-up that can only be paid once per process."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import workloads"
        % (str(PERF), str(ROOT / "src"))
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - start)
    return samples


def reap_children() -> None:
    """SIGKILL and wait for every site process still running."""
    from repro.rt.proc.supervisor import SPAWNED_PROCESSES

    for child in SPAWNED_PROCESSES:
        if child.poll() is None:
            child.kill()
        child.wait()


def run_one(args: argparse.Namespace, contract: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import_samples = import_probe_s()
    import envprobe
    import metrics
    import workloads
    from spans import SpanRecorder

    if args.workload not in workloads.RUNNERS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.RUNNERS)}", file=sys.stderr)
        return 2
    # A killed site's peers log "socket.send() raised exception" at
    # WARNING for every frame they drop; that is the workload, not news.
    logging.getLogger("asyncio").setLevel(logging.ERROR)
    seconds = args.seconds if args.seconds is not None else (2.0 if args.smoke else contract["run_seconds"])
    data_root = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    recorder = SpanRecorder() if args.trace else None
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        sizes=workloads.SMOKE if args.smoke else workloads.FULL,
        data_root=data_root,
        recorder=recorder,
    )

    def on_alarm(signum, frame):
        # Tearing the loop down mid-flight makes asyncio log every
        # cancelled stream task; one line from us says it all.
        logging.getLogger("asyncio").setLevel(logging.CRITICAL)
        raise HardTimeout(f"{args.workload}: no result within {HARD_TIMEOUT_S:.0f} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_TIMEOUT_S)
    try:
        env = envprobe.probe(data_root)
        if recorder is not None:
            recorder.install()
        try:
            measured = workloads.run(ctx, metrics.undisturbed(import_samples))
        finally:
            if recorder is not None:
                recorder.uninstall()
    except HardTimeout as timeout:
        print(f"TIMEOUT: {timeout}", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        reap_children()
        shutil.rmtree(data_root, ignore_errors=True)
        if data_root.parent.is_dir() and not any(data_root.parent.iterdir()):
            data_root.parent.rmdir()

    measured.per_layer["storage.fsync_probe_ms"] = env["storage.fsync_probe_ms"]
    measured.per_layer["runtime.sleep_overshoot_ms"] = env["runtime.sleep_overshoot_ms"]
    problems = list(measured.gates)
    if recorder is not None and recorder.missing:
        problems.append(f"span hooks no longer resolve, their metrics would read 0: {recorder.missing}")
    end_to_end = _declared(contract["end_to_end"], measured.end_to_end, problems, fill=False)
    per_layer = _declared(contract["per_layer"], measured.per_layer, problems, fill=True)
    correct = measured.correct and not problems

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.traced" if args.trace else args.workload
    if recorder is not None:
        recorder.write_jsonl(OUT / f"{args.workload}.spans.jsonl")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "gates": problems,
        "env": env,
        "end_to_end": end_to_end,
        "per_layer": per_layer if args.trace else {},
        "detail": measured.detail,
        "spans": len(recorder) if recorder is not None else 0,
        "missing_hooks": recorder.missing if recorder is not None else [],
        "wall_s": time.perf_counter() - _PROCESS_STARTED,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    shown = per_layer if args.trace else end_to_end
    print(f"# {args.workload} seed={args.seed} seconds={seconds:g} trace={args.trace}"
          f" attempted={measured.attempted} failed={measured.failed}")
    print(f"# env: {json.dumps(env)}")
    for name, metric in shown.items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": shown,
    }))
    return 0 if correct else 1


def _declared(declared: list[dict], values: dict[str, float], problems: list[str], fill: bool) -> dict:
    """``values`` shaped as BENCHMARK.json declares them: its names, its
    units. With ``fill`` a declared metric the workload never touches
    reads 0 (a layer it bypasses); otherwise its absence is a problem,
    as is any measured name BENCHMARK.json does not declare."""
    shaped = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and not fill:
            problems.append(f"metric {name} was not measured")
        shaped[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
    undeclared = sorted(set(values) - set(shaped))
    if undeclared:
        problems.append(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return shaped


# -- the suite ----------------------------------------------------------------


def run_suite(args: argparse.Namespace, contract: dict) -> int:
    names = [workload["name"] for workload in contract["workloads"]]
    runs, failed = [], []
    started = time.perf_counter()
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            for trace in (0, 1):
                record = _spawn_run(name, seed, trace, args)
                if not record["correct"]:
                    failed.append(f"{name} seed={seed} trace={trace}: {record['gates']}")
                runs.append(record)
    _print_suite(runs, contract)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(
        json.dumps({"schema": "perf-suite/v1", "smoke": args.smoke, "runs": runs}, indent=1),
        encoding="utf-8",
    )
    print(f"\n{len(runs)} runs in {time.perf_counter() - started:.0f} s -> {args.output}")
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


def _spawn_run(name: str, seed: int, trace: int, args: argparse.Namespace) -> dict:
    """One run in a fresh interpreter and its own process group, so a
    run that outlives its own timeout can be killed with its children.
    A run that ends without a result is recorded too, as incorrect and
    without metrics, so that ``compare.py`` sees that it is missing."""
    started = time.perf_counter()

    def no_result(why: str) -> dict:
        return {"workload": name, "seed": seed, "traced": bool(trace), "seconds": args.seconds,
                "correct": False, "attempted": 0, "failed": 0, "gates": [why], "env": {},
                "wall_s": time.perf_counter() - started, "metrics": {}}

    command = [sys.executable, str(PERF / "run.py"), "--workload", name,
               "--seed", str(seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    print(f"... {name} seed={seed} trace={trace}", flush=True)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=HARD_TIMEOUT_S + 20)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        shutil.rmtree(OUT / "tmp", ignore_errors=True)
        return no_result(f"killed after {HARD_TIMEOUT_S + 20:.0f} s without a result")
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return no_result(f"exit code {child.returncode} without a result")
    # The result line is printed after the run's record was saved, so
    # the record on disk is this run's; it holds both metric tables.
    stem = f"{name}.traced" if trace else name
    saved = json.loads((OUT / f"{stem}.json").read_text(encoding="utf-8"))
    tables = {**saved["end_to_end"], **saved["per_layer"]}
    kept = ("workload", "seed", "traced", "seconds", "correct", "attempted",
            "failed", "gates", "env", "wall_s")
    return {
        **{key: saved[key] for key in kept},
        "metrics": {key: value["value"] for key, value in tables.items()},
    }


def _print_suite(runs: list[dict], contract: dict) -> None:
    """Every metric by name and unit, one column per workload (medians
    over the runs of that workload)."""
    names = [workload["name"] for workload in contract["workloads"]]

    def median(workload: str, traced: bool, metric: str):
        values = [r["metrics"][metric] for r in runs
                  if r["workload"] == workload and r["traced"] == traced and metric in r["metrics"]]
        return statistics.median(values) if values else None

    def table(title: str, declared: list[dict], traced: bool) -> None:
        print(f"\n== {title} ==")
        print(f"{'metric':34s} {'unit':8s}" + "".join(f"{name[:18]:>20s}" for name in names))
        for metric in declared:
            cells = [median(name, traced, metric["name"]) for name in names]
            print(f"{metric['name']:34s} {metric['unit']:8s}"
                  + "".join(f"{'-':>20s}" if cell is None else f"{cell:20.4f}" for cell in cells))

    table("end to end (untraced runs)", contract["end_to_end"], False)
    table("per layer (traced runs)", contract["per_layer"], True)
    print(f"\n{'trace_overhead_fraction':34s} {'ratio':8s}", end="")
    for name in names:
        plain, traced = median(name, False, "txn_per_s"), median(name, True, "txn_per_s")
        print(f"{'-':>20s}" if not plain or traced is None else f"{1 - traced / plain:20.4f}", end="")
    print()
    walls = [run["wall_s"] for run in runs]
    print(f"\nlongest run {max(walls):.1f} s, "
          f"gates failed in {sum(not run['correct'] for run in runs)} of {len(runs)} runs")


def main(argv: list[str]) -> int:
    if not (ROOT / "BENCHMARK.json").is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py measures the program in {ROOT / 'src'}; it is not there", file=sys.stderr)
        return 2
    args = parse_args(argv)
    contract = load_contract()
    if args.workload:
        return run_one(args, contract)
    return run_suite(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
