"""The bench reports: golden files of counts.

Each suite has one committed report at the repo root —
``BENCH_sim.json`` for the simulator rows, ``BENCH_live.json`` for the
live rows — holding only what a rerun reproduces byte for byte: per row
its description, seed, tags, ``events``, ``checks_passed`` and every
counter that is a pure function of the seed. Nothing in it was timed;
wall-clock claims belong to ``perf/`` (``BENCHMARK.json``). The schema
is versioned (:data:`SCHEMA_VERSION`); readers reject files whose
``schema`` field they do not understand rather than guess.

Shape (see docs/BENCHMARKS.md for the field reference)::

    {
      "schema": "repro-bench/v2",
      "smoke": false,
      "scenarios": {
        "kernel-dispatch": {
          "description": "...", "seed": 7, "tags": ["micro", "kernel"],
          "events": 200099, "trace_events": 0, "messages": 0,
          "checks_passed": true,
          "detail": {"target_events": 200000, "callbacks_fired": 200099}
        }, ...
      }
    }

``repro bench --check`` has one rule for every row of both suites:
the fresh entry equals the committed one (:func:`count_diff`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.bench.rows import Scenario, ScenarioResult
from repro.errors import ReproError

#: Bump when a field changes meaning, a scenario seed changes, or a
#: scenario's workload is resized — anything that breaks comparability.
SCHEMA_VERSION = "repro-bench/v2"


def build_report(
    results: list[tuple[Scenario, ScenarioResult]], smoke: bool = False
) -> dict[str, Any]:
    """Assemble the schema-versioned report dict from one run per row."""
    scenarios: dict[str, Any] = {}
    for scenario, result in results:
        entry = {
            "description": scenario.description,
            "seed": scenario.seed,
            "tags": scenario.tags,
            "events": result.events,
            "trace_events": result.trace_events,
            "messages": result.messages,
            "checks_passed": result.checks_passed,
            "detail": result.detail,
        }
        scenarios[scenario.name] = {
            key: value for key, value in entry.items() if value is not None
        }
    report = {"schema": SCHEMA_VERSION, "smoke": smoke, "scenarios": scenarios}
    # Through JSON, so that what --check compares is what a file holds
    # (tuples become lists).
    return json.loads(json.dumps(report))


def write_report(report: dict[str, Any], path: Path | str) -> Path:
    """Write the report as stable, human-diffable JSON."""
    errors = validate_report(report)
    if errors:
        raise ReproError(
            "refusing to write an invalid bench report: " + "; ".join(errors)
        )
    path = Path(path)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_report(path: Path | str) -> dict[str, Any]:
    """Load and validate a report; raise on schema mismatch."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read bench report {path}: {exc}") from exc
    errors = validate_report(report)
    if errors:
        raise ReproError(f"invalid bench report {path}: " + "; ".join(errors))
    return report


def load_baseline(path: Path | str, smoke: bool) -> dict[str, Any]:
    """Load the report a ``--check`` run of size ``smoke`` compares
    against.

    Raises:
        ReproError: the file holds counts of the other workload size
            (``--smoke`` against a full-size file), where no row could
            be equal.
    """
    baseline = load_report(path)
    sizes = {True: "smoke", False: "full"}
    if baseline.get("smoke") is not smoke:
        raise ReproError(
            f"{path} holds {sizes[bool(baseline.get('smoke'))]}-size counts "
            f"and this run is {sizes[smoke]}-size; counts are only equal at "
            "equal sizes"
        )
    return baseline


def validate_report(report: Any) -> list[str]:
    """Structural validation; returns human-readable problems (empty =
    valid). A row whose correctness gate failed makes the report
    invalid: a golden file never records a broken run."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema is {report.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        problems.append("scenarios section missing or empty")
        return problems
    for name, entry in scenarios.items():
        if not isinstance(entry, dict):
            problems.append(f"scenario {name!r} is not an object")
        elif entry.get("checks_passed") is not True:
            problems.append(f"scenario {name!r}: checks_passed is not true")
    return problems


def _fields(value: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """``value``'s leaves by dotted path (``detail.kernel_steps``)."""
    if isinstance(value, dict) and value:
        for key, inner in value.items():
            yield from _fields(inner, f"{path}.{key}" if path else key)
    else:
        yield path, value


def count_diff(
    current: dict[str, Any], baseline: dict[str, Any], whole_suite: bool = True
) -> list[str]:
    """Every way ``current`` differs from ``baseline``, one line each,
    naming the row and the field; empty when the runs are equal.

    Rows are compared field by field, exactly. A row run now and absent
    from the baseline is a difference; a baseline row not run now is
    one only when ``whole_suite`` (a partial ``--scenario`` selection
    legitimately skips the rest).
    """
    lines: list[str] = []
    ran, committed = current["scenarios"], baseline["scenarios"]
    for name, entry in ran.items():
        if name not in committed:
            lines.append(f"{name}: run now, absent from the baseline")
            continue
        now, then = dict(_fields(entry)), dict(_fields(committed[name]))
        for field in sorted(now.keys() | then.keys()):
            if field not in then:
                lines.append(
                    f"{name}: {field} is {now[field]!r}, baseline has no such field"
                )
            elif field not in now:
                lines.append(
                    f"{name}: {field} is {then[field]!r} in the baseline, "
                    "not reported now"
                )
            elif now[field] != then[field]:
                lines.append(
                    f"{name}: {field} is {now[field]!r}, baseline {then[field]!r}"
                )
    if whole_suite:
        lines.extend(
            f"{name}: in the baseline, not in the table"
            for name in committed
            if name not in ran
        )
    return lines
