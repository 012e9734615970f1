"""The experiment row: what a measured experiment declares, and the one
runner, result and renderer every experiment shares.

An :class:`Experiment` is a grid of cells (one dict of parameters each,
built from keyword arguments that tests shrink), a ``measure(cell,
seed)`` that runs one cell in the simulator and returns what it
measured, the table columns that show it and the claims the experiment
makes about it. The rows themselves live in the experiment modules;
:data:`repro.experiments.EXPERIMENTS` is the table, in the order
``repro all`` runs it, and :mod:`repro.bench.scenarios` pins every
row's measured values in ``BENCH_sim.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Optional

from repro.analysis.report import render_table
from repro.errors import ReproError

#: A cell's parameters: the row's :attr:`Experiment.key` fields plus
#: whatever else its ``measure`` reads.
Cell = dict[str, Any]

def yes_no(ok: bool) -> str:
    """The ``correct``-style column: ``yes``, or a loud ``NO``."""
    return "yes" if ok else "NO"


def verdict(theorem: str, result: "ExperimentResult") -> str:
    """A theorem's closing line: demonstrated when every claim holds."""
    return f"{theorem} {'DEMONSTRATED' if result.holds else 'NOT demonstrated'}"


@dataclass(frozen=True)
class Column:
    """One table column: its header, the row field it shows and how
    (without ``format``, as :func:`render_table` formats the value)."""

    header: str
    field: str
    format: Optional[Callable[[Any], str]] = None

    def show(self, row: SimpleNamespace) -> Any:
        """This column's cell of ``row``."""
        value = getattr(row, self.field)
        return value if self.format is None else self.format(value)


@dataclass(frozen=True)
class Claim:
    """A shape the experiment asserts over its rows.

    ``note`` is the label of the line printed under the table
    (``"<note>: True"``); a claim without one is checked, not printed.
    """

    name: str
    holds: Callable[["ExperimentResult"], bool]
    note: str = ""


@dataclass(frozen=True)
class Experiment:
    """One measured experiment: a row of the table.

    Attributes:
        name: the ``repro`` subcommand (``theorem<N>`` is reached as
            ``repro theorem N``); the bench row is ``experiment-<name>``.
        artifact: the paper-artifact id (``C1``, ``T2``, ...).
        title: the table heading after ``"<artifact> — "``.
        seed: the seed ``repro`` runs it at unless ``--seed`` is given.
        grid: keyword parameters → the cells, in table order.
        key: the cell fields that name a cell: what :meth:`point`
            matches and what the bench detail's labels are made of.
        measure: ``(cell, seed) -> measured values``; one of them is
            ``steps``, the cell's kernel steps.
        columns: the table; a row without columns prints none.
        claims: what the experiment asserts; the bench row's gate is
            that every one holds.
        sections: what prints after the table (charts, a verdict), as
            blocks separated by a blank line.
    """

    name: str
    artifact: str
    title: str
    seed: int
    grid: Callable[..., list[Cell]]
    key: tuple[str, ...]
    measure: Callable[[Cell, int], dict[str, Any]]
    columns: tuple[Column, ...] = ()
    claims: tuple[Claim, ...] = ()
    sections: Optional[Callable[["ExperimentResult"], list[str]]] = None

    @property
    def heading(self) -> str:
        return f"{self.artifact} — {self.title}"

    def run(self, seed: Optional[int] = None, **grid: Any) -> "ExperimentResult":
        """Measure every cell of ``grid(**grid)`` at ``seed`` (default:
        the row's own)."""
        seed = self.seed if seed is None else seed
        rows: list[SimpleNamespace] = []
        detail: dict[str, dict[str, Any]] = {}
        for cell in self.grid(**grid):
            measured = self.measure(cell, seed)
            label = " / ".join(str(cell[field]) for field in self.key)
            if label in detail:
                raise ReproError(f"{self.name}: two cells are labelled {label!r}")
            rows.append(SimpleNamespace(**cell, **measured))
            detail[label] = measured
        return ExperimentResult(self, rows, detail)


@dataclass(frozen=True)
class ExperimentResult:
    """One run of an experiment: a row per cell, its parameters and its
    measured values as attributes, and ``detail``, the measured values
    alone by cell label."""

    experiment: Experiment
    rows: list[SimpleNamespace]
    detail: dict[str, dict[str, Any]]

    def point(self, *key: Any) -> SimpleNamespace:
        """The row whose :attr:`Experiment.key` fields equal ``key``."""
        fields = self.experiment.key
        for row in self.rows:
            if tuple(getattr(row, field) for field in fields) == key:
                return row
        raise KeyError(key)

    def claim(self, name: str) -> bool:
        """Whether the claim called ``name`` holds."""
        for claim in self.experiment.claims:
            if claim.name == name:
                return claim.holds(self)
        raise KeyError(name)

    @property
    def holds(self) -> bool:
        """Every claim holds."""
        return all(claim.holds(self) for claim in self.experiment.claims)

    @property
    def steps(self) -> int:
        """Kernel steps of every cell, summed."""
        return sum(row.steps for row in self.rows)

    def render(self) -> str:
        """The table with its claims' notes under it, then the sections."""
        experiment = self.experiment
        blocks = []
        if experiment.columns:
            table = render_table(
                [column.header for column in experiment.columns],
                [
                    [column.show(row) for column in experiment.columns]
                    for row in self.rows
                ],
                title=experiment.heading,
            )
            notes = [
                f"{claim.note}: {claim.holds(self)}"
                for claim in experiment.claims
                if claim.note
            ]
            blocks.append("\n".join([table, *notes]))
        if experiment.sections is not None:
            blocks.extend(experiment.sections(self))
        return "\n\n".join(blocks)
