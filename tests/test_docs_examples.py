"""The docs' fenced ``repro`` commands must actually parse.

Guards against quickstart drift: every ``python -m repro ...`` command
inside a fenced code block in README.md, EXPERIMENTS.md and the
operator docs (docs/LIVE.md, docs/DEPLOYMENT.md, docs/BENCHMARKS.md)
is checked against the real CLI — the subcommand must exist
(``--help`` exits 0) and every long flag the doc shows must appear in
the help text of the parser that owns it: the top-level ``repro``
parser for the flags before the subcommand, the subcommand's for the
rest. Console transcripts (``$ python -m repro ...``) count too. A
small set of commands additionally runs end to end in smoke form.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every document whose fenced ``repro`` invocations are contract, not
#: prose. A stale example here failed CI once (pre-PR-6 invocations
#: survived two releases in EXPERIMENTS.md) — add new docs to the list.
DOCS = [
    "README.md",
    "EXPERIMENTS.md",
    "docs/LIVE.md",
    "docs/DEPLOYMENT.md",
    "docs/BENCHMARKS.md",
]

_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}


def fenced_repro_commands(doc: Path) -> list[str]:
    """Every `python -m repro ...` command line in ``doc``'s code fences.

    Handles both plain ``bash`` fences and ``console`` transcripts
    (leading ``$ ``); trailing ``# comment`` tails are stripped.
    """
    commands = []
    in_fence = False
    for raw in doc.read_text(encoding="utf-8").splitlines():
        if raw.startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        line = raw.split(" # ")[0].strip()
        if line.startswith("$ "):
            line = line[2:]
        if line.startswith("python -m repro"):
            commands.append(line)
    return commands


COMMANDS = sorted(
    {
        (doc, command)
        for doc in DOCS
        for command in fenced_repro_commands(REPO_ROOT / doc)
    }
)


def run_repro(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_ENV,
        timeout=300,
    )


def test_docs_actually_contain_repro_commands():
    # The extraction itself must not silently go stale.
    readme = [c for d, c in COMMANDS if d == "README.md"]
    assert len(readme) >= 8
    assert any("explore" in c for c in readme)
    assert any("bench" in c for c in readme)
    assert any("live" in c for c in readme)
    # The operator docs carry the live/multiprocess/sharded surface.
    rest = [c for d, c in COMMANDS if d != "README.md"]
    assert any("--multiprocess" in c for c in rest)
    assert any("--sharded" in c for c in rest)


@pytest.mark.parametrize(
    "doc,command", COMMANDS, ids=[f"{d}:{c[len('python -m '):]}" for d, c in COMMANDS]
)
def test_fenced_command_parses(doc, command):
    tokens = command.split()
    assert tokens[:3] == ["python", "-m", "repro"]
    rest = tokens[3:]
    # Global options (--seed N) come before the subcommand and belong to
    # the top-level parser; the rest belong to the subcommand's.
    index = 0
    while index < len(rest) and rest[index].startswith("-"):
        index += 2
    assert index < len(rest), f"no subcommand in {command!r}"
    subcommand = rest[index]
    result = run_repro(subcommand, "--help")
    assert result.returncode == 0, (
        f"{doc} documents `repro {subcommand}` but it fails --help: "
        f"{result.stderr}"
    )
    owners = [(f"repro {subcommand}", result.stdout, rest[index + 1 :])]
    if index:
        top = run_repro("--help")
        assert top.returncode == 0, top.stderr
        owners.append(("repro", top.stdout, rest[:index]))
    for owner, help_text, tokens in owners:
        for flag in (t.split("=")[0] for t in tokens if t.startswith("--")):
            assert flag in help_text, (
                f"{doc} shows {flag} for `{owner}`, "
                f"but its --help does not mention it"
            )


def table_flags(doc: Path, command_heading: str) -> set[str]:
    """Long flags named in the first column of ``doc``'s flag→runtime
    table under the ``### `command_heading``` section."""
    flags: set[str] = set()
    in_section = False
    for raw in (REPO_ROOT / doc).read_text(encoding="utf-8").splitlines():
        if raw.startswith("### "):
            in_section = command_heading in raw
            continue
        if not in_section or not raw.startswith("|"):
            continue
        first_cell = raw.split("|")[1]
        for token in first_cell.replace("`", " ").replace(",", " ").split():
            if token.startswith("--") and token.strip("-"):
                flags.add(token.split("=")[0])
    return flags


class TestFlagDrift:
    """docs/DEPLOYMENT.md's flag→runtime table vs the real parser.

    Both directions: every flag the table documents must exist in
    ``repro live --help``, and every flag the parser grew must be
    documented in the table — a new mode flag (e.g. ``--replicated``)
    that skips the operator docs is drift, not an implementation
    detail.
    """

    def live_help(self) -> str:
        result = run_repro("live", "--help")
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_every_documented_live_flag_parses(self):
        documented = table_flags("docs/DEPLOYMENT.md", "python -m repro live")
        assert documented, "DEPLOYMENT.md live flag table not found"
        help_text = self.live_help()
        undocumented = sorted(f for f in documented if f not in help_text)
        assert not undocumented, (
            f"DEPLOYMENT.md documents live flags the CLI lacks: {undocumented}"
        )

    def test_every_live_parser_flag_is_documented(self):
        import re

        documented = table_flags("docs/DEPLOYMENT.md", "python -m repro live")
        # Everything an operator can pass to `repro live` must be in
        # the table.
        exempt = {"--help"}
        parser_flags = set(re.findall(r"--[a-z][a-z-]*", self.live_help()))
        undocumented = sorted(parser_flags - documented - exempt)
        assert not undocumented, (
            f"`repro live` grew flags DEPLOYMENT.md does not document: "
            f"{undocumented}"
        )

    def loadgen_help(self) -> str:
        result = run_repro("loadgen", "--help")
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_every_documented_loadgen_flag_parses(self):
        documented = table_flags("docs/DEPLOYMENT.md", "python -m repro loadgen")
        assert documented, "DEPLOYMENT.md loadgen flag table not found"
        help_text = self.loadgen_help()
        undocumented = sorted(f for f in documented if f not in help_text)
        assert not undocumented, (
            f"DEPLOYMENT.md documents loadgen flags the CLI lacks: "
            f"{undocumented}"
        )

    def test_every_loadgen_parser_flag_is_documented(self):
        import re

        documented = table_flags("docs/DEPLOYMENT.md", "python -m repro loadgen")
        exempt = {"--help"}
        parser_flags = set(re.findall(r"--[a-z][a-z-]*", self.loadgen_help()))
        undocumented = sorted(parser_flags - documented - exempt)
        assert not undocumented, (
            f"`repro loadgen` grew flags DEPLOYMENT.md does not document: "
            f"{undocumented}"
        )

    def test_codec_flag_reaches_both_live_subcommands(self):
        # The codec seam is part of the deployment surface: both live
        # front ends advertise it, with the same two choices.
        for subcommand in ("live", "loadgen"):
            result = run_repro(subcommand, "--help")
            assert result.returncode == 0
            assert "--codec" in result.stdout
            assert "{json,binary}" in result.stdout

    def test_replicated_flag_reaches_both_subcommands(self):
        # The replicated topology is part of the deployment surface:
        # list output, live and explore all advertise it.
        for subcommand in ("live", "explore"):
            result = run_repro(subcommand, "--help")
            assert result.returncode == 0
            assert "--replicated" in result.stdout
        assert "--replicated" in run_repro("list").stdout


class TestSmokeRuns:
    """A few commands cheap enough to execute for real."""

    def test_list(self):
        result = run_repro("list")
        assert result.returncode == 0
        assert "bench" in result.stdout and "explore" in result.stdout

    def test_theorem_1(self):
        result = run_repro("theorem", "1")
        assert result.returncode == 0

    def test_figure_f1a(self):
        result = run_repro("figure", "F1a")
        assert result.returncode == 0

    def test_bench_smoke(self, tmp_path):
        result = run_repro(
            "bench",
            "--scenario",
            "kernel-dispatch",
            "--smoke",
            "--output",
            str(tmp_path / "BENCH_sim.json"),
        )
        assert result.returncode == 0, result.stderr
