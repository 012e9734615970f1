"""A trace must not depend on the interpreter's string-hash seed.

Sets of site ids iterate in hash order, which ``PYTHONHASHSEED``
changes from one interpreter to the next. Any send loop over such a set
leaks that order into the trace, and a replayed artifact then matches
on one machine and not on another. Explorer seeds 6 and 8 (prany,
salt 0) re-send a recovered decision to two participants.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

DIGESTS = """
from repro.explore.adversary import AdversaryGenerator
from repro.explore.runner import run_scenario
generator = AdversaryGenerator()
for seed in (6, 8):
    print(seed, run_scenario(generator.generate(seed)).trace_sha256)
"""


def digests_under(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", DIGESTS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_explorer_digests_ignore_the_hash_seed():
    first = digests_under("0")
    assert first.count("\n") == 2
    assert digests_under("2") == first
