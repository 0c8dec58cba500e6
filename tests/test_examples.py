"""The examples run: each script of ``examples/`` end to end, at its
smallest flags, in a fresh interpreter (as a reader would run it), and
the quick start of the ``repro`` package docstring."""

from __future__ import annotations

import doctest
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(repro.__file__).parents[1])

#: Each example, the flags that make it smallest, and a line of the table
#: it must print.
EXAMPLES = (
    ("quickstart.py", (), "Poisson workload, ρ = 0.85"),
    ("custom_policy.py", (), "custom acceptance policies"),
    ("service_hunting_walkthrough.py", (), "Packet exchange for one query"),
    ("poisson_sweep.py", ("--queries", "200", "--points", "2"), "Figure 2"),
    ("wikipedia_replay.py", ("--duration", "40"), "Figure 6"),
)


def test_every_example_is_listed():
    assert sorted(name for name, _, _ in EXAMPLES) == sorted(
        path.name for path in (ROOT / "examples").glob("*.py")
    )


@pytest.mark.parametrize(
    "script, flags, table", EXAMPLES, ids=[name for name, _, _ in EXAMPLES]
)
def test_example_runs_and_prints_its_table(script, flags, table):
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *flags],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert table in done.stdout


def test_the_package_quick_start_runs():
    # The library's documented first call: ``repro``'s docstring, 500 queries.
    results = doctest.testmod(repro)
    assert results.attempted > 0 and results.failed == 0
