"""What the command line prints, pinned byte for byte.

``tests/data/cli_pins.json`` holds the SHA-256 of the stdout of every
scenario sub-command and figure at a small size, and of every
``--help``.  A refactor of the experiment layer must leave all of them
unchanged: each run is pinned under ``--jobs 1`` *and* ``--jobs 2``
against one hash, so a change that moved both fan-outs alike still
fails.  ``scale`` prints wall-clock columns, so it is pinned by its
``fingerprint :`` line (SHA-256 over the merged outcome stream) at
``--partitions 1`` and ``2``.

``python tests/test_cli_pins.py`` prints the current hashes as JSON,
for a re-pin that a change to results makes deliberate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

PINS_PATH = Path(__file__).parent / "data" / "cli_pins.json"

_SHAPE = ("--servers", "2", "--workers", "4")

#: Every scenario sub-command at a small size; each runs at both fan-outs.
RUNS = {
    "poisson": ["poisson", *_SHAPE, "--queries", "120", "--rho", "0.5", "--rho", "0.9",
                "--policy", "RR", "--policy", "SR4"],
    "wikipedia": ["wikipedia", *_SHAPE, "--duration", "2", "--static-per-wiki", "0.2"],
    "resilience": ["resilience", "--servers", "3", "--workers", "4", "--queries", "100"],
    "flash-crowd": ["flash-crowd", *_SHAPE, "--baseline-duration", "2",
                    "--spike-duration", "1", "--recovery-duration", "2", "--bin-width", "1",
                    "--policy", "RR", "--policy", "SR4"],
    "heterogeneous-fleet": ["heterogeneous-fleet", "--fast", "1", "--slow", "2",
                            "--workers", "4", "--queries", "80", "--rho", "0.6",
                            "--rho", "0.9", "--policy", "RR", "--policy", "SR4"],
    "autoscale": ["autoscale", "--workers", "4", "--cores", "1", "--min-servers", "2",
                  "--max-servers", "3", "--period", "20", "--duration", "20",
                  "--slo-p99", "3"],
    "heavy-tail": ["heavy-tail", *_SHAPE, "--arrivals", "60", "--users", "200"],
    "adversarial": ["adversarial", "--servers", "3", "--workers", "4", "--lbs", "2",
                    "--queries", "80", "--flood-sources", "4", "--collision-flows", "16"],
    "chaos": ["chaos", "--servers", "3", "--workers", "4", "--queries", "80"],
    "chaos --telemetry": ["chaos", "--servers", "3", "--workers", "4", "--queries", "80",
                          "--mode", "baseline", "--mode", "loss", "--telemetry"],
    "figure 2": ["figure", "2", *_SHAPE, "--queries", "80", "--points", "2"],
    "figure 3": ["figure", "3", *_SHAPE, "--queries", "80"],
    "figure 4": ["figure", "4", *_SHAPE, "--queries", "80"],
    "figure 5": ["figure", "5", *_SHAPE, "--queries", "80"],
    "figure 6": ["figure", "6", *_SHAPE, "--duration", "2"],
    "figure 7": ["figure", "7", *_SHAPE, "--duration", "2"],
    "figure 8": ["figure", "8", *_SHAPE, "--duration", "2"],
}

SCALE = ["scale", *_SHAPE, "--queries", "200", "--pods", "2"]

#: What prints without running a family.
STATIC = {
    "scenarios": ["scenarios"],
    "scenarios --json": ["scenarios", "--json"],
    "calibrate": ["calibrate", "--servers", "6"],
}


def _sub_commands():
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return list(subparsers.choices)


def _stdout(argv):
    """``(exit status, stdout)`` of ``main(argv)``; ``--help`` exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            status = main(argv)
        except SystemExit as exit_:
            status = exit_.code
    return status, out.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(stdout):
    (line,) = re.findall(r"^fingerprint\s*: [0-9a-f]{64}$", stdout, re.MULTILINE)
    return line.split(": ")[1]


def _help_argvs():
    return {"--help": ["--help"], **{f"{name} --help": [name, "--help"] for name in _sub_commands()}}


def current_pins():
    """Every pinned hash as this tree prints it (the ``--jobs 1`` run's)."""
    pins = {}
    for name, argv in {**RUNS, **STATIC}.items():
        pins[name] = _sha(_stdout(argv + (["--jobs", "1"] if name in RUNS else []))[1])
    pins["scale"] = _fingerprint(_stdout(SCALE + ["--partitions", "1"])[1])
    for name, argv in _help_argvs().items():
        pins[name] = _sha(_stdout(argv)[1])
    return pins


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help to the terminal width; pin it.
    monkeypatch.setenv("COLUMNS", "100")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", list(RUNS))
def test_a_run_prints_its_pinned_bytes(pins, name, jobs):
    status, stdout = _stdout(RUNS[name] + ["--jobs", jobs])
    assert status == 0
    assert _sha(stdout) == pins[name]


@pytest.mark.parametrize("partitions", ["1", "2"])
def test_scale_prints_its_pinned_fingerprint(pins, partitions):
    status, stdout = _stdout(SCALE + ["--partitions", partitions])
    assert status == 0
    assert _fingerprint(stdout) == pins["scale"]


@pytest.mark.parametrize("name", list(STATIC))
def test_a_listing_prints_its_pinned_bytes(pins, name):
    status, stdout = _stdout(STATIC[name])
    assert status == 0
    assert _sha(stdout) == pins[name]


def test_every_help_prints_its_pinned_bytes(pins):
    helps = _help_argvs()
    assert set(helps) == {name for name in pins if name.endswith("--help")}
    for name, argv in helps.items():
        status, stdout = _stdout(argv)
        assert status == 0, name
        assert _sha(stdout) == pins[name], name


if __name__ == "__main__":
    os.environ["COLUMNS"] = "100"
    print(json.dumps(current_pins(), indent=2))
