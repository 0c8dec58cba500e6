"""What ``src/`` keeps: a name that something in ``src/`` reaches, and one
way to run a family.

The census counts, for every top-level function and class and every
method of a top-level class, the whole-word occurrences of its name in
the text of ``src/``.  A name seen once — at its own definition — is run
by nothing in the package: it is deleted, moved into the test that uses
it, or listed in :data:`ALLOWED` with the reason it stays.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections import Counter

import repro
from repro.experiments.scenario import ScenarioSpec

SRC = pathlib.Path(repro.__file__).parent

#: Definitions nothing in ``src/`` names, and why each stays.
ALLOWED = {
    "BatchFrame": "benchmarks/perf times its pickling (net.frame_roundtrip_ns_per_item)",
    "Simulator.batch_stats": "benchmarks/perf/tracing.py reads it (sim.batch_mean_size)",
    "Scoreboard.mark_idle": "benchmarks/perf/micro.py times it (server.scoreboard_toggle_ns)",
    "LANFabric.detach_node": (
        "the only writer of packets_dropped_sink_detached, a fabric drop reason "
        "and telemetry series"
    ),
    "LANFabric.add_tap": (
        "the packet hook examples/service_hunting_walkthrough.py prints the hunt with"
    ),
    "Scoreboard.mean_busy": (
        "reads the busy-time integral the replay hot path keeps on every toggle; "
        "the two leave together, in a hot-path change"
    ),
    "StaticThresholdPolicy.acceptance_ratio": (
        "reads the accept counters the replay hot path keeps per offer; "
        "the two leave together, in a hot-path change"
    ),
}


def _sources():
    return {path: path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))}


def _definitions(tree):
    """``(qualified name, bare name)`` of the census's definitions."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    yield f"{node.name}.{child.name}", child.name


def _unreferenced():
    sources = _sources()
    words = Counter()
    for text in sources.values():
        words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return {
        qualified
        for text in sources.values()
        for qualified, name in _definitions(ast.parse(text))
        if not (name.startswith("__") and name.endswith("__")) and words[name] == 1
    }


def test_src_keeps_no_name_that_nothing_runs():
    assert _unreferenced() - set(ALLOWED) == set()


def test_every_allow_listed_name_is_still_unreferenced():
    # A name that gained a caller leaves the list.
    assert set(ALLOWED) <= _unreferenced()


# ----------------------------------------------------------------------
# one way to run a family
# ----------------------------------------------------------------------
def test_a_spec_has_only_the_hooks_run_scenario_calls():
    assert ScenarioSpec.__abstractmethods__ == {
        "smoke_config",
        "cells",
        "make_trace",
        "run_once",
    }


def _calls(node, name):
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == name
    ]


def test_run_scenario_is_the_only_entry_point_and_specs_build_the_testbeds():
    modules = sorted((SRC / "experiments").glob("*_experiment.py"))
    assert len(modules) == 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            where = f"{path.name}:{node.name}"
            assert not _calls(node, "run_scenario"), f"{where} is a second entry point"
            is_spec = isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "ScenarioSpec"
                for base in node.bases
            )
            if not is_spec and node.name != "simulate_pod":
                assert not _calls(node, "build_testbed"), f"{where} is a second run path"


# ----------------------------------------------------------------------
# a finished run frees its testbed
# ----------------------------------------------------------------------
def test_every_built_testbed_is_released_by_a_with_block():
    """``with build_testbed(...) as testbed:`` is the only way ``src/`` builds one.

    The block closes the testbed when the run is done, which cuts the
    cycles that would keep it (and its LB flow tables) resident until a
    garbage-collection pass.
    """
    callers = []
    for path, text in _sources().items():
        tree = ast.parse(text)
        released = {
            id(item.context_expr)
            for node in ast.walk(tree)
            if isinstance(node, ast.With)
            for item in node.items
        }
        for call in _calls(tree, "build_testbed"):
            where = f"{path.relative_to(SRC)}:{call.lineno}"
            callers.append(where)
            assert id(call) in released, f"{where} builds a testbed outside a with block"
    assert len(callers) >= 11  # every family, the scale pod and calibration
