"""One seed path: a family's trace comes from its ``workload_seed`` alone.

Every family draws its trace from
:func:`~repro.experiments.scenario.trace_rng`, so the config's
``workload_seed`` (checked where it enters) decides the trace and the
testbed's ``seed`` does not.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.experiments
from repro.errors import ExperimentError
from repro.experiments import registry

FAMILIES = [row.name for row in registry.families()]

#: The only functions under ``experiments/`` that may make a generator:
#: the trace seed's one composition, and the calibration probe's traces
#: (seeded from ``_PROBE_SEED`` and the probe's rate, not a family's).
ALLOWED_RNG_CALLERS = {("scenario.py", "trace_rng"), ("calibration.py", "_probe_drops")}


@pytest.mark.parametrize("name", FAMILIES)
def test_a_negative_workload_seed_is_refused_when_the_config_is_made(name):
    with pytest.raises(ExperimentError, match="workload_seed must be a non-negative integer"):
        registry.family(name).config(workload_seed=-1)


def _first_trace(spec, config):
    trace = spec.make_trace(config, spec.cells(config)[0])
    return trace.request_ids, trace.arrival_times, trace.service_demands, trace.kind_codes


def _same(first, second) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(first, second))


@pytest.mark.parametrize("name", FAMILIES)
def test_the_trace_follows_the_workload_seed_and_only_it(name):
    # The first cell: a policy, a mode, a load factor or scale's pod 0.
    spec = registry.get(name)
    config = spec.smoke_config()
    trace = _first_trace(spec, config)
    reseeded = replace(config, workload_seed=config.workload_seed + 1)
    assert not _same(_first_trace(spec, reseeded), trace)
    testbed = replace(config.testbed, seed=config.testbed.seed + 1)
    assert _same(_first_trace(spec, replace(config, testbed=testbed)), trace)


#: The numpy calls that make a generator or a seed for one.
RNG_MAKERS = {"default_rng", "RandomState", "SeedSequence"}


def _rng_calls(node, scope="<module>"):
    """``(innermost enclosing function, line)`` of every generator made under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _rng_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            callee = child.func
            if getattr(callee, "attr", getattr(callee, "id", None)) in RNG_MAKERS:
                yield scope, child.lineno
        yield from _rng_calls(child, scope)


def test_only_trace_rng_and_the_calibration_probe_make_a_generator():
    package = Path(repro.experiments.__file__).parent
    found = {
        (path.name, function, line)
        for path in sorted(package.glob("*.py"))
        for function, line in _rng_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    stray = sorted(entry for entry in found if entry[:2] not in ALLOWED_RNG_CALLERS)
    assert not stray, f"a generator made outside trace_rng: {stray}"
    assert {entry[:2] for entry in found} == ALLOWED_RNG_CALLERS
