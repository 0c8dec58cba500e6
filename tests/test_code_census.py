"""What ``src/`` keeps: a name that code in ``src/`` reaches, a parameter
that some caller passes, and one way to run a family.

**Names.**  For every top-level function and class and every method of a
top-level class, the census looks for a *code* reference in ``src/``
outside the definition itself: an AST ``Name`` or ``Attribute`` load, or
a ``from ... import`` of it, matched by bare name.  A method is reached
only by an attribute load ``.name``: a bare ``Name`` of the same word is
a local or a function, and an import is a module's name.  Reads are
matched by bare attribute name, so a load of ``.name`` on any object
keeps every class's method of that name.  Docstrings, comments and
other strings do not count.
Neither does a reference made only from inside a definition the census
has already found dead: it runs to a fixed point, so a helper that only
a dead class calls is reported with the class.  A reported name is
deleted together with the tests that test only it, or listed in
:data:`ALLOWED` under one of the :data:`REASONS`.

**Knobs.**  A defaulted parameter of a function or method in ``src/``
that no call in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
passes — by keyword, by position, or through ``*``/``**`` — is a knob
nobody turns: it becomes a constant or is inlined.  Calls are matched by
the callee's bare name (a call of the class or a subclass, ``cls(...)``
in the class body and any ``__init__(...)`` call match a class's
``__init__``), so a knob reported here is confirmed by a grep before it
goes.

**Config fields.**  A field of a dataclass in
``repro/experiments/config.py`` is alive only if a flag exposes it — its
``param(...)`` declares a flag, or a nested config's ``expose=`` names
it — or a call in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
sets it: a keyword (or a position) in a call of its class, or a keyword
of a ``replace`` call (matched by bare name, whatever the object).  A
value nothing sets is a constant of the module that reads it.

**Counters.**  An attribute that ``src/`` increments (``x.attr += ...``)
must be read: loaded somewhere in ``src/`` (matched by bare name), or be
a field of a dataclass that ``src/`` passes to ``asdict``.  A count
nothing reads costs a write per event and says nothing; it is deleted,
or listed in :data:`ALLOWED_COUNTERS` under one of the :data:`REASONS`.

**Execution.**  Naming a function is not running it.  ``python
tests/test_code_census.py --exec`` (``make census-exec``, a CI step: it
takes about half a minute, too long for tier-1) traces the product
paths (:func:`product_paths`) with call events only and reports every
function or method of ``src/`` none of them ran.  A code object that
ran is matched to its ``def`` by file and first line, so a property's
setter (``Class.name.setter``) is told from its getter.  Dunders,
interface stubs and implementations of an ``@abstractmethod`` are
exempt; the rest is listed in :data:`ALLOWED` under one of the
:data:`REASONS` or deleted with the tests that test only it.  What only
a kept function calls is kept with it, and callers are matched by bare
name as in the name census, so a helper that only a ``__repr__`` reads
still needs its own row when another class reads an attribute of the
same name.  The tests below check the tracer's rules on made-up modules.

**One name per object.**  A package ``__init__`` is its docstring alone,
and every ``from repro… import`` names the module that defines the
object, never one that only imported it.

``python tests/test_code_census.py`` (``make census``) prints the four
name-census reports, with where each unreferenced name is still reached
outside ``src/``.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib.util
import io
import pathlib
import runpy
import sys
import tempfile
import textwrap
import traceback
from collections import defaultdict

import pytest

import repro
from repro.experiments.scenario import ScenarioSpec

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parents[1]
PERF = ROOT / "benchmarks" / "perf"
CONFIG = SRC / "experiments" / "config.py"

#: The only reasons a definition nothing in ``src/`` reaches may stay.
EXAMPLES = "the examples' public API"
SMOKE = "the smoke_config protocol"
CLOSED_FORM = "a closed form a tier-1 oracle compares the simulator against"
REACHED_BY_PERF = "reached by benchmarks/perf; it goes with the benchmark's next edition"
GOLDENS = "the chaos goldens' fingerprint"
WITNESS = "a test's witness that a path ran (or did not)"
WORKER = "runs only when cells go to worker processes; the named tier-1 test runs it there"
MODEL = "a model a config selects and no flag reaches; the named test and benchmark select it"
GUARD = "safety code, or a guard's message, that a product path reaches only when something goes wrong"
REASONS = (EXAMPLES, SMOKE, CLOSED_FORM, REACHED_BY_PERF, GOLDENS, WITNESS, WORKER, MODEL, GUARD)

#: Definitions nothing in ``src/`` reaches, or no product path runs, and
#: why each stays: one of :data:`REASONS`, then where.  An override of a
#: listed method shares its entry (every family's ``smoke_config``), and
#: a listed class covers its methods in the execution census.
ALLOWED = {
    "register_policy": (EXAMPLES, "examples/custom_policy.py"),
    "ApplicationAgent.estimated_cpu_load": (EXAMPLES, "examples/custom_policy.py"),
    "format_comparison": (EXAMPLES, "examples/poisson_sweep.py"),
    "classify_segment": (EXAMPLES, "examples/service_hunting_walkthrough.py"),
    "LANFabric.add_tap": (EXAMPLES, "examples/service_hunting_walkthrough.py"),
    "RequestOutcome.response_time": (EXAMPLES, "examples/service_hunting_walkthrough.py"),
    "ResponseTimeCollector.outcomes": (EXAMPLES, "examples/service_hunting_walkthrough.py"),
    "ServiceHuntingStats.offers_received": (EXAMPLES, "examples/service_hunting_walkthrough.py"),
    "ScenarioSpec.smoke_config": (SMOKE, "every test that runs a family small"),
    "sr_mean_field": (CLOSED_FORM, "tests/test_analysis_oracle.py"),
    "StaticLoadView": (REACHED_BY_PERF, "micro.py"),
    "BatchFrame": (REACHED_BY_PERF, "micro.py, workloads.py"),
    "SinkDelivery.deliver": (REACHED_BY_PERF, "micro.py"),
    "DeliveryChannel.deliver": (REACHED_BY_PERF, "micro.py"),
    "make_syn": (REACHED_BY_PERF, "micro.py"),
    "LANFabric.resolve": (REACHED_BY_PERF, "run.py"),
    "Scoreboard.mark_busy": (REACHED_BY_PERF, "micro.py"),
    "Scoreboard.mark_idle": (REACHED_BY_PERF, "micro.py"),
    "Simulator.batch_stats": (REACHED_BY_PERF, "tracing.py"),
    "make_pod_trace": (REACHED_BY_PERF, "tracing.py"),
    "FaultInjectionChannel.send": (REACHED_BY_PERF, "micro.py; a product run's pipeline wraps an in-process channel, whose hop the fabric runs in line"),
    "outcome_fingerprint": (GOLDENS, "tests/test_scenario_golden.py, benchmarks/bench_chaos.py"),
    # What only the execution census needs: named in src/, run by no product path.
    "_run_scenario_cell": (WORKER, "tests/test_scenario_golden.py"),
    "ResponseTimeCollector.export_payload": (WORKER, "tests/test_scenario_golden.py"),
    "_load": (WORKER, "tests/test_scenario_golden.py"),
    "run_partitioned": (WORKER, "tests/test_sim_partition.py"),
    "_partition_process_main": (WORKER, "tests/test_sim_partition.py"),
    "_receive": (WORKER, "tests/test_sim_partition.py"),
    "_failure": (WORKER, "tests/test_sim_partition.py"),
    "FIFOCPU": (MODEL, "tests/test_analysis_oracle.py (its FIFO cell), benchmarks/bench_ablation_cpu_model.py"),
    "EventHandle.time": (MODEL, "FIFOCPU.set_speed re-plans its running jobs from it"),
    "FlowTable._evict_lru": (GUARD, "a full flow table evicts its least recently seen flow"),
    "NetworkNode.send": (GUARD, "a node sends before it is attached to a fabric"),
    "SegmentRoutingHeader.set_segments_left": (GUARD, "Packet.set_segments_left's invalid transition"),
    "Packet.describe": (GUARD, "the no-route and stray-packet messages"),
    "ScenarioSpec.render": (GUARD, "a family that defines no figure"),
    "CapacityTracker.current_capacity": (GUARD, "mean_capacity over a zero-length window"),
    "Packet.dst": (WITNESS, "tests/test_net_packet.py; the getter names a packet in the no-route message"),
    "Simulator.stop": (WITNESS, "tests/test_sim_engine.py"),
    "SimulationClock.now": (WITNESS, "tests/test_sim_clock.py"),
    "Autoscaler.active": (WITNESS, "tests/test_control_plane.py"),
    "TelemetryProbe.active": (WITNESS, "tests/test_telemetry_integration.py, tests/test_run_observers.py"),
    "FlightRecorder.events": (WITNESS, "tests/test_telemetry_recorder.py"),
    "ServerLoadSampler.samples": (WITNESS, "tests/test_experiments_runner.py"),
    "ServerLoadSampler.times": (WITNESS, "tests/test_experiments_runner.py"),
    "RequestOutcome.succeeded": (WITNESS, "tests/test_workload_client.py"),
    "IPv6Address.value": (WITNESS, "tests/test_net_addressing.py"),
    "EventHandle.label": (WITNESS, "tests/test_sim_engine.py reads a handle's state from its repr, which prints it"),
    "ScaleRunResult.completed": (WITNESS, "tests/test_experiments_scale.py, benchmarks/bench_scale.py"),
    "ScaleRunResult.failed": (WITNESS, "tests/test_experiments_scale.py, benchmarks/bench_scale.py"),
    "LANFabric.send": (WITNESS, "tests/test_net_fabric.py, tests/test_net_ecmp.py"),
    "NetworkNode.receive": (WITNESS, "tests/test_core_loadbalancer.py"),
    "ScaleRunResult.run": (REACHED_BY_PERF, "tracing.py"),
    "PacketPool.acquire": (REACHED_BY_PERF, "micro.py, via make_syn"),
    "PacketPool.release": (REACHED_BY_PERF, "micro.py"),
}

#: Defaulted parameters nothing passes, and why each stays.
ALLOWED_KNOBS = {
    "make_syn(created_at=)": (REACHED_BY_PERF, "micro.py"),
    "PacketPool.acquire_segment(payload_size=)": (REACHED_BY_PERF, "micro.py, via make_syn"),
}

#: Counters ``src/`` increments and nothing in ``src/`` reads, and why
#: each stays.
ALLOWED_COUNTERS = {
    "ServerNode.stray_data_resets": (
        WITNESS, "tests/test_control_drain_midflow.py, tests/test_adversarial_regression.py"
    ),
    "Autoscaler.suppressed_actions": (WITNESS, "tests/test_control_plane.py"),
    "PacketPool.released": (REACHED_BY_PERF, "micro.py"),
    "PacketPool.reused": (REACHED_BY_PERF, "micro.py"),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _sources():
    return {path: path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _python_files(*roots):
    return [path for root in roots for path in sorted(root.rglob("*.py"))]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _referenced_name(node):
    """The bare names ``node`` loads or imports."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return (node.id,)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return (node.attr,)
    if isinstance(node, ast.ImportFrom):
        return tuple(alias.name for alias in node.names)
    return ()


def _accessor(node):
    """``("setter",)`` or ``("deleter",)`` for a property's ``@name.setter``
    or ``@name.deleter``, else ``()``."""
    return tuple(
        d.attr
        for d in node.decorator_list
        if isinstance(d, ast.Attribute)
        and d.attr in ("setter", "deleter")
        and getattr(d.value, "id", None) == node.name
    )


def _walk(tree):
    """``(definitions, references)`` of one module.

    ``definitions`` maps the qualified name of every top-level function or
    class and every method of a top-level class to its node (a property's
    setter or deleter is ``Class.name.setter`` or ``Class.name.deleter``,
    so it does not hide its getter);
    ``references`` pairs each bare name the code loads with the qualified
    names of the definitions whose own code holds the reference (empty at
    module level).
    """
    definitions, references = {}, []

    def visit(node, owners, holds_definitions):
        for child in ast.iter_child_nodes(node):
            if holds_definitions and isinstance(child, _DEFINITIONS):
                qualified = ".".join((*owners[-1:], child.name, *_accessor(child)))
                definitions[qualified] = child
                is_class = isinstance(child, ast.ClassDef) and not owners
                visit(child, (*owners, qualified), is_class)
                continue
            attribute = isinstance(child, ast.Attribute)
            references.extend((name, owners, attribute) for name in _referenced_name(child))
            visit(child, owners, False)

    visit(tree, (), True)
    return definitions, references


def _census(trees):
    """Every census definition of ``trees`` (module → AST) and the references that can keep it."""
    definitions, references, bases = {}, defaultdict(list), {}
    for module, tree in trees.items():
        found, refs = _walk(tree)
        for qualified, node in found.items():
            definitions[(module, qualified)] = node
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
        for name, owners, attribute in refs:
            references[name].append((frozenset((module, owner) for owner in owners), attribute))
    return definitions, references, bases


@functools.lru_cache(maxsize=None)
def _src_census():
    return _census({str(path.relative_to(SRC)): _tree(path) for path in sorted(SRC.rglob("*.py"))})


def _overridden(qualified, bases, listed):
    """Whether ``qualified`` is, or overrides, a method in ``listed``."""
    if qualified in listed:
        return True
    if "." not in qualified:
        return False
    owner, method = qualified.split(".", 1)
    return any(_overridden(f"{base}.{method}", bases, listed) for base in bases.get(owner, ()))


def unreferenced(allowed=ALLOWED):
    """``{(module, qualified): node}`` of the definitions no live code reaches."""
    definitions, references, bases = _src_census()
    kept = {key for key in definitions if _overridden(key[1], bases, allowed)}
    dead = set()
    while True:
        found = {
            key
            for key, node in definitions.items()
            if key not in dead
            and key not in kept
            and not _is_dunder(node.name)
            and not any(
                key not in owners and not owners & dead
                for owners, attribute in references[node.name]
                # Only ``.name`` reaches a method: a bare name is a local
                # or a function, an import is a module's name.
                if attribute or "." not in key[1]
            )
        }
        if not found:
            return {key: definitions[key] for key in dead}
        dead |= found


def _unreferenced_names(allowed=ALLOWED):
    return {qualified for _, qualified in unreferenced(allowed)}


def _first_line(node):
    """The line a definition's code object starts at: its first decorator's, or its own."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _lines(node):
    return node.end_lineno - _first_line(node) + 1


# ----------------------------------------------------------------------
# knobs
# ----------------------------------------------------------------------
def _call_signature(call, args):
    return (
        sum(not isinstance(arg, ast.Starred) for arg in args),
        any(isinstance(arg, ast.Starred) for arg in args)
        or any(keyword.arg is None for keyword in call.keywords),
        frozenset(keyword.arg for keyword in call.keywords if keyword.arg),
    )


def _callee(func):
    """The bare name a call's ``func`` is matched by (``None`` when it has none)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _sites(trees):
    """Bare callee name → ``(positional count, splat, keywords)`` of every call in ``trees``."""
    sites = defaultdict(list)
    for tree in trees:
        own_class = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for call in ast.walk(node):
                    own_class[id(call)] = node.name
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            name = _callee(func)
            if name == "cls" and isinstance(func, ast.Name):
                name = own_class.get(id(call), "cls")
            if name is not None:
                sites[name].append(_call_signature(call, args))
    return sites


def _caller_trees():
    roots = [ROOT / folder for folder in ("src", "tests", "benchmarks", "examples")]
    return [_tree(path) for path in _python_files(*roots)]


@functools.lru_cache(maxsize=None)
def _call_sites():
    return _sites(_caller_trees())


def _defaulted(function, bound):
    """``(name, position or None)`` of each defaulted parameter."""
    spec = function.args
    positional = [*spec.posonlyargs, *spec.args][1 if bound else 0 :]
    for index, arg in enumerate(positional[len(positional) - len(spec.defaults) :]):
        yield arg.arg, len(positional) - len(spec.defaults) + index
    for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
        if default is not None:
            yield arg.arg, None


def unpassed(allowed=ALLOWED_KNOBS):
    """``{"qualified(param=)": (module, line)}`` of the knobs nothing turns."""
    definitions, _, bases = _src_census()
    subclasses = defaultdict(set)
    for name, parents in bases.items():
        for parent in parents:
            subclasses[parent].add(name)
    sites = _call_sites()
    found = {}
    for (module, qualified), node in definitions.items():
        if not isinstance(node, _FUNCTIONS) or (_is_dunder(node.name) and node.name != "__init__"):
            continue
        owner = qualified.split(".")[0] if "." in qualified else None
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        callees = {node.name}
        if node.name == "__init__":
            family, todo = set(), [owner]
            while todo:
                cls = todo.pop()
                if cls not in family:
                    family.add(cls)
                    todo.extend(subclasses[cls])
            callees |= family
        calls = [site for callee in callees for site in sites[callee]]
        for param, position in _defaulted(node, bound=owner is not None and not static):
            key = f"{qualified}({param}=)"
            if key in allowed:
                continue
            if not any(
                splat or param in keywords or (position is not None and count > position)
                for count, splat, keywords in calls
            ):
                found[key] = (module, node.lineno)
    return found


# ----------------------------------------------------------------------
# config fields
# ----------------------------------------------------------------------
def _strings(node, constants):
    """The string constants of an expression, through module-level names."""
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, str) else []
    if isinstance(node, ast.Name):
        return _strings(constants[node.id], constants) if node.id in constants else []
    return [text for child in ast.iter_child_nodes(node) for text in _strings(child, constants)]


def _declares_flag(call, constants):
    """Whether a ``param(...)`` call gives its field a flag.

    ``param(default, "--flag", ...)``, ``param(..., flag=...)``, or a
    ``**NAME`` splat of a module-level ``dict(flag=...)``.
    """
    if len(call.args) > 1:
        return True
    for keyword in call.keywords:
        splat = constants.get(getattr(keyword.value, "id", None)) if keyword.arg is None else None
        if keyword.arg == "flag" or (
            isinstance(splat, ast.Call) and any(k.arg == "flag" for k in splat.keywords)
        ):
            return True
    return False


def _field_census(config, callers):
    """``(fields, alive)`` of the dataclasses of the ``config`` module.

    ``fields`` maps ``(class, field)`` to its line; ``alive`` holds the
    pairs a flag exposes or a call among ``callers`` sets.
    """
    constants = {
        target.id: node.value
        for node in config.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    fields, order, alive = {}, {}, set()
    for node in config.body:
        decorators = [getattr(d, "func", d) for d in getattr(node, "decorator_list", ())]
        if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
            continue
        order[node.name] = []
        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or "ClassVar" in ast.unparse(item.annotation):
                continue
            fields[(node.name, item.target.id)] = item.lineno
            order[node.name].append(item.target.id)
            value = item.value
            if not (isinstance(value, ast.Call) and _callee(value.func) == "param"):
                continue
            if _declares_flag(value, constants):
                alive.add((node.name, item.target.id))
            for keyword in value.keywords:
                if keyword.arg == "expose":
                    # The exposed flags set the nested config, and through it the field.
                    nested = ast.unparse(item.annotation)
                    alive.add((node.name, item.target.id))
                    alive.update((nested, name) for name in _strings(keyword.value, constants))
    for tree in callers:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = _callee(call.func)
            keywords = [keyword.arg for keyword in call.keywords if keyword.arg]
            if callee in order:
                positions = 0
                while positions < len(call.args) and not isinstance(call.args[positions], ast.Starred):
                    positions += 1
                alive.update((callee, name) for name in order[callee][:positions] + keywords)
            elif callee == "replace":
                alive.update((cls, name) for cls in order for name in keywords)
    return fields, alive


@functools.lru_cache(maxsize=None)
def _config_census():
    return _field_census(_tree(CONFIG), _caller_trees())


def unset_fields():
    """``{"Class.field": line}`` of the config fields no flag exposes and no call sets."""
    fields, alive = _config_census()
    return {f"{cls}.{name}": line for (cls, name), line in fields.items() if (cls, name) not in alive}


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def _declared(tree):
    """``{attr: {class}}``: dataclass fields and ``self.attr = ...`` of each class."""
    declared = defaultdict(set)
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                declared[item.target.id].add(node.name)
        for item in ast.walk(node):
            targets = item.targets if isinstance(item, ast.Assign) else []
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    declared[target.attr].add(node.name)
    return declared


def _dataclass_fields(tree):
    """``{class: [field]}`` of the dataclasses ``tree`` defines."""
    return {
        node.name: [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    }


def _counter_census(trees):
    """``(increments, read)`` of ``trees`` (module → AST).

    ``increments`` maps ``Class.attr`` (the class declaring the attribute,
    or the bare attribute when no class does) to ``(module, line)`` of its
    first ``+=``; ``read`` is every bare attribute name ``src/`` loads,
    plus the fields of each dataclass passed to ``asdict``: an
    ``asdict(x.attr)`` call whose module assigns ``x.attr = Class(...)``.
    """
    declared, fields = defaultdict(set), {}
    for tree in trees.values():
        for attr, owners in _declared(tree).items():
            declared[attr] |= owners
        fields.update(_dataclass_fields(tree))
    increments, read = {}, set()
    for module, tree in trees.items():
        built = defaultdict(set)
        dumped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                target = node.target
                if isinstance(target, ast.Attribute):
                    for owner in declared.get(target.attr) or {None}:
                        key = target.attr if owner is None else f"{owner}.{target.attr}"
                        increments.setdefault(key, (module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = _callee(node.value.func)
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and callee:
                        built[target.attr].add(callee)
            elif isinstance(node, ast.Call) and _callee(node.func) == "asdict" and node.args:
                dumped.update(
                    arg.attr for arg in node.args[:1] if isinstance(arg, ast.Attribute)
                )
        for attr in dumped:
            for cls in built[attr]:
                read.update(fields.get(cls, ()))
    return increments, read


def unread_counters(allowed=ALLOWED_COUNTERS):
    """``{"Class.attr": (module, line)}`` of the counters nothing in ``src/`` reads."""
    trees = {str(path.relative_to(SRC)): _tree(path) for path in sorted(SRC.rglob("*.py"))}
    increments, read = _counter_census(trees)
    return {
        key: where
        for key, where in increments.items()
        if key.split(".")[-1] not in read and key not in allowed
    }


# ----------------------------------------------------------------------
# the census
# ----------------------------------------------------------------------
def test_src_keeps_no_name_that_nothing_runs():
    assert sorted(_unreferenced_names()) == []


def test_src_keeps_no_counter_that_nothing_reads():
    assert sorted(unread_counters()) == []


def test_src_keeps_no_knob_that_nothing_turns():
    assert sorted(unpassed()) == []


def test_a_config_holds_only_fields_something_sets():
    fields, _ = _config_census()
    assert len(fields) > 100  # the census reads the real config module
    assert sorted(unset_fields()) == []


def test_every_allow_listed_name_needs_its_entry():
    # A name that gained a caller (or whose only caller is itself listed)
    # leaves the list, unless the execution census needs the row: then it
    # names a definition of src/, and ``make census-exec`` checks that
    # some product path still leaves it unrun.
    definitions, _, _ = _src_census()
    qualified = {name for _, name in definitions}
    for name in ALLOWED:
        assert name in qualified, name
        if name in _unreferenced_names({n: r for n, r in ALLOWED.items() if n != name}):
            continue
        assert ALLOWED[name][0] in (WORKER, MODEL, GUARD, WITNESS, REACHED_BY_PERF), name
    assert set(ALLOWED_KNOBS) <= set(unpassed(allowed={}))
    assert set(ALLOWED_COUNTERS) <= set(unread_counters(allowed={}))


def test_every_allow_list_entry_gives_a_listed_reason():
    for name, (reason, _where) in {**ALLOWED, **ALLOWED_KNOBS, **ALLOWED_COUNTERS}.items():
        assert reason in REASONS, name


def test_every_closed_form_row_names_the_oracle_that_imports_it():
    for name, (reason, where) in ALLOWED.items():
        if reason != CLOSED_FORM:
            continue
        oracles = [part for part in where.split(", ") if part.startswith("tests/")]
        assert oracles, name
        for oracle in oracles:
            imported = {
                alias.name
                for node in ast.walk(_tree(ROOT / oracle))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            assert name in imported, (name, oracle)


def test_the_census_counts_code_not_text():
    # A docstring mention, a comment or a string in a table keeps nothing.
    tree = ast.parse(
        '"""dead() is documented here."""\n'
        "TABLE = ('dead',)  # dead\n"
        "def dead():\n    return dead()\n"
        "def live():\n    return 1\n"
        "VALUE = live()\n"
    )
    definitions, references = _walk(tree)
    assert set(definitions) == {"dead", "live"}
    assert ("live", (), False) in references
    assert [owners for name, owners, _ in references if name == "dead"] == [("dead",)]


# ----------------------------------------------------------------------
# the census's own rules, on small made-up modules
# ----------------------------------------------------------------------
def _census_of(monkeypatch, **modules):
    """Point both censuses at ``modules`` (name → source) instead of the repository."""
    trees = {f"{name}.py": ast.parse(textwrap.dedent(text)) for name, text in modules.items()}
    monkeypatch.setitem(globals(), "_src_census", lambda: _census(trees))
    monkeypatch.setitem(globals(), "_call_sites", lambda: _sites(trees.values()))


def test_a_helper_only_dead_code_calls_is_found_with_it(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        def leaf():
            return 1
        def middle():
            return leaf()
        def dead():
            return middle()
        def live():
            return 2
        VALUE = live()
        """,
    )
    assert _unreferenced_names(allowed={}) == {"leaf", "middle", "dead"}


def test_an_attribute_load_keeps_a_method_and_a_store_does_not(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        class Box:
            def read(self):
                return self._helper()
            def _helper(self):
                return 1
            def written(self):
                return 2
        box = Box()
        box.written = None
        VALUE = box.read()
        """,
    )
    assert _unreferenced_names(allowed={}) == {"Box.written"}


def test_an_import_from_another_module_keeps_a_name(monkeypatch):
    _census_of(
        monkeypatch,
        a="def shared():\n    return 1\ndef lonely():\n    return 2\n",
        b="from a import shared\n",
    )
    assert _unreferenced_names(allowed={}) == {"lonely"}


def test_only_an_attribute_load_keeps_a_method(monkeypatch):
    # A local named like a method, a function of that name and an
    # import of it are not calls of the method; ``.name`` is.
    _census_of(
        monkeypatch,
        a="""
        class Box:
            def size(self):
                return 1
            def step(self):
                return 2
            def lookup(self):
                return 3
            def total(self):
                return 4
        def step():
            return 5
        def use(box):
            size = 0
            return size + step() + box.total()
        VALUE = (Box, use)
        """,
        b="from a import lookup\n",
    )
    assert _unreferenced_names(allowed={}) == {"Box.size", "Box.step", "Box.lookup"}


def test_an_allow_listed_name_keeps_what_it_calls(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        def helper():
            return 1
        def api():
            return helper()
        """,
    )
    assert _unreferenced_names(allowed={}) == {"api", "helper"}
    assert _unreferenced_names(allowed={"api": (EXAMPLES, "x")}) == set()


def test_an_override_of_an_allow_listed_method_shares_its_entry(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        class Spec:
            def hook(self):
                return 0
        class Family(Spec):
            def hook(self):
                return 1
        class Other:
            def hook(self):
                return 2
        VALUE = (Spec, Family, Other)
        """,
    )
    assert _unreferenced_names(allowed={"Spec.hook": (SMOKE, "x")}) == {"Other.hook"}


def test_dunders_and_nested_functions_are_not_census_definitions(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        class Point:
            def __repr__(self):
                return "Point"
        def outer():
            def inner():
                return 1
            return inner
        VALUE = (Point, outer)
        """,
    )
    definitions, _, _ = _src_census()
    assert {qualified for _, qualified in definitions} == {"Point", "Point.__repr__", "outer"}
    assert _unreferenced_names(allowed={}) == set()


def test_a_knob_is_turned_by_keyword_or_by_position(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        def f(a, b=1, c=2, d=3):
            return a + b + c + d
        f(0, 1)
        f(0, c=5)
        """,
    )
    assert set(unpassed(allowed={})) == {"f(d=)"}


def test_a_splat_call_turns_every_knob(monkeypatch):
    _census_of(
        monkeypatch,
        a="def f(a=1, *, b=2):\n    return a + b\nf(*ARGS)\n",
        b="def g(a=1, *, b=2):\n    return a + b\ng(**KWARGS)\n",
    )
    assert unpassed(allowed={}) == {}


def test_a_method_position_does_not_count_self(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        class Tool:
            def bound(self, x=1, y=2):
                return x + y
            @staticmethod
            def free(x=1, y=2):
                return x + y
        Tool().bound(5)
        Tool.free(5)
        """,
    )
    assert set(unpassed(allowed={})) == {"Tool.bound(y=)", "Tool.free(y=)"}


def test_a_subclass_call_or_cls_call_turns_the_base_init(monkeypatch):
    _census_of(
        monkeypatch,
        a="""
        class Base:
            def __init__(self, size=1, name="", tag=None):
                self.size, self.name, self.tag = size, name, tag
        class Leaf(Base):
            @classmethod
            def named(cls):
                return cls(name="leaf")
        Leaf(size=2)
        """,
    )
    assert set(unpassed(allowed={})) == {"Base.__init__(tag=)"}


def test_a_partial_passes_its_bound_arguments(monkeypatch):
    _census_of(
        monkeypatch,
        a="def f(a=1, b=2):\n    return a + b\nPROBE = partial(f, 3)\n",
    )
    assert set(unpassed(allowed={})) == {"f(b=)"}


def test_only_defaulted_keyword_only_parameters_are_knobs(monkeypatch):
    _census_of(
        monkeypatch,
        a="def f(a, *, b, c=1):\n    return a + b + c\nf(0, b=1)\n",
    )
    assert set(unpassed(allowed={})) == {"f(c=)"}


def test_an_allow_listed_knob_is_not_reported(monkeypatch):
    _census_of(monkeypatch, a="def f(a=1):\n    return a\nf()\n")
    assert set(unpassed(allowed={})) == {"f(a=)"}
    assert unpassed(allowed={"f(a=)": (REACHED_BY_PERF, "x")}) == {}


def _fields_of(monkeypatch, config, **callers):
    """Point the config-field census at ``config`` and ``callers`` (name → source)."""
    trees = [ast.parse(textwrap.dedent(text)) for text in callers.values()]
    census = _field_census(ast.parse(textwrap.dedent(config)), trees)
    monkeypatch.setitem(globals(), "_config_census", lambda: census)
    return set(unset_fields())


def test_a_flag_keeps_a_field_and_a_bound_alone_does_not(monkeypatch):
    config = """
    FLAG = dict(flag="--name", help="a name")
    @dataclass(frozen=True)
    class Config:
        size: int = param(1, "--size", "how many", POSITIVE)
        rate: float = param(0.5, flag="--rate")
        name: str = param("x", **FLAG)
        floor: float = param(0.1, bound=POSITIVE)
        plain: int = 3
        table: ClassVar[tuple] = ()
    """
    assert _fields_of(monkeypatch, config) == {"Config.floor", "Config.plain"}


def test_expose_keeps_the_nested_fields_it_names(monkeypatch):
    config = """
    SHAPE = ("cores",)
    @dataclass
    class Inner:
        cores: int = 2
        workers: int = 8
        seed: int = 0
    @dataclass
    class Outer:
        inner: Inner = param(default_factory=Inner, expose=SHAPE + ("seed",))
    """
    assert _fields_of(monkeypatch, config) == {"Inner.workers"}


def test_a_constructor_or_replace_call_sets_a_field(monkeypatch):
    config = """
    @dataclass
    class Config:
        first: int = 1
        second: int = 2
        third: int = 3
        fourth: int = 4
        fifth: int = 5
    class NotAConfig:
        ignored: int = 0
    """
    caller = """
    Config(10)
    Config(*ARGS, second=20)
    replace(CONFIG, third=30)
    other.replace("a", "b")
    Config(**{"fourth": 40})
    """
    assert _fields_of(monkeypatch, config, b=caller) == {"Config.fourth", "Config.fifth"}


def _counters_of(**modules):
    """The counter census of ``modules`` (name → source): ``(increments, read)``."""
    trees = {f"{name}.py": ast.parse(textwrap.dedent(text)) for name, text in modules.items()}
    increments, read = _counter_census(trees)
    return {key for key in increments if key.split(".")[-1] not in read}


def test_a_counter_is_kept_by_a_load_and_not_by_its_own_increment():
    unread = _counters_of(
        a="""
        class Stats:
            def __init__(self):
                self.seen = 0
                self.shown = 0
            def bump(self):
                self.seen += 1
                self.shown += 1
            def report(self):
                return self.shown
        """,
    )
    assert unread == {"Stats.seen"}


def test_a_field_of_a_dataclass_passed_to_asdict_is_read():
    unread = _counters_of(
        a="""
        @dataclass
        class Totals:
            added: int = 0
        @dataclass
        class Other:
            lost: int = 0
        class Tier:
            def __init__(self):
                self.stats = Totals()
                self.spare = Other()
            def add(self):
                self.stats.added += 1
                self.spare.lost += 1
            def snapshot(self):
                return asdict(self.stats)
        """,
    )
    assert unread == {"Other.lost"}


# ----------------------------------------------------------------------
# the frozen benchmark's imports
# ----------------------------------------------------------------------
def _repro_imports(*roots):
    """``(file, module, name)`` of every ``from repro… import name`` under ``roots``."""
    for path in _python_files(*roots):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield str(path.relative_to(ROOT)), node.module, alias.name


def _imports(module, name):
    """Whether ``from module import name`` runs: ``name`` is an attribute of
    ``module`` or a submodule of it, as the statement itself decides."""
    try:
        exec(f"from {module} import {name}", {})
    except ImportError:
        return False
    return True


def test_every_repro_import_of_the_frozen_benchmark_resolves():
    imports = list(_repro_imports(PERF))
    assert imports
    for where, module, name in imports:
        assert _imports(module, name), f"{where}: from {module} import {name}"


def test_an_import_resolves_to_an_attribute_or_a_submodule(tmp_path, monkeypatch):
    package = tmp_path / "made_up_package"
    package.mkdir()
    (package / "__init__.py").write_text('"""A package that binds nothing."""\n')
    (package / "sub.py").write_text("VALUE = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "made_up_package", raising=False)
    monkeypatch.delitem(sys.modules, "made_up_package.sub", raising=False)
    assert _imports("made_up_package", "sub")  # not yet an attribute: imported by the statement
    assert _imports("made_up_package.sub", "VALUE")
    assert not _imports("made_up_package", "nope")
    assert not _imports("made_up_package.sub", "nope")


def test_every_name_allowed_for_the_benchmark_is_one_it_references():
    referenced = {
        name
        for path in _python_files(PERF)
        for node in ast.walk(_tree(path))
        for name in _referenced_name(node)
    }
    for entry, (reason, _where) in {**ALLOWED, **ALLOWED_KNOBS, **ALLOWED_COUNTERS}.items():
        if reason == REACHED_BY_PERF:
            # The name itself, or (for a method) its class.
            names = entry.split("(")[0].split(".")
            assert {names[0], names[-1]} & referenced, entry


# ----------------------------------------------------------------------
# one name per object
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("__init__.py")), ids=lambda path: str(path.relative_to(SRC))
)
def test_a_package_init_is_its_docstring_and_nothing_else(path):
    # A package binds no name of its submodules: an object is imported
    # from the module that defines it, under one name.
    body = _tree(path).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr), path
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def _imported_names(module):
    """The names ``module``'s own top-level code binds by an import."""
    names, todo = set(), list(_tree(pathlib.Path(importlib.util.find_spec(module).origin)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif not isinstance(node, _DEFINITIONS):
            todo.extend(
                child
                for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.stmt, ast.excepthandler))
            )
    return names


def _second_names(imports):
    """The ``imports`` (``(file, module, name)``) that do not run, or that
    reach an object through a module that only imported it."""
    return [
        f"{where}: from {module} import {name}"
        for where, module, name in imports
        if not _imports(module, name) or name in _imported_names(module)
    ]


@pytest.mark.parametrize("folder", ["src", "tests", "benchmarks", "examples"])
def test_every_repro_import_names_the_module_that_defines_the_object(folder):
    imports = list(_repro_imports(ROOT / folder))
    assert imports
    assert _second_names(imports) == []


def test_an_import_through_a_module_that_imported_the_name_is_a_second_name(
    tmp_path, monkeypatch
):
    (tmp_path / "made_up_home.py").write_text("def thing():\n    return 1\n")
    (tmp_path / "made_up_relay.py").write_text(
        "try:\n    from made_up_home import thing\nexcept ImportError:\n    pass\n"
        "def own():\n    from made_up_home import thing\n    return thing\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("made_up_home", "made_up_relay"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    assert _second_names(
        [("x", "made_up_home", "thing"), ("x", "made_up_relay", "own"),
         ("x", "made_up_relay", "thing"), ("x", "made_up_home", "nope")]
    ) == ["x: from made_up_relay import thing", "x: from made_up_home import nope"]


# ----------------------------------------------------------------------
# one way to run a family
# ----------------------------------------------------------------------
def test_a_spec_has_only_the_hooks_run_scenario_calls():
    assert ScenarioSpec.__abstractmethods__ == {"smoke_config", "make_trace"}


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
            if not is_spec:
                assert not _calls(node, "build_testbed"), f"{where} is a second run path"


# ----------------------------------------------------------------------
# telemetry only watches
# ----------------------------------------------------------------------
def _imported_packages(tree, package):
    """Every import in ``tree``, anywhere in it, of ``package`` or below."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
            modules.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_the_control_plane_and_the_telemetry_plane_do_not_import_each_other():
    """The control loops read the testbed one way, telemetry on or off."""
    for layer, other in (("control", "repro.telemetry"), ("telemetry", "repro.control")):
        paths = _python_files(SRC / layer)
        assert paths, layer
        for path in paths:
            imports = _imported_packages(_tree(path), other)
            assert not imports, f"{path.relative_to(SRC)} imports {imports}"


def test_an_import_counts_wherever_it_sits_and_however_it_is_spelt():
    tree = ast.parse(
        "import repro.telemetry.bus\n"
        "from repro import telemetry\n"
        "def late():\n    from repro.telemetry.probe import attach_telemetry\n"
        "import repro.telemetryish\n"
    )
    assert _imported_packages(tree, "repro.telemetry") == [
        "repro.telemetry.bus",
        "repro.telemetry",
        "repro.telemetry.probe",
        "repro.telemetry.probe.attach_telemetry",
    ]


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
    # The default run (flash-crowd and heavy-tail use it), each family
    # whose run is its own (heterogeneous-fleet runs the Poisson one) and
    # calibration: one call each.
    assert sorted(where.split(":")[0] for where in callers) == [
        "experiments/adversarial_experiment.py",
        "experiments/autoscale_experiment.py",
        "experiments/calibration.py",
        "experiments/chaos_experiment.py",
        "experiments/poisson_experiment.py",
        "experiments/resilience_experiment.py",
        "experiments/scale_experiment.py",
        "experiments/scenario.py",
        "experiments/wikipedia_experiment.py",
    ]


# ----------------------------------------------------------------------
# the execution census (``make census-exec``)
# ----------------------------------------------------------------------
#: Sub-command paths ``docs/cli.md`` documents that the CLI pins do not
#: run; ``{dir}`` is a scratch directory.  Only a documented path goes
#: here, never one added to keep code alive.
EXTRA = (
    ("chaos", "--servers", "3", "--workers", "4", "--queries", "80",
     "--mode", "baseline", "--mode", "loss", "--telemetry-out", "{dir}"),
    ("dashboard", "{dir}/telemetry.json", "--out", "{dir}/dashboard.html"),
    ("calibrate", "--servers", "2", "--workers", "4", "--empirical",
     "--queries", "200", "--iterations", "2"),
    ("resilience", "--servers", "3", "--workers", "4", "--queries", "100",
     "--scheme", "round-robin"),
    ("scale", "--servers", "2", "--workers", "4", "--queries", "200", "--pods", "2",
     "--telemetry"),
    ("autoscale", "--workers", "4", "--cores", "1", "--min-servers", "2",
     "--max-servers", "3", "--period", "20", "--duration", "40", "--slo-p99", "3",
     "--time-factor", "0.5"),
)


def _is_stub(node):
    """An interface stub: ``@abstractmethod``, or a body of only a
    docstring, ``pass``, ``...`` or ``raise NotImplementedError``."""
    if _is_abstract(node):
        return True
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
            if _callee(exc) == "NotImplementedError":
                continue
        return False
    return True


def _is_abstract(node):
    return any(_callee(d) == "abstractmethod" for d in node.decorator_list)


def executed(entries, root=SRC):
    """``(ran, failed)`` of running ``entries`` (``(label, thunk)`` pairs).

    ``ran`` holds ``(module, first line, name)`` of every code object
    under ``root`` that was called, which :func:`ran_definitions` matches
    to its ``def`` (a qualified name would not do: a property's getter and
    setter share one); ``failed`` the labels whose thunk raised, or exited
    with a status other than ``0``/``None``, with the cause.  The tracer
    sees call events only: it returns ``None``, so no line event fires.
    """
    codes = set()

    def trace(frame, event, arg):
        codes.add(frame.f_code)

    failed = []
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for label, run in entries:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = None
                try:
                    run()
                except SystemExit as exit_:
                    status = exit_.code
                except Exception:  # noqa: BLE001 - reported with its traceback, not raised
                    status = traceback.format_exc()
            if status not in (None, 0):
                failed.append(f"{label}: {status}")
    finally:
        sys.settrace(previous)
    root = pathlib.Path(root).resolve()
    ran = set()
    for code in codes:
        path = pathlib.Path(code.co_filename).resolve()
        if root in path.parents:
            ran.add((str(path.relative_to(root)), code.co_firstlineno, code.co_name))
    return ran, failed


def ran_definitions(ran):
    """``(module, qualified)`` of the census definitions whose code is in ``ran``."""
    definitions, _, _ = _src_census()
    return {
        key for key, node in definitions.items() if (key[0], _first_line(node), node.name) in ran
    }


def _covered(qualified, bases, allowed):
    """Whether an ``allowed`` row covers ``qualified``: its own row, the
    row of a method it overrides, or its class's row."""
    return _overridden(qualified, bases, allowed) or qualified.split(".")[0] in allowed


def unexecuted(ran, allowed=ALLOWED):
    """``{(module, qualified): node}`` of the functions and methods no
    entry point ran.

    Dunders and interface stubs are exempt, and so is a method that
    implements an ``@abstractmethod`` (its class cannot be made without
    it).  A dunder and an ``allowed`` row keep what only they call, as an
    allowed name does in the name census: a function every code
    reference to which sits inside a kept one is kept too (a fixed point).
    """
    definitions, references, bases = _src_census()
    done = ran_definitions(ran)
    abstract = {
        qualified
        for (_, qualified), node in definitions.items()
        if isinstance(node, _FUNCTIONS) and _is_abstract(node)
    }
    unrun = {
        key: node
        for key, node in definitions.items()
        if isinstance(node, _FUNCTIONS)
        and key not in done
        and not _is_dunder(node.name)
        and not _is_stub(node)
        and not ("." in key[1] and _overridden(key[1], bases, abstract))
    }
    kept = {key for key in unrun if _covered(key[1], bases, allowed)}
    kept |= {key for key, node in definitions.items() if _is_dunder(node.name)}
    while True:
        found = set()
        for key, node in unrun.items():
            if key in kept:
                continue
            callers = [
                owners
                for owners, attribute in references[node.name]
                if (attribute or "." not in key[1]) and key not in owners
            ]
            if callers and all(owners & kept for owners in callers):
                found.add(key)
        if not found:
            return {key: node for key, node in unrun.items() if key not in kept}
        kept |= found


def stale_rows(ran, allowed=ALLOWED):
    """The ``allowed`` rows neither census needs: the name census reaches
    the name, and the row covers nothing the entry points left unrun."""
    _, _, bases = _src_census()
    unrun = unexecuted(ran, allowed={})
    return sorted(
        name
        for name in allowed
        if name not in _unreferenced_names({n: r for n, r in allowed.items() if n != name})
        and not any(_covered(qualified, bases, {name: None}) for _, qualified in unrun)
    )


def _run_cli(argv):
    from repro.cli import main

    sys.exit(main(list(argv)))


def _run_example(path, flags):
    argv = sys.argv
    sys.argv = [str(path), *flags]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def _run_family(name, telemetry):
    from dataclasses import replace

    from repro.experiments import registry
    from repro.experiments.scenario import run_scenario

    config = registry.get(name).smoke_config()
    if telemetry:
        config = replace(config, testbed=replace(config.testbed, telemetry=True))
    run_scenario(name, config, jobs=1)


def _fresh_import():
    """Forget every loaded ``repro`` module, so the product paths import
    (and run the module-level code of) what they use under the tracer."""
    for name in [name for name in sys.modules if name.split(".")[0] == "repro"]:
        del sys.modules[name]


def product_paths(scratch):
    """``(label, thunk)`` of every product path, lazily (imports run under
    the tracer): the CLI pins' argvs at one process, every ``--help``,
    :data:`EXTRA`, each family's ``smoke_config()`` with the testbed's
    telemetry off and on, and the examples at their smallest flags."""
    _fresh_import()
    import test_cli_pins as pins
    import test_examples

    from repro.experiments import registry

    for name, argv in pins.RUNS.items():
        yield name, functools.partial(_run_cli, [*argv, "--jobs", "1"])
    yield "scale", functools.partial(_run_cli, [*pins.SCALE, "--partitions", "1"])
    for name, argv in {**pins.STATIC, **pins._help_argvs()}.items():
        yield name, functools.partial(_run_cli, argv)
    for argv in EXTRA:
        argv = [word.format(dir=scratch) for word in argv]
        yield " ".join(argv), functools.partial(_run_cli, argv)
    for name in registry.names():
        yield f"{name} smoke", functools.partial(_run_family, name, False)
        yield f"{name} smoke, telemetry", functools.partial(_run_family, name, True)
    for script, flags, _ in test_examples.EXAMPLES:
        yield script, functools.partial(_run_example, ROOT / "examples" / script, flags)


def exec_report(ran, failed):
    """The execution census as text, and whether it is green."""
    unrun = unexecuted(ran, allowed={})
    kept = unexecuted(ran)
    lines = []
    for group, rows in (
        ("not allow-listed", [key for key in sorted(unrun) if key in kept]),
        ("allow-listed", [key for key in sorted(unrun) if key not in kept]),
    ):
        lines.append(f"Functions no product path runs, {group} ({len(rows)}):")
        for module, qualified in rows:
            node = unrun[(module, qualified)]
            lines.append(f"  {module}:{node.lineno} {qualified} ({_lines(node)} lines)")
        if not rows:
            lines.append("  (none)")
    stale = stale_rows(ran)
    lines.append(f"ALLOWED rows neither census needs ({len(stale)}):")
    lines.extend(f"  {name}" for name in stale or ["(none)"])
    lines.append(f"Entry points that failed ({len(failed)}):")
    lines.extend(f"  {label}" for label in failed or ["(none)"])
    return "\n".join(lines), not (kept or stale or failed)


# ----------------------------------------------------------------------
# the execution census's own rules, on a small made-up module
# ----------------------------------------------------------------------
_TOY = """
import abc


class Shape(abc.ABC):
    @abc.abstractmethod
    def area(self):
        \"\"\"The area.\"\"\"

    def outline(self):
        raise NotImplementedError

    def __repr__(self):
        return f"Shape({self._label()})"

    def _label(self):
        return "shape"


class Square(Shape):
    def __init__(self, side):
        self.side = side

    def area(self):
        return self.side ** 2

    def hook(self):
        return 0


class Tile(Square):
    def hook(self):
        return 1


def live():
    return Square(2).area()


def tested():
    return helper()


def helper():
    return 1


ENTRY = (live, tested, Tile)
"""


def _run_toy(tmp_path, monkeypatch, entries, source=_TOY):
    """``ran`` of tracing ``entries`` (names of the toy module's functions)
    over a module written from ``source``; both censuses read the toy."""
    path = tmp_path / "toy.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    ran, failed = executed([(name, getattr(toy, name)) for name in entries], root=tmp_path)
    assert failed == []
    _census_of(monkeypatch, toy=source)
    if hasattr(toy, "tested"):
        toy.tested()  # a test's call, after the tracer: it runs nothing for the census
    return ran


def test_a_function_only_a_test_calls_is_reported(tmp_path, monkeypatch):
    ran = _run_toy(tmp_path, monkeypatch, ["live"])
    assert {("toy.py", "live"), ("toy.py", "Square.area")} <= ran_definitions(ran)
    assert {name for _, name in unexecuted(ran, allowed={})} == {
        "tested", "helper", "Square.hook", "Tile.hook"
    }


def test_dunders_interface_stubs_and_what_only_a_dunder_calls_are_exempt(tmp_path, monkeypatch):
    # ``Shape.area`` is abstract, ``Shape.outline`` raises NotImplementedError,
    # ``Shape.__repr__`` is a dunder and ``Shape._label`` only it calls.
    ran = _run_toy(tmp_path, monkeypatch, ["live"])
    assert not {name for _, name in unexecuted(ran, allowed={})} & {
        "Shape.area", "Shape.outline", "Shape.__repr__", "Shape._label"
    }


@pytest.mark.parametrize(
    "source, stub",
    [
        ('def f():\n    """Only a docstring."""', True),
        ("def f():\n    pass", True),
        ("def f():\n    ...", True),
        ("def f():\n    raise NotImplementedError", True),
        ('def f():\n    """Doc."""\n    raise NotImplementedError("subclass")', True),
        ("@abc.abstractmethod\ndef f():\n    return 1", True),
        ("@abstractmethod\ndef f():\n    return 1", True),
        ("def f():\n    return 0", False),
        ('def f():\n    """Doc."""\n    return 0', False),
        ("def f():\n    raise ValueError", False),
        ("def f():\n    raise", False),
    ],
)
def test_an_interface_stub_is_abstract_or_has_a_body_of_only_placeholders(source, stub):
    (node,) = ast.parse(source).body
    assert _is_stub(node) is stub


def test_an_allowed_row_silences_its_function_what_only_it_calls_and_overrides(
    tmp_path, monkeypatch
):
    ran = _run_toy(tmp_path, monkeypatch, ["live"])
    rows = {"tested": (WITNESS, "x"), "Square.hook": (WITNESS, "x")}
    assert unexecuted(ran, allowed=rows) == {}
    assert {name for _, name in unexecuted(ran, allowed={"Tile": (MODEL, "x")})} == {
        "tested", "helper", "Square.hook"
    }


def test_an_allowed_row_whose_function_now_runs_is_stale(tmp_path, monkeypatch):
    ran = _run_toy(tmp_path, monkeypatch, ["live", "tested"])
    rows = {"tested": (WITNESS, "x"), "Square.hook": (WITNESS, "x")}
    assert stale_rows(ran, allowed=rows) == ["tested"]


_DECORATED = """
import functools


class Box:
    def __init__(self):
        self._size = 1

    @property
    def size(self):
        return self._size

    @size.setter
    def size(self, value):
        self._size = value

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def made(size):
        return size


def live():
    return Box().size + Box.made(2)
"""


def test_a_property_setter_is_told_from_its_getter(tmp_path, monkeypatch):
    # Getter and setter share one qualified name in the code objects; the
    # census tells them apart by their first lines.
    ran = _run_toy(tmp_path, monkeypatch, ["live"], source=_DECORATED)
    assert ("toy.py", "Box.size") in ran_definitions(ran)
    assert {name for _, name in unexecuted(ran, allowed={})} == {"Box.size.setter"}
    # The getter's row does not cover the setter.
    rows = {"Box.size": (WITNESS, "x")}
    assert {name for _, name in unexecuted(ran, allowed=rows)} == {"Box.size.setter"}


def test_a_decorated_function_is_matched_by_its_first_decorator_line(tmp_path, monkeypatch):
    # A decorated function's code starts at its first decorator, not at ``def``.
    ran = _run_toy(tmp_path, monkeypatch, ["live"], source=_DECORATED)
    assert ("toy.py", "Box.made") in ran_definitions(ran)
    assert "Box.made" not in {name for _, name in unexecuted(ran, allowed={})}


def test_an_entry_that_fails_is_reported(tmp_path):
    def broken():
        raise ValueError("no")

    def exit_2():
        sys.exit(2)

    _, failed = executed([("ok", lambda: 7), ("exit", exit_2), ("broken", broken)], root=tmp_path)
    assert [label.split(":")[0] for label in failed] == ["exit", "broken"]


def test_every_worker_row_names_a_test_file_that_exists():
    rows = {name: where for name, (reason, where) in ALLOWED.items() if reason == WORKER}
    assert rows
    for name, where in rows.items():
        assert where.startswith("tests/") and (ROOT / where).is_file(), name


# ----------------------------------------------------------------------
# the report (``make census``)
# ----------------------------------------------------------------------
_OUTSIDE = (
    ("tests", (ROOT / "tests",)),
    ("benchmarks/perf", (PERF,)),
    ("benchmarks", (ROOT / "benchmarks",)),
    ("examples", (ROOT / "examples",)),
)


def _reached_outside():
    """Bare name → the places outside ``src/`` whose code references it."""
    reached = defaultdict(list)
    for label, roots in _OUTSIDE:
        for path in _python_files(*roots):
            if label == "benchmarks" and PERF in path.parents:
                continue
            for node in ast.walk(_tree(path)):
                for name in _referenced_name(node):
                    if label not in reached[name]:
                        reached[name].append(label)
    return reached


def report():
    """The census as text: unreferenced names (listed or not), unturned knobs,
    unread counters, unset fields."""
    reached = _reached_outside()
    found = unreferenced(allowed={})
    # A class's methods go with it; report the class only.
    shown = {
        key: node
        for key, node in found.items()
        if "." not in key[1] or (key[0], key[1].split(".")[0]) not in found
    }
    rows = {"not allow-listed": [], "allow-listed": []}
    kept = _unreferenced_names()
    for (module, qualified), node in sorted(shown.items()):
        entry = ALLOWED.get(qualified)
        if entry is None and qualified not in kept:
            # Alive through an allow-listed caller: not the census's to report.
            continue
        group = "allow-listed" if qualified not in kept else "not allow-listed"
        where = ", ".join(reached.get(node.name, [])) or "nowhere"
        line = f"  {module}:{node.lineno} {qualified} ({_lines(node)} lines); reached from {where}"
        if entry is not None:
            line += f"\n      {entry[0]}: {entry[1]}"
        rows[group].append(line)
    lines = []
    for group, group_rows in rows.items():
        lines.append(f"Definitions nothing in src/ reaches, {group} ({len(group_rows)}):")
        lines.extend(group_rows or ["  (none)"])
    knobs = unpassed(allowed={})
    lines.append(f"Defaulted parameters nothing passes ({len(knobs)}):")
    for key, (module, line) in sorted(knobs.items(), key=lambda item: item[1]):
        entry = ALLOWED_KNOBS.get(key)
        suffix = f" [{entry[0]}: {entry[1]}]" if entry else ""
        lines.append(f"  {module}:{line} {key}{suffix}")
    counters = unread_counters(allowed={})
    lines.append(f"Counters nothing in src/ reads ({len(counters)}):")
    for key, (module, line) in sorted(counters.items(), key=lambda item: item[1]):
        entry = ALLOWED_COUNTERS.get(key)
        suffix = f" [{entry[0]}: {entry[1]}]" if entry else ""
        lines.append(f"  {module}:{line} {key}{suffix}")
    fields, _ = _config_census()
    unset = unset_fields()
    lines.append(f"Config fields no flag exposes and no call sets ({len(unset)} of {len(fields)}):")
    for key, line in sorted(unset.items(), key=lambda item: item[1]):
        lines.append(f"  experiments/config.py:{line} {key}")
    return "\n".join(lines)


def _main(argv):
    if argv != ["--exec"]:
        print(report())
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        ran, failed = executed(product_paths(scratch))
    text, green = exec_report(ran, failed)
    print(text)
    return 0 if green else 1


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
