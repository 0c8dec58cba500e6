"""The generated sub-commands, registry-wide: no test here names a family.

Every scenario family gets its sub-command from the parameter table its
config declares (``repro.experiments.params``).  These tests walk the
registry and that table, so a new family — or a new flag — is covered
the moment it is registered.
"""

import argparse
import ast
import dataclasses
import multiprocessing
import pathlib
import time

import pytest

import repro.cli
from repro.cli import build_parser, config_from_args, main
from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.config import PolicySpec, TestbedConfig
from repro.experiments.params import POSITIVE, check_bounds, cli_params, param
from repro.experiments.scenario import ScenarioCell, ScenarioSpec
from repro.workload.trace import Trace

SPECS = registry.specs()


def _flags(spec):
    return list(cli_params(spec.default_config()))


def _subparser(name):
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise AssertionError("the CLI parser has no sub-commands")


def _flat(config, prefix=()):
    """``{path: value}`` over a config and the configs nested in it."""
    flat = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            flat.update(_flat(value, prefix + (field.name,)))
        else:
            flat[prefix + (field.name,)] = value
    return flat


def _parsed_config(spec, argv=()):
    return config_from_args(spec, build_parser().parse_args([spec.name, *argv]))


# ----------------------------------------------------------------------
# bad input ends in one line
# ----------------------------------------------------------------------
#: What the flags that are not fields feed (the name their error carries).
NON_FIELD_FLAGS = {
    "--kill-at": "at_fraction",
    "--add-at": "at_fraction",
    "--time-factor": "time_factor",
}

FLOAT_FLAGS = [
    pytest.param(spec, declared, id=f"{spec.name}{declared.flag}")
    for spec in SPECS
    for declared in _flags(spec)
    if declared.kind is float
]


class TestNonFiniteValues:
    """``nan``/``inf`` on any float flag: one ``error:`` line naming the field."""

    def test_every_family_has_float_flags(self):
        assert {spec.values[0].name for spec in FLOAT_FLAGS} == set(registry.names())
        assert {d.flag for d in (p.values[1] for p in FLOAT_FLAGS) if not d.path} == set(
            NON_FIELD_FLAGS
        )

    @pytest.mark.parametrize("spec, declared", FLOAT_FLAGS)
    def test_rejected_at_the_config_by_name(self, spec, declared, capsys):
        name = declared.path[-1] if declared.path else NON_FIELD_FLAGS[declared.flag]
        for value in ("nan", "inf", "-inf"):
            status = main([spec.name, f"{declared.flag}={value}"])
            captured = capsys.readouterr()
            assert status == 2, (value, captured)
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ") and name in line, line
        assert multiprocessing.active_children() == []

    def test_the_whole_matrix_is_fast(self, capsys):
        started = time.perf_counter()
        for case in FLOAT_FLAGS:
            spec, declared = case.values
            for value in ("nan", "inf", "-inf"):
                assert main([spec.name, f"{declared.flag}={value}"]) == 2
        capsys.readouterr()
        assert time.perf_counter() - started < 5.0


#: Numeric flags that declare no bound of their own: a cross-field rule
#: of their config holds each (or, for a flag that is not a field, the
#: value it derives), and names it in its error.
CROSS_FIELD_FLAGS = {
    ("adversarial", "--collision-target"),  # an index into the tier
    ("autoscale", "--max-servers"),  # >= --min-servers
    ("chaos", "--shed-watermark"),  # in [0, backlog capacity]
    ("resilience", "--kill-at"),  # a churn event's at_fraction
    ("resilience", "--add-at"),
    ("autoscale", "--time-factor"),  # AutoscaleConfig.scaled
}

INT_FLAGS = [
    pytest.param(spec, declared, id=f"{spec.name}{declared.flag}")
    for spec in SPECS
    for declared in _flags(spec)
    if declared.kind is int
]


def _below_bound(declared):
    """The largest of 0 and -1 that ``declared`` does not accept."""
    for value in (0, -1):
        try:
            declared.bound(declared.dest, value)
        except ReproError:
            return value
    raise AssertionError(f"{declared.flag} accepts both 0 and -1")


class TestBounds:
    """Every numeric flag has a legal range, enforced before any process."""

    def test_every_numeric_flag_declares_a_bound_or_choices(self):
        unbounded = {
            (spec.name, declared.flag)
            for spec in SPECS
            for declared in _flags(spec)
            if declared.kind in (int, float)
            and declared.bound is None
            and declared.choices is None
        }
        assert unbounded == CROSS_FIELD_FLAGS

    @pytest.mark.parametrize("spec, declared", INT_FLAGS)
    def test_an_int_below_its_bound_fails_by_name_before_any_process(
        self, spec, declared, monkeypatch, capsys
    ):
        def refuse(process):
            raise AssertionError(f"{process.name} was started for an invalid config")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        value = -1 if declared.bound is None else _below_bound(declared)
        options = _subparser(spec.name)._option_string_actions
        fan_out = "--jobs" if "--jobs" in options else "--partitions"
        status = main([spec.name, declared.flag, str(value), fan_out, "2"])
        captured = capsys.readouterr()
        assert status == 2, captured
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and declared.path[-1] in line, line


class TestUnknownNames:
    """A policy, selector or scheme typo fails before any process starts."""

    @pytest.fixture
    def no_process(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a process was started for a config that is invalid")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--policy", "bogus"], "unknown connection-acceptance policy 'bogus'"),
            (["--scheme", "bogus"], "unknown candidate selector 'bogus'"),
        ],
    )
    def test_on_every_family_with_the_flag(self, argv, message, no_process, capsys):
        tried = 0
        for spec in SPECS:
            by_flag = {declared.flag: declared for declared in _flags(spec)}
            if argv[0] not in by_flag or by_flag[argv[0]].convert is not None:
                continue
            tried += 1
            # Two processes where the family can use them.
            options = _subparser(spec.name)._option_string_actions
            fan_out = "--jobs" if "--jobs" in options else "--partitions"
            assert main([spec.name, *argv, fan_out, "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"
        assert tried >= 1

    def test_a_sweep_policy_name_is_checked_too(self, no_process, capsys):
        for spec in SPECS:
            if any(d.flag == "--policy" and d.convert for d in _flags(spec)):
                assert main([spec.name, "--policy", "bogus", "--jobs", "2"]) == 2
                assert capsys.readouterr().err.startswith("error: unknown policy 'bogus'")

    def test_policy_spec_checks_both_of_its_names(self):
        with pytest.raises(ReproError, match="unknown connection-acceptance policy 'bogus'"):
            PolicySpec(name="x", acceptance_policy="bogus")
        with pytest.raises(ReproError, match="unknown candidate selector 'bogus'"):
            PolicySpec(name="x", acceptance_policy="SR4", selector="bogus")


# ----------------------------------------------------------------------
# the round trip: table → flags → config
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_no_arguments_is_the_default_config_but_for_the_cli_size_defaults(self):
        cli_sized = {
            (spec.name, declared.path)
            for spec in SPECS
            for declared in _flags(spec)
            if declared.cli_default is not None
        }
        assert len(cli_sized) == 7
        differing = set()
        for spec in SPECS:
            default, parsed = _flat(spec.default_config()), _flat(_parsed_config(spec))
            assert default.keys() == parsed.keys()
            differing |= {(spec.name, path) for path in default if default[path] != parsed[path]}
        # A shorter day keeps the paper's 144 bins: the width follows the duration.
        assert differing == cli_sized | {("wikipedia", ("bin_width",))}

    #: Legal values for the flags whose legal values are names.
    NAMES = {"--policy": "SR16", "--scheme": "round-robin"}

    def _another_legal_value(self, declared):
        default = declared.default[0] if declared.repeat and declared.default else declared.default
        if declared.choices:
            return next(choice for choice in reversed(declared.choices) if choice != default)
        if declared.flag in self.NAMES:
            return self.NAMES[declared.flag]
        if declared.kind is int:
            return default + 1
        assert declared.kind is float, declared
        return default * 1.01 if default else 0.25

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_a_flag_changes_its_own_field_and_no_other_flags(self, spec):
        baseline = _flat(_parsed_config(spec))
        owned = {declared.path for declared in _flags(spec) if declared.path}
        for declared in _flags(spec):
            value = self._another_legal_value(declared)
            parsed = _flat(_parsed_config(spec, [declared.flag, str(value)]))
            changed = {path for path in baseline if baseline[path] != parsed[path]}
            if not declared.path:  # not a field: it derives some
                assert changed, declared.flag
                continue
            assert declared.path in changed, declared.flag
            # Anything else that moved is derived, not another flag's field.
            assert not (changed - {declared.path}) & owned, (declared.flag, changed)
            expected = (value,) if declared.repeat else value
            if declared.convert is None:
                assert parsed[declared.path] == expected

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_help_exits_zero(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([spec.name, "--help"])
        assert excinfo.value.code == 0
        assert f"srlb-repro {spec.name}" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_parser_choices_are_the_choices_the_config_validates(self, spec):
        actions = _subparser(spec.name)._option_string_actions
        for declared in _flags(spec):
            action = actions[declared.flag]
            if declared.choices is None:
                assert action.choices is None, declared.flag
            else:
                assert tuple(action.choices) == declared.choices, declared.flag

    def test_repeatable_flags_keep_order_and_drop_repeats(self):
        for spec in SPECS:
            for declared in _flags(spec):
                if not (declared.repeat and declared.choices):
                    continue
                first, second = declared.choices[1], declared.choices[0]
                argv = [declared.flag, first, declared.flag, second, declared.flag, first]
                assert _flat(_parsed_config(spec, argv))[declared.path] == (first, second)


# ----------------------------------------------------------------------
# a new family is a config, not a CLI block
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _EchoConfig:
    testbed: TestbedConfig = param(default_factory=TestbedConfig, expose=("num_servers",))
    volume: float = param(1.5, "--volume", "how loud", POSITIVE)
    words: tuple = param(("hello",), "--word", "what to say", choices=("hello", "bye"))

    def __post_init__(self):
        check_bounds(self)


class _EchoScenario(ScenarioSpec):
    """Overrides neither ``config_from_flags`` nor ``report``."""

    name = "echo-test-family"
    title = "throw-away family of tests/test_cli_table.py"

    def default_config(self):
        return _EchoConfig()

    smoke_config = default_config

    def cells(self, config):
        return [ScenarioCell(key=word) for word in config.words]

    def make_trace(self, config, cell):
        return Trace((), name="echo")

    def run_once(self, config, cell, trace):
        return f"{cell.key} x{config.volume:g} on {config.testbed.num_servers}"

    def render(self, result):
        return " | ".join(result.run(key) for key in result.keys())


class TestANewFamily:
    @pytest.fixture
    def echo(self):
        spec = registry.register(_EchoScenario())
        yield spec
        del registry._SCENARIOS[spec.name]

    def test_gets_a_working_sub_command_from_its_config_alone(self, echo, capsys):
        argv = [echo.name, "--servers", "3", "--volume", "2", "--word", "bye", "--word", "hello"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "bye x2 on 3 | hello x2 on 3\n"
        assert main([echo.name, "--volume", "nan"]) == 2
        assert capsys.readouterr().err == "error: volume must be positive, got nan\n"
        assert main([echo.name, "--servers", "0"]) == 2
        assert "num_servers must be positive" in capsys.readouterr().err

    def test_scenario_spec_has_two_hooks_and_each_has_three_users(self):
        hooks = ("config_from_flags", "report")
        for hook in hooks:
            users = [spec.name for spec in SPECS if hook in vars(type(spec))]
            assert len(users) >= 3, (hook, users)
        assert not {"config_from_flags", "report"} & ScenarioSpec.__abstractmethods__


# ----------------------------------------------------------------------
# cli.py stays family-free
# ----------------------------------------------------------------------
class TestCliStaysFamilyFree:
    TREE = ast.parse(pathlib.Path(repro.cli.__file__).read_text(encoding="utf-8"))

    def test_no_family_module_is_imported(self):
        imported = set()
        for node in ast.walk(self.TREE):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert not [name for name in imported if name.endswith("_experiment")]

    def test_flags_are_added_by_the_generic_adder_or_the_four_hand_written_commands(self):
        # Where an ``add_argument(`` may sit: function -> receivers.
        allowed = {
            "_add_params": {"parser"},
            "_add_run_arguments": {"parser"},
            "build_parser": {"parser", "calibrate", "figure", "scenarios", "dashboard"},
        }
        seen = set()
        for function in ast.walk(self.TREE):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"
                ):
                    receiver = node.func.value.id
                    assert receiver in allowed.get(function.name, ()), (
                        f"{function.name}: {receiver}.add_argument — a family's flags "
                        "belong on its config fields (repro.experiments.params)"
                    )
                    seen.add(function.name)
        assert seen == set(allowed)
