"""Doc-vs-CLI consistency: ``docs/cli.md`` must cover the real parser.

The test introspects :func:`repro.cli.build_parser` and fails when a
sub-command or a long option exists in the code but is not mentioned in
the documentation page, when a flag a family's config declares has no
row in that family's table, or when a row's default column is not what
the parser uses — so the docs cannot silently rot as the CLI grows.  The
same goes for the scenario registry and the "Registered families" table
of ``docs/architecture.md``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import pytest

from repro.cli import _shown, build_parser
from repro.experiments import registry
from repro.experiments.params import cli_params

DOC_PATH = Path(__file__).resolve().parents[1] / "docs" / "cli.md"
ARCHITECTURE_PATH = DOC_PATH.with_name("architecture.md")


@pytest.fixture(scope="module")
def doc_text() -> str:
    assert DOC_PATH.exists(), f"missing CLI documentation: {DOC_PATH}"
    return DOC_PATH.read_text(encoding="utf-8")


def _subcommands(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("the CLI parser has no sub-commands")


def test_every_subcommand_is_documented(doc_text):
    for name in _subcommands(build_parser()):
        assert f"`{name}`" in doc_text, (
            f"sub-command {name!r} is not documented in docs/cli.md"
        )


def test_every_long_option_is_documented(doc_text):
    for name, subparser in _subcommands(build_parser()).items():
        for action in subparser._actions:
            for option in action.option_strings:
                if not option.startswith("--") or option == "--help":
                    continue
                assert option in doc_text, (
                    f"option {option!r} of sub-command {name!r} is not "
                    "documented in docs/cli.md"
                )


def test_shared_testbed_options_are_documented(doc_text):
    for option in ("--servers", "--workers", "--cores", "--seed", "--version"):
        assert option in doc_text


def test_doc_mentions_no_stale_subcommand(doc_text):
    """Headings in the doc must correspond to real sub-commands."""
    real = set(_subcommands(build_parser()))
    for line in doc_text.splitlines():
        if line.startswith("## `") and "`" in line[4:]:
            documented = line[4:].split("`", 1)[0]
            if documented.startswith("srlb-repro") or documented.startswith("--"):
                continue
            assert documented in real, (
                f"docs/cli.md documents {documented!r}, which is not a "
                "sub-command of the CLI"
            )


def _flag_tables(doc_text):
    """``{section: {flag: default column}}`` over the page's option tables.

    A section is keyed by the first back-quoted word of its ``##``
    heading (the sub-command), or by the whole heading when it has none.
    """
    tables, section = {}, None
    for line in doc_text.splitlines():
        if line.startswith("## "):
            heading = line[3:]
            section = heading.split("`")[1] if "`" in heading else heading
        elif line.startswith("| `--"):
            option, default, _meaning = (cell.strip() for cell in line.strip("|").split("|", 2))
            tables.setdefault(section, {})[option.strip("`").split()[0]] = default
    return tables


def _default_as_documented(value) -> str:
    if value is None:
        return "—"
    if value is False:
        return "off"
    if isinstance(value, tuple):
        return ", ".join(map(_shown, value))
    return str(value)


def _same_default(documented: str, value) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(documented) == value
        except ValueError:
            return False
    return documented == _default_as_documented(value)


def test_every_documented_default_is_the_parsers(doc_text):
    tables = _flag_tables(doc_text)
    subcommands = _subcommands(build_parser())
    # Sections that are not a sub-command's ("Shared testbed options",
    # the telemetry pair) document flags many sub-commands have.
    shared = {
        flag: default
        for section, rows in tables.items()
        if section not in subcommands
        for flag, default in rows.items()
    }
    declared = {
        spec.name: {d.flag: d for d in cli_params(spec.default_config())}
        for spec in registry.specs()
    }
    checked = 0
    for name, subparser in subcommands.items():
        rows = tables.get(name, {})
        for flag, action in subparser._option_string_actions.items():
            if not flag.startswith("--") or flag == "--help":
                continue
            table = declared.get(name, {}).get(flag)
            if table is not None:
                assert flag in rows or flag in shared, (
                    f"{name} {flag} has no row in the `{name}` table of docs/cli.md"
                )
            documented = rows.get(flag, shared.get(flag))
            if documented is None:
                continue  # documented in prose only
            # A repeatable flag parses as None when absent; what the run
            # then uses is the default its field declares.
            value = table.default if table is not None and table.repeat else action.default
            assert _same_default(documented, value), (
                f"docs/cli.md says {name} {flag} defaults to {documented!r}; "
                f"the parser uses {_default_as_documented(value)!r}"
            )
            checked += 1
    assert checked >= sum(len(rows) for rows in tables.values())
    # A row documents a flag its sub-command really has.
    for section, rows in tables.items():
        if section in subcommands:
            assert set(rows) <= set(subcommands[section]._option_string_actions)


def test_registered_families_table_matches_the_registry():
    """One row per registered family, naming the module that registers it."""
    text = ARCHITECTURE_PATH.read_text(encoding="utf-8")
    table = text.split("Registered families", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for line in table.splitlines()[2:]:  # skip the header and its rule
        scenario, _cells, module = (cell.strip(" `") for cell in line.strip("|").split("|"))
        documented[scenario] = module
    assert documented == {
        name: type(registry.get(name)).__module__ for name in registry.names()
    }


def test_counter_table_names_every_testbed_counter():
    """One row per ``Testbed.counters()`` key of a tier testbed with a
    fault pipeline: the table and the dict name the same counters."""
    from repro.experiments.config import TestbedConfig, sr_policy
    from repro.experiments.platform import build_testbed
    from repro.net.faults import FaultConfig, install_fault_channel

    text = ARCHITECTURE_PATH.read_text(encoding="utf-8")
    table = text.split("**Testbed counters.**", 1)[1].split("\n\n", 2)[1]
    documented = [
        line.strip("|").split("|")[0].strip(" `") for line in table.splitlines()[2:]
    ]
    config = TestbedConfig(num_servers=2, workers_per_server=4, num_load_balancers=2)
    with build_testbed(config, sr_policy(4)) as testbed:
        testbed.fault_pipeline = install_fault_channel(
            testbed.simulator, testbed.fabric, FaultConfig()
        )
    assert sorted(documented) == sorted(testbed.counters())
