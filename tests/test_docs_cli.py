"""Doc-vs-CLI consistency: ``docs/cli.md`` must cover the real parser.

The test introspects :func:`repro.cli.build_parser` and fails when a
sub-command or a long option exists in the code but is not mentioned in
the documentation page, so the docs cannot silently rot as the CLI
grows.  The same goes for the scenario registry and the "Registered
families" table of ``docs/architecture.md``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments import registry

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
