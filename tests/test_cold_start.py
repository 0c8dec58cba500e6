"""What loads when: the CLI's set-up window, the family catalogue, and the
lazily loaded package exports.

``import repro.cli`` loads the CLI and the run stack every scenario run
executes, and nothing else; a family module, and every subsystem only
some runs use, loads the first time a run uses it.  The census below is
an exact allow-list, so a new eager import fails a test by name (a
module count or an ``-X importtime`` budget would only drift).
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import ExperimentError
from repro.experiments import registry

SRC = str(pathlib.Path(repro.__file__).parents[1])

#: Every ``repro`` module loaded by ``import repro.cli`` + ``registry.names()``:
#: the CLI, the catalogue and config, and the run stack (``scenario``,
#: ``platform`` and what they import).
SET_UP_WINDOW = {
    "repro", "repro._lazy", "repro._version", "repro.cli", "repro.errors",
    "repro.core", "repro.core.agent", "repro.core.candidate_selection",
    "repro.core.flow_table", "repro.core.loadbalancer", "repro.core.policies",
    "repro.core.service_hunting",
    "repro.experiments", "repro.experiments.config", "repro.experiments.params",
    "repro.experiments.platform", "repro.experiments.registry",
    "repro.experiments.scenario",
    "repro.metrics", "repro.metrics.binning", "repro.metrics.collector",
    "repro.metrics.reporting", "repro.metrics.stats",
    "repro.net", "repro.net.addressing", "repro.net.channel", "repro.net.fabric",
    "repro.net.packet", "repro.net.router", "repro.net.srh", "repro.net.tcp",
    "repro.server", "repro.server.backlog", "repro.server.cpu",
    "repro.server.http_server", "repro.server.scoreboard",
    "repro.server.virtual_router", "repro.server.worker_pool",
    "repro.sim", "repro.sim.clock", "repro.sim.engine", "repro.sim.random_streams",
    "repro.workload", "repro.workload.client", "repro.workload.requests",
    "repro.workload.trace",
}  # fmt: skip

#: Loaded on first use, never at set-up (named so a failure reads as a rule).
LOADED_ON_USE = (
    "repro.analysis", "repro.control", "repro.experiments.calibration",
    "repro.experiments.figures", "repro.telemetry", "repro.telemetry.probe",
    "repro.telemetry.bus",
    "repro.core.lb_tier", "repro.net.ecmp", "repro.core.consistent_hash",
    "repro.net.faults", "repro.sim.partition", "multiprocessing",
)  # fmt: skip

PACKAGES = (
    "repro", "repro.analysis", "repro.control", "repro.core", "repro.experiments",
    "repro.metrics", "repro.net", "repro.server", "repro.sim", "repro.telemetry",
    "repro.workload",
)  # fmt: skip


def _loaded_after(code: str) -> list:
    """``sys.modules`` (repro, numpy, multiprocessing) after ``code`` runs fresh."""
    probe = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith("
        "('repro', 'numpy', 'multiprocessing')))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


SET_UP = "import repro.cli\nfrom repro.experiments import registry\nregistry.names()"


class TestSetUpWindow:
    def test_import_and_catalogue_load_exactly_the_run_stack(self):
        loaded = _loaded_after(SET_UP)
        assert {name for name in loaded if name.startswith("repro")} == SET_UP_WINDOW
        assert "numpy" in loaded
        assert not [name for name in loaded if name.endswith("_experiment")]
        assert [name for name in LOADED_ON_USE if name in loaded] == []

    @pytest.mark.parametrize(
        "argv", [["--help"], ["scenarios"], ["poisson", "--help"]], ids=" ".join
    )
    def test_help_and_the_catalogue_table_import_no_family(self, argv):
        loaded = _loaded_after(
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.suppress(SystemExit):\n"
            f"    assert repro.cli.main({argv!r}) == 0\n"
        )
        assert not [name for name in loaded if name.endswith("_experiment")]

    def test_a_run_loads_its_own_family_only(self):
        loaded = _loaded_after(
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert repro.cli.main(['poisson', '--servers', '2', '--workers', '4',\n"
            "        '--queries', '20', '--rho', '0.5', '--policy', 'RR']) == 0\n"
        )
        assert [name for name in loaded if name.endswith("_experiment")] == [
            "repro.experiments.poisson_experiment"
        ]
        assert "multiprocessing" not in loaded and "repro.core.lb_tier" not in loaded


class TestCatalogue:
    """Each row holds what is known of a family before its module loads;
    the module's registered spec must agree with it."""

    @pytest.mark.parametrize("row", registry.families(), ids=lambda row: row.name)
    def test_row_matches_what_its_module_registers(self, row):
        spec = registry.get(row.name)
        assert spec.name == row.name
        assert type(spec).__module__ == row.module
        assert type(spec.default_config()) is row.config
        assert spec.title == row.title
        # One source per fact: a built-in spec restates neither.
        assert not {"title", "default_config"} & set(vars(type(spec)))

    def test_get_of_an_unknown_name_lists_the_catalogue(self):
        with pytest.raises(ExperimentError, match=r"unknown scenario 'nope': registered .*poisson"):
            registry.get("nope")


class TestLazyExports:
    """PEP 562 package exports: one table per package, loaded on first use."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_is_the_defining_modules_object(self, package):
        module = importlib.import_module(package)
        assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.ismodule(value):
                assert value is sys.modules[f"{package}.{name}"]
                continue
            owners = [
                sub
                for sub_name, sub in list(sys.modules.items())
                if sub_name.startswith(f"{package}.") and vars(sub).get(name) is value
            ]
            assert owners, f"{package}.{name} is defined by none of its submodules"
            if inspect.isclass(value) or inspect.isfunction(value):
                assert getattr(sys.modules[value.__module__], name) is value

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro.experiments import *", namespace)
        import repro.experiments

        assert set(repro.experiments.__all__) <= set(namespace)
        assert namespace["run_scenario"] is repro.experiments.scenario.run_scenario

    def test_submodule_attributes_resolve_before_their_first_import(self):
        loaded = _loaded_after(
            "import repro.core, repro.telemetry\n"
            "assert 'repro.core.lb_tier' not in sys.modules\n"
            "assert repro.core.lb_tier is sys.modules['repro.core.lb_tier']\n"
            "assert repro.telemetry.probe.attach_telemetry\n"
        )
        assert "repro.core.lb_tier" in loaded and "repro.telemetry.probe" in loaded

    @pytest.mark.parametrize("package", PACKAGES)
    def test_an_unknown_name_is_an_attribute_error_naming_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=rf"module '{package}' has no attribute 'nope'"):
            module.nope  # noqa: B018
