"""What loads when: the CLI's set-up window, a package import, and the
family catalogue.

``import repro.cli`` loads the CLI and the run stack every scenario run
executes, and nothing else; a family module, and every subsystem only
some runs use, loads the first time a run uses it.  The census below is
an exact allow-list, so a new eager import fails a test by name (a
module count or an ``-X importtime`` budget would only drift).
"""

from __future__ import annotations

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
    "repro", "repro._version", "repro.cli", "repro.errors",
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

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in pathlib.Path(SRC, "repro").rglob("__init__.py")
)


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


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_none_of_its_submodules(package):
    # A package is its docstring: ``import repro.core`` costs one module,
    # and each submodule loads when something imports it by name.
    loaded = _loaded_after(f"import {package}")
    assert [name for name in loaded if name.startswith("repro")] == sorted(
        {"repro", package}
    )
    assert "numpy" not in loaded


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
