"""Figure-rendering coverage, driven by the scenario registry.

Every registered scenario family must render its headline figure from a
tiny (smoke) configuration — so figure code cannot silently break as the
registry grows, and a new family cannot register without a working
``render``.  The classic per-figure helpers of
:mod:`repro.experiments.figures` are exercised on the same cheap runs.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import figures, registry
from repro.experiments.scenario import ScenarioResult, ScenarioSpec, run_scenario


@pytest.fixture(scope="module")
def smoke_results():
    """One smoke-config run per registered scenario (shared by the tests)."""
    return {
        spec.name: run_scenario(spec, spec.smoke_config(), jobs=1)
        for spec in registry.specs()
    }


def test_registry_is_not_empty():
    assert len(registry.names()) >= 5


@pytest.mark.parametrize("name", registry.names())
def test_every_registered_scenario_renders_its_figure(name, smoke_results):
    spec = registry.get(name)
    text = spec.render(smoke_results[name])
    assert isinstance(text, str)
    assert text.strip(), f"scenario {name!r} rendered an empty figure"
    # A rendered figure is a titled table: multiple lines, headed.
    assert len(text.splitlines()) >= 3


def test_render_without_figure_is_loud():
    class Bare(ScenarioSpec):
        name = "bare"

        def default_config(self):
            return None

        def smoke_config(self):
            return None

        def cells(self, config, **options):
            return []

        def make_trace(self, config, cell):
            raise NotImplementedError

        def run_once(self, config, cell, trace):
            raise NotImplementedError

        def aggregate(self, config, cells, payloads, trace_for):
            raise NotImplementedError

    with pytest.raises(ExperimentError, match="defines no figure"):
        Bare().render(ScenarioResult(scenario="bare", config=None))


# ----------------------------------------------------------------------
# classic per-figure helpers on the smoke runs
# ----------------------------------------------------------------------
def test_figure2_table_from_smoke_sweep(smoke_results):
    table = figures.render_figure2(smoke_results["poisson"])
    assert "Figure 2" in table
    assert "RR" in table and "SR4" in table


def test_figure_cdf_table_from_smoke_sweep(smoke_results):
    sweep = smoke_results["poisson"]
    runs = {name: sweep.run((name, rho)) for name, rho in sweep.keys()}
    table = figures.render_figure_cdf(runs, title="smoke CDF")
    assert "smoke CDF" in table


def test_figures_6_7_8_from_smoke_replay(smoke_results):
    replay = smoke_results["wikipedia"]
    assert "Figure 6" in figures.render_figure6(replay)
    for name in replay.keys():
        assert "Figure 7" in figures.render_figure7(replay, name)
    assert "Figure 8" in figures.render_figure8(replay)
