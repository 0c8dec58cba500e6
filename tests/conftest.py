"""Shared pytest fixtures for the SRLB reproduction test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import TestbedConfig
from repro.net.addressing import IPv6Address
from repro.sim.engine import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--telemetry",
        action="store_true",
        help="attach the telemetry probe to every testbed the `observe` fixture "
        "configures (make telemetry-smoke runs the scenario goldens this way)",
    )


@pytest.fixture(scope="session")
def observe(request):
    """``config -> config``: under ``pytest --telemetry`` the family config's
    testbed gets ``telemetry=True``; otherwise the config is unchanged."""
    if not request.config.getoption("--telemetry"):
        return lambda config: config
    return lambda config: replace(config, testbed=replace(config.testbed, telemetry=True))


@pytest.fixture(scope="session")
def series_of():
    """``(payload, name) -> (times, values)``: one series of a telemetry
    payload, found by name in its parallel lists."""

    def series(payload, name):
        index = payload.names.index(name)
        return payload.times[index], payload.values[index]

    return series


@pytest.fixture
def simulator() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for workload/test draws."""
    return np.random.default_rng(1234)


@pytest.fixture
def addresses():
    """A handful of distinct IPv6 addresses for building packets."""
    return {
        "client": IPv6Address.parse("fd00:200::1"),
        "lb": IPv6Address.parse("fd00:400::1"),
        "vip": IPv6Address.parse("fd00:300::1"),
        "server1": IPv6Address.parse("fd00:100::1"),
        "server2": IPv6Address.parse("fd00:100::2"),
        "server3": IPv6Address.parse("fd00:100::3"),
    }


@pytest.fixture
def small_testbed_config() -> TestbedConfig:
    """A reduced testbed (4 servers, 8 workers) for fast integration tests."""
    return TestbedConfig(
        num_servers=4,
        workers_per_server=8,
        cores_per_server=2,
        backlog_capacity=16,
        seed=7,
    )


@pytest.fixture
def paper_testbed_config() -> TestbedConfig:
    """The paper's testbed dimensions (12 servers, 32 workers, 2 cores)."""
    return TestbedConfig()
