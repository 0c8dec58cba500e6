"""Unit tests for telemetry rendering: sparklines, the terminal summary,
the HTML dashboard and the on-disk report format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry.anomaly import AnomalyEvent
from repro.telemetry.bus import TelemetryBus, TelemetryPayload
from repro.telemetry.render import (
    SPARKLINE_WIDTH,
    load_report,
    render_dashboard,
    render_summary,
    report_from_json_dict,
    report_to_json_dict,
    save_report,
    sparkline,
)

_BLOCKS = "▁▂▃▄▅▆▇█"


def _payload(anomalies=(), meta=None):
    bus = TelemetryBus(capacity=64)
    for step in range(10):
        bus.record("lb.offered", float(step), float(step))
        bus.record("server.busy<0>", float(step), 3.0)
    return bus.export_payload(anomalies=anomalies, meta=meta)


def _spike():
    return AnomalyEvent(
        time=4.0, series="lb.offered", kind="spike", value=9.0,
        expected=2.0, residual=7.0, threshold=3.0,
    )


class TestSparkline:
    def test_empty_and_non_finite_series_render_nothing(self):
        assert sparkline([]) == ""
        assert sparkline([float("nan"), float("inf")]) == ""

    def test_one_character_per_value_up_to_the_width(self):
        line = sparkline(range(SPARKLINE_WIDTH))
        assert len(line) == SPARKLINE_WIDTH
        assert line[0] == _BLOCKS[0]
        assert line[-1] == _BLOCKS[-1]

    def test_longer_series_are_bucket_averaged_to_the_width(self):
        values = np.repeat([0.0, 1.0], 4 * SPARKLINE_WIDTH)
        line = sparkline(values)
        assert len(line) == SPARKLINE_WIDTH
        half = SPARKLINE_WIDTH // 2
        assert line == _BLOCKS[0] * half + _BLOCKS[-1] * half

    def test_a_flat_series_is_the_lowest_block(self):
        assert sparkline([5.0, 5.0, 5.0]) == _BLOCKS[0] * 3

    def test_non_finite_samples_are_dropped_not_drawn(self):
        assert sparkline([0.0, float("nan"), 1.0]) == _BLOCKS[0] + _BLOCKS[-1]

    def test_a_rising_series_never_steps_down(self):
        line = sparkline(np.linspace(0.0, 1.0, 20))
        levels = [_BLOCKS.index(char) for char in line]
        assert levels == sorted(levels)


class TestRenderSummary:
    def test_one_row_per_series_with_its_last_value(self):
        text = render_summary(_payload(), title="cell 0")
        lines = text.splitlines()
        assert lines[0] == "cell 0"
        rows = [line for line in lines if line.startswith(("lb.", "server."))]
        assert len(rows) == 2
        assert rows[0].split()[:4] == ["lb.offered", "gauge", "10", "9"]
        assert rows[1].split()[:4] == ["server.busy<0>", "gauge", "10", "3"]

    def test_anomalies_and_flight_dumps_are_listed(self):
        dump = {"reason": "drop-spike", "tripped_at": 4.5, "events": [1, 2]}
        text = render_summary(_payload([_spike()], {"flight_dumps": [dump]}))
        assert "anomalies (1):" in text
        assert "t=4.000s spike lb.offered value=9 expected=2" in text
        assert "flight dumps (1):" in text
        assert "drop-spike at t=4.500s (2 events)" in text

    def test_a_quiet_run_has_no_anomaly_section(self):
        assert "anomalies" not in render_summary(_payload())


class TestRenderDashboard:
    def test_one_chart_per_series_and_no_scripts(self):
        page = render_dashboard({0: _payload(), 1: _payload()})
        assert page.startswith("<!DOCTYPE html>")
        assert page.endswith("</html>")
        assert page.count("<svg ") == 4
        assert page.count("<polyline ") == 4
        assert "<script" not in page

    def test_the_tier_column_is_the_name_prefix(self):
        page = render_dashboard({0: _payload()})
        assert "<tr><td>lb.offered</td><td>gauge</td><td>lb</td>" in page
        assert "<tr><td>server.busy&lt;0&gt;</td><td>gauge</td><td>server</td>" in page

    def test_names_and_meta_are_escaped(self):
        page = render_dashboard({"<a>": _payload(meta={"policy": "SR<4>"})}, title="A & B")
        assert "<title>A &amp; B</title>" in page
        assert "cell &lt;a&gt;" in page
        assert "policy=SR&lt;4&gt;" in page
        assert "server.busy&lt;0&gt;" in page

    def test_an_empty_series_draws_an_empty_chart(self):
        empty = np.empty(0)
        payload = TelemetryPayload(
            capacity=4, names=("idle",), kinds=("gauge",),
            times=(empty,), values=(empty,),
        )
        page = render_dashboard({0: payload})
        assert "<polyline" not in page
        assert "<td>0</td><td>-</td>" in page

    def test_anomalies_are_listed(self):
        page = render_dashboard({0: _payload([_spike()])})
        assert "anomalies (1)" in page
        assert 'class="anomaly"' in page


class TestReportFormat:
    def test_save_then_load_round_trips(self, tmp_path):
        payload = _payload([_spike()], {"policy": "SR4"})
        path = save_report(tmp_path / "nested" / "report.json", [((0, "SR4"), payload)])
        [(key, loaded)] = load_report(path)
        assert key == "(0, 'SR4')"
        assert loaded.names == payload.names
        for before, after in zip(payload.values, loaded.values):
            assert after.tolist() == before.tolist()
        assert loaded.anomalies == payload.anomalies
        assert loaded.meta == {"policy": "SR4"}

    def test_a_report_saved_with_tier_keys_still_loads(self, tmp_path):
        data = report_to_json_dict([(0, _payload())])
        for series in data["cells"][0]["payload"]["series"]:
            series["tier"] = "legacy"
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        [(key, loaded)] = load_report(path)
        assert loaded.names == ("lb.offered", "server.busy<0>")
        assert "tier" not in json.dumps(loaded.to_json_dict())

    def test_the_json_names_its_format(self):
        data = report_to_json_dict([(0, _payload())])
        assert (data["format"], data["version"]) == ("repro-telemetry-report", 1)
        assert [key for key, _ in report_from_json_dict(data)] == ["0"]

    def test_a_foreign_json_is_refused(self):
        with pytest.raises(TelemetryError, match="not a telemetry report"):
            report_from_json_dict({"format": "something-else", "cells": []})

    def test_a_missing_file_is_refused(self, tmp_path):
        with pytest.raises(TelemetryError, match="not found"):
            load_report(tmp_path / "absent.json")

    def test_a_file_that_is_not_json_is_refused(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            load_report(path)

    def test_the_saved_file_is_plain_json(self, tmp_path):
        path = save_report(tmp_path / "report.json", [(0, _payload())])
        data = json.loads(path.read_text(encoding="utf-8"))
        assert [cell["key"] for cell in data["cells"]] == ["0"]
