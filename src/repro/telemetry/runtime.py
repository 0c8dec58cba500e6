"""Telemetry enablement and the per-process publish buffer.

Telemetry is strictly opt-in: the probe only attaches to testbeds while
:func:`telemetry_enabled` is true.  Enablement rides in an environment
variable (``REPRO_TELEMETRY``) rather than module state so it survives
every process boundary the experiment harness crosses — ``jobs``
workers and partition workers inherit the parent's environment under
both fork and spawn start methods.

Published payloads accumulate in a per-process buffer: a worker's
:func:`repro.experiments.scenario._run_scenario_cell` drains its own
buffer and ships the payloads home inside the cell result; the parent's
:func:`~repro.experiments.scenario.run_scenario` folds them into a
:class:`TelemetryReport` that the CLI reads back via
:func:`last_report`.
"""

from __future__ import annotations

import os
from math import isfinite
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import TelemetryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import TelemetryPayload

#: Enablement flag; any non-empty value other than ``0`` enables.
ENV_FLAG = "REPRO_TELEMETRY"
#: Sampling interval override, simulated seconds (default 0.25).
ENV_INTERVAL = "REPRO_TELEMETRY_INTERVAL"
#: Ring-capacity override (default repro.telemetry.bus.DEFAULT_CAPACITY).
ENV_CAPACITY = "REPRO_TELEMETRY_CAPACITY"

DEFAULT_INTERVAL = 0.25

_published: List[Tuple[str, TelemetryPayload]] = []
_last_report: Optional["TelemetryReport"] = None


def enable() -> None:
    """Turn telemetry on for this process and its future children."""
    os.environ[ENV_FLAG] = "1"


def disable() -> None:
    """Turn telemetry off (and clear any buffered payloads)."""
    os.environ.pop(ENV_FLAG, None)
    _published.clear()


def telemetry_enabled() -> bool:
    """Whether testbeds should attach a telemetry probe."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def sampling_interval() -> float:
    """The probe's sampling period, in simulated seconds.

    Unset or empty means :data:`DEFAULT_INTERVAL`; anything else must be
    a finite positive number.
    """
    raw = os.environ.get(ENV_INTERVAL, "")
    if not raw:
        return DEFAULT_INTERVAL
    try:
        interval = float(raw)
    except ValueError:
        interval = 0.0
    if not (interval > 0 and isfinite(interval)):
        raise TelemetryError(
            f"{ENV_INTERVAL}={raw}: expected a finite positive number of seconds"
        )
    return interval


def ring_capacity() -> Optional[int]:
    """Ring-capacity override, or ``None`` (unset or empty) for the bus default."""
    raw = os.environ.get(ENV_CAPACITY, "")
    if not raw:
        return None
    try:
        capacity = int(raw)
    except ValueError:
        capacity = 0
    if capacity <= 0:
        raise TelemetryError(f"{ENV_CAPACITY}={raw}: expected a positive integer")
    return capacity


# ----------------------------------------------------------------------
# per-process publish buffer
# ----------------------------------------------------------------------
def publish(run_name: str, payload: TelemetryPayload) -> None:
    """Deposit one finished run's payload in this process's buffer."""
    _published.append((run_name, payload))


def drain() -> List[Tuple[str, TelemetryPayload]]:
    """Take (and clear) everything published in this process so far."""
    drained, _published[:] = list(_published), []
    return drained


class TelemetryReport:
    """Merged telemetry of one scenario run: one payload per cell key."""

    def __init__(self) -> None:
        self._cells: Dict[Any, TelemetryPayload] = {}

    def add(self, key: Any, payloads: List[Tuple[str, TelemetryPayload]]) -> None:
        """Fold one cell's published payloads in (no-op when empty)."""
        if not payloads:
            return
        # The bus (and its ring buffers) loads on the first merge, not
        # with every run that only asks whether telemetry is on.
        from repro.telemetry.bus import TelemetryPayload

        merged = TelemetryPayload.merge([payload for _name, payload in payloads])
        existing = self._cells.get(key)
        if existing is not None:
            merged = TelemetryPayload.merge([existing, merged])
        self._cells[key] = merged

    def keys(self) -> List[Any]:
        """Cell keys with telemetry, in insertion order."""
        return list(self._cells)

    def payload(self, key: Any) -> TelemetryPayload:
        """The merged payload of one cell."""
        return self._cells[key]

    def items(self) -> List[Tuple[Any, TelemetryPayload]]:
        """``(key, payload)`` pairs, in insertion order."""
        return list(self._cells.items())

    def __len__(self) -> int:
        return len(self._cells)

    def __bool__(self) -> bool:
        return bool(self._cells)


def set_last_report(report: Optional[TelemetryReport]) -> None:
    """Record the most recent scenario run's report (parent side)."""
    global _last_report
    _last_report = report


def last_report() -> Optional[TelemetryReport]:
    """The report of the most recent scenario run, if any."""
    return _last_report
