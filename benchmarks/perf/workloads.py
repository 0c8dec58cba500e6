"""The five benchmark workloads: their argv, their size, their output checks.

Replay (``sim`` -> ``net`` -> ``server`` -> ``core``) dominates every
scenario family, so the workloads are separated by *how* they use the
replay layers, not by family name; each ``why`` says what a workload
uses that the others do not.  Every workload is one closed-loop CLI
invocation (the benchmark starts the next one only after the previous
one returned) that keeps at most two processes busy.

Sizes are about a seventh of the issue's starting sizes (about 1.8 s per
invocation, import included), so that a driver run of ``run_seconds``
holds about ten timed invocations: the quartile it reports needs them.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: ``--quick`` divides every size by this, so that the whole smoke set
#: (timed, traced, profiled, microbenchmarks) fits in 15 s; the cProfile
#: pass halves the size, because cProfile triples the time.
QUICK_SCALE = 1 / 10
PROFILE_SCALE = 1 / 2


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    #: Scenario-registry name of the family the CLI sub-command runs.
    family: str
    #: CLI arguments before the size flag.
    head: Tuple[str, ...]
    #: The flag that sizes the run, its full-size value and its floor.
    size_flag: str
    size: int
    floor: int
    #: CLI arguments after the size flag (policies, load factors, ...).
    tail: Tuple[str, ...]
    #: ``(flag, value)`` that makes the run multi-process; the traced and
    #: profiled passes replace the value by ``1`` (results are identical
    #: for any value -- the repository's determinism contract).
    parallel: Optional[Tuple[str, str]]
    #: Queries replayed, from the sized value and the run's stdout.
    queries: Callable[[int, str], int]
    #: Output checks: ``(stdout, sized value, shape)`` -> failure messages.
    #: ``shape`` adds the paper's qualitative results, which only hold at
    #: full size; the structural checks hold at any size.
    check: Callable[[str, int, bool], List[str]]
    #: Wall seconds of one full-size invocation on the reference box;
    #: the child timeout is five times this (scaled with the size).
    expected_wall_s: float
    #: Workload whose first stdout block this one's must equal.
    table_twin: Optional[str] = None

    @property
    def multi_process(self) -> bool:
        return self.parallel is not None

    @property
    def transport(self) -> Optional[str]:
        """Which process boundary the payloads cross in the real run:
        ``pool`` (SweepRunner cells), ``partition`` (BatchFrames over
        pipes) or ``None``."""
        if self.parallel is None:
            return None
        return {"--jobs": "pool", "--partitions": "partition"}[self.parallel[0]]

    def sized(self, scale: float = 1.0) -> int:
        return max(self.floor, round(self.size * scale))

    def argv(self, seed: int, scale: float = 1.0, serial: bool = False) -> List[str]:
        """The CLI argv of this workload for ``seed`` at ``scale``."""
        args = [*self.head, self.size_flag, str(self.sized(scale)), *self.tail]
        if self.parallel is not None:
            flag, value = self.parallel
            args += [flag, "1" if serial else value]
        else:
            args += ["--jobs", "1"]
        return args + ["--seed", str(seed)]


# ----------------------------------------------------------------------
# stdout parsing
# ----------------------------------------------------------------------
def first_block(stdout: str) -> str:
    """Stdout up to the first blank line (the figure table)."""
    return stdout.split("\n\n", 1)[0].rstrip("\n")


def _table_rows(stdout: str) -> List[List[str]]:
    """Whitespace-split data rows of the first ``format_table`` block."""
    lines = first_block(stdout).splitlines()
    for index, line in enumerate(lines):
        if line.startswith("---"):
            return [row.split() for row in lines[index + 1 :] if row.strip()]
    return []


def fingerprint(workload: "Workload", stdout: str) -> str:
    """SHA-256 of the run's stdout.

    The ``scale`` table carries wall-clock columns, so for that family
    the fingerprint is the line the program prints itself (SHA-256 over
    the merged outcome stream).
    """
    if workload.family == "scale":
        match = re.search(r"^fingerprint\s*: ([0-9a-f]{64})$", stdout, re.MULTILINE)
        return match.group(1) if match else "missing-fingerprint-line"
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _check_poisson(stdout: str, sized: int, shape: bool) -> List[str]:
    means: Dict[Tuple[str, str], float] = {}
    for row in _table_rows(stdout):
        if len(row) >= 3:
            means[(row[0], row[1])] = float(row[2])
    problems = []
    if len(means) != 6:
        problems.append(f"expected 6 table rows, parsed {len(means)}")
    if problems or not shape:
        return problems
    rr = means[("0.880", "RR")]
    for policy in ("SR4", "SRdyn"):
        if not means[("0.880", policy)] < rr:
            problems.append(
                f"mean response of {policy} ({means[('0.880', policy)]}) is not "
                f"below RR ({rr}) at rho=0.88"
            )
    return problems


def _check_wikipedia(stdout: str, sized: int, shape: bool) -> List[str]:
    medians = {
        name: float(value)
        for name, value in re.findall(
            r"^(\w+): whole-day median=([0-9.]+) s", stdout, re.MULTILINE
        )
    }
    if set(medians) != {"RR", "SR4"}:
        return [f"expected whole-day medians for RR and SR4, parsed {sorted(medians)}"]
    if shape and not medians["SR4"] < medians["RR"]:
        return [f"whole-day median SR4 {medians['SR4']} is not below RR {medians['RR']}"]
    return []


def _check_chaos(stdout: str, sized: int, shape: bool) -> List[str]:
    rows = {row[0]: row for row in _table_rows(stdout) if row}
    problems = []
    if set(rows) != {"baseline", "loss", "flap", "jitter"}:
        return [f"expected four chaos cells, parsed {sorted(rows)}"]
    # Columns: mode done failed retried gave-up SYN-rtx p99 net-drops ...
    baseline = rows["baseline"]
    if baseline[1] != "100.0%" or baseline[7] != "0":
        problems.append(f"baseline cell is not 100% done with zero drops: {baseline}")
    if float(rows["loss"][1].rstrip("%")) < 99.0:
        problems.append(f"loss cell completed under 99%: {rows['loss']}")
    return problems


def _check_scale(stdout: str, sized: int, shape: bool) -> List[str]:
    pods = re.findall(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+\d+\s+[0-9.]+$", stdout, re.MULTILINE)
    problems = []
    if len(pods) != 4:
        return [f"expected four pod rows, parsed {len(pods)}"]
    issued = 0
    for pod, queries, completed, failed in pods:
        issued += int(queries)
        if int(completed) + int(failed) != int(queries):
            problems.append(f"pod {pod}: completed + failed != queries")
    if issued != sized:
        problems.append(f"pods replayed {issued} queries, expected {sized}")
    if fingerprint(SCALE_PODS, stdout).startswith("missing"):
        problems.append("no fingerprint line in the output")
    return problems


def _wikipedia_queries(sized: int, stdout: str) -> int:
    match = re.search(r"generated synthetic trace: (\d+) requests", stdout)
    # The trace is replayed once per policy (RR, SR4).
    return 2 * int(match.group(1)) if match else 0


_POISSON_TAIL = (
    "--rho", "0.61", "--rho", "0.88",
    "--policy", "RR", "--policy", "SR4", "--policy", "SRdyn",
)  # fmt: skip

POISSON_SWEEP = Workload(
    name="poisson-sweep",
    why="paper section V grid at light and heavy load, one LB, one process: "
    "the pure engine, fabric, LB SYN/hunting and server accept/refuse path",
    family="poisson",
    head=("poisson",),
    size_flag="--queries",
    size=2_000,
    floor=50,
    tail=_POISSON_TAIL,
    parallel=None,
    queries=lambda sized, stdout: 6 * sized,
    check=_check_poisson,
    expected_wall_s=1.4,
)

POISSON_TELEMETRY = Workload(
    name="poisson-telemetry",
    why="the poisson-sweep argv plus --telemetry: adds probe sampling, bus "
    "rings, report merge and sparkline render; its ratio to poisson-sweep "
    "is the telemetry cost",
    family="poisson",
    head=("poisson",),
    size_flag="--queries",
    size=2_000,
    floor=50,
    tail=_POISSON_TAIL + ("--telemetry",),
    parallel=None,
    queries=lambda sized, stdout: 6 * sized,
    check=_check_poisson,
    expected_wall_s=1.5,
    table_twin="poisson-sweep",
)

WIKIPEDIA_DAY = Workload(
    name="wikipedia-day",
    why="paper section VI replay: diurnal rate, wiki/static mix with catalogue "
    "lookups, the largest trace and collector, binned medians at render; "
    "uses workload and metrics the most",
    family="wikipedia",
    head=("wikipedia",),
    size_flag="--duration",
    size=85,
    floor=5,
    tail=(),
    parallel=None,
    queries=_wikipedia_queries,
    check=_check_wikipedia,
    expected_wall_s=1.3,
)

TIER_CHAOS = Workload(
    name="tier-chaos",
    why="2-LB ECMP tier under loss, flaps and jitter over a 2-process pool: "
    "per-packet ECMP hashing, SYN-ACK relay, fault channel, retry timers "
    "(schedule-then-cancel), pool start-up and payload pickling",
    family="chaos",
    head=("chaos", "--lbs", "2"),
    size_flag="--queries",
    size=2_750,
    # Two 0.25 s flap windows must fit inside the trace.
    floor=300,
    tail=(),
    parallel=("--jobs", "2"),
    queries=lambda sized, stdout: 4 * sized,
    check=_check_chaos,
    expected_wall_s=1.4,
)

SCALE_PODS = Workload(
    name="scale-pods",
    why="one run split over 2 partition processes: per-pod simulators, "
    "lookahead windows, BatchFrame pickling over pipes, the (time, pod, seq) "
    "merge and the largest in-memory outcome stream",
    family="scale",
    head=("scale",),
    size_flag="--queries",
    size=21_000,
    floor=400,
    tail=("--pods", "4"),
    parallel=("--partitions", "2"),
    queries=lambda sized, stdout: sized,
    check=_check_scale,
    expected_wall_s=1.7,
)

WORKLOADS: Tuple[Workload, ...] = (
    POISSON_SWEEP,
    POISSON_TELEMETRY,
    WIKIPEDIA_DAY,
    TIER_CHAOS,
    SCALE_PODS,
)
BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
