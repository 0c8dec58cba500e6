"""The benchmark's child process: one ``repro.cli.main(argv)`` call.

``run.py`` starts one fresh child per measured run::

    python child.py <mode> <spawn-stamp> <argv as JSON> [<options as JSON>]

and reads one JSON object from the last line of the child's stdout.
Modes:

``timed``    the measured run: nothing installed, only clocks around ``main``;
``traced``   timing wrappers installed around the public pipeline callables;
``profile``  ``main`` under one ``cProfile`` pass, self time by package.

The CLI's own stdout is captured and travels back inside the JSON, so
the parent can check and fingerprint it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    """User+sys CPU seconds of this process and its waited-for descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of any process of the run (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    mode, stamp, argv_json = sys.argv[1:4]
    options = json.loads(sys.argv[4]) if len(sys.argv) > 4 else {}
    argv = json.loads(argv_json)

    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leaked:
        raise SystemExit(f"REPRO_* flags reached the benchmark child: {leaked}")

    import_start = time.perf_counter()
    import repro.cli as cli
    from repro.experiments import registry
    from repro.sim import engine

    registry.names()  # the lazy family registry is part of set-up
    import_s = time.perf_counter() - import_start
    if engine.COMPILED_LOOP:
        raise SystemExit(
            "repro.sim._fastloop_c was picked up: the benchmark measures the "
            "shipped pure-Python loop only"
        )

    record = {"mode": mode, "import_s": import_s}
    tracer = None
    profiler = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(transport=options.get("transport"))
        tracer.install()
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    captured = io.StringIO()
    record["setup_s"] = time.time() - float(stamp)

    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if profiler is not None:
            status = profiler.runcall(cli.main, argv)
        else:
            status = cli.main(argv)
    record["wall_s"] = time.perf_counter() - start
    record["cpu_s"] = _cpu_seconds() - cpu_before
    record["peak_rss_mb"] = _peak_rss_mb()
    record["status"] = status
    record["stdout"] = captured.getvalue()
    if tracer is not None:
        record["trace"] = tracer.report(record["wall_s"])
    if profiler is not None:
        import tracing

        record["self_seconds"] = tracing.bucket_profile(profiler)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
