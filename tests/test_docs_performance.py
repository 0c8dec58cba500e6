"""Doc-vs-tree consistency for the performance pages and the env surface.

Same spirit as ``test_docs_cli.py``: the docs name make targets,
``REPRO_*`` environment variables, ``repro.…`` objects, benchmark
workloads and metrics, and ledger and benchmark files.  These tests read
the Makefile, ``src/``, ``BENCHMARK.json`` and the tree, and fail when a
name in the docs no longer exists — or when code under ``src/`` reads
the environment.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_PAGES = ["README.md", *sorted(f"docs/{p.name}" for p in (REPO_ROOT / "docs").glob("*.md"))]
#: Pages whose ``REPRO_*`` and ``repro.…`` names must be live
#: (performance.md also names deleted flags and code, as history).
LIVE_PAGES = ("README.md", "docs/cli.md", "docs/architecture.md")

_ENV_NAME = re.compile(r"\bREPRO_[A-Z][A-Z_]*[A-Z]\b")


def _read(relative: str) -> str:
    return (REPO_ROOT / relative).read_text(encoding="utf-8")


def _env_names_read_under(directory: str, pattern: str) -> set:
    names = set()
    for path in (REPO_ROOT / directory).glob(pattern):
        names.update(_ENV_NAME.findall(path.read_text(encoding="utf-8")))
    return names


@pytest.fixture(scope="module")
def doc_text() -> str:
    return _read("docs/performance.md")


def test_documented_make_targets_exist():
    makefile_text = _read("Makefile")
    for page in DOC_PAGES:
        for target in re.findall(r"`make ([a-z][a-z-]*)`", _read(page)):
            assert re.search(rf"^{re.escape(target)}:", makefile_text, re.M), (
                f"{page} mentions `make {target}`, which is not a Makefile target"
            )


def test_documented_environment_variables_are_read_by_the_code():
    # REPRO_BENCH_* are the functional benchmarks' scale knobs
    # (benchmarks/conftest.py); everything else must be read under src/.
    live = _env_names_read_under("src", "**/*.py") | {
        name
        for name in _env_names_read_under("benchmarks", "*.py")
        if name.startswith("REPRO_BENCH_")
    }
    for page in LIVE_PAGES:
        for name in sorted(set(_ENV_NAME.findall(_read(page)))):
            assert name in live, f"{page} names {name}, which no code reads"


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or an attribute chain of the longest
    module prefix that imports."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        for part in parts[end:]:
            if not hasattr(value, part):
                return False
            value = getattr(value, part)
        return True
    return False


@pytest.mark.parametrize("page", LIVE_PAGES)
def test_every_repro_name_a_page_quotes_is_where_it_says(page):
    # One name per object: a quoted ``repro.…`` path is the defining
    # module's (a package binds no name of its submodules).
    names = set(re.findall(r"`(repro(?:\.\w+)+)", _read(page)))
    assert names
    assert sorted(name for name in names if not _resolves(name)) == []


def test_src_reads_no_environment_variable():
    # A run is switched by its config (``TestbedConfig.telemetry``, ...)
    # and its flags, never by the environment it happens to inherit.
    for path in sorted((REPO_ROOT / "src").glob("**/*.py")):
        text = path.read_text(encoding="utf-8")
        found = re.findall(r"\b(?:environ|getenv|putenv|unsetenv)\b", text)
        assert not found, f"{path.relative_to(REPO_ROOT)} reads the environment: {found}"
    assert not _env_names_read_under("src", "**/*.py")


def test_doc_names_every_workload_and_end_to_end_metric(doc_text):
    declared = json.loads(_read("BENCHMARK.json"))
    for entry in declared["workloads"] + declared["end_to_end"]:
        assert f"`{entry['name']}`" in doc_text, (
            f"BENCHMARK.json declares {entry['name']!r}; docs/performance.md "
            "does not name it"
        )


def test_doc_names_no_missing_ledger_or_bench_file(doc_text):
    named = set(re.findall(r"`([\w./-]+\.json)`", doc_text))
    named.update(re.findall(r"`([\w./-]*bench_\w+\.py)`", doc_text))
    assert "BENCHMARK.json" in named
    for name in sorted(named):
        # A path is taken from the root; a bare name may sit anywhere.
        present = (REPO_ROOT / name).exists() or (
            "/" not in name
            and any(
                next((REPO_ROOT / directory).rglob(name), None) is not None
                for directory in ("benchmarks", "tests", "docs")
            )
        )
        assert present, f"docs/performance.md names `{name}`, which is not in the tree"


def test_readme_has_a_performance_section():
    readme = _read("README.md")
    assert "## Performance" in readme
    assert "`BENCHMARK.json`" in readme
    assert "docs/performance.md" in readme
