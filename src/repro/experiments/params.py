"""One parameter table per config class, declared on the dataclass fields.

A config field that is a *parameter* — something a user sets, on the
command line or in code — says so once, through :func:`param`: its
``--flag`` and help text, the values it may take (a :class:`Bound`, or
``choices``), and, where the paper-size default is too slow for a shell,
a CLI-size default.  The declaration rides in plain
``dataclasses.field(metadata=...)``; everything else is derived from it:

* :func:`check_bounds` — the range checks every :class:`CheckedConfig`
  runs when it is made (cross-field rules stay hand-written, in its
  :meth:`~CheckedConfig.check_rules`);
* :func:`cli_params` — the flags of a config, which :mod:`repro.cli`
  turns into a sub-command and back into a config, and which
  ``tests/test_docs_cli.py`` holds ``docs/cli.md`` against.

Every numeric bound also requires a finite number: a NaN passes any
``x <= 0`` test, and an infinite duration makes a trace generator draw
arrivals forever.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.errors import ExperimentError


@dataclass(frozen=True)
class Bound:
    """A named set of legal (finite) numbers, e.g. ``positive``.

    Called as ``bound(name, value)`` it raises unless ``value`` is legal;
    any callable of that shape can stand as a field's bound (a name
    field's bound is a registry lookup).
    """

    text: str
    accepts: Callable[[Any], bool]

    def __call__(self, name: str, value: Any) -> None:
        if not (math.isfinite(value) and self.accepts(value)):
            raise ExperimentError(f"{name} must be {self.text}, got {value!r}")


POSITIVE = Bound("positive", lambda value: value > 0)
NON_NEGATIVE = Bound("non-negative", lambda value: value >= 0)
UNIT_INTERVAL = Bound("in [0, 1]", lambda value: 0 <= value <= 1)


@dataclass(frozen=True)
class Param:
    """What one parameter is called, means, and may be set to.

    ``kind``, ``default``, ``repeat`` and ``path`` are read off the
    field by :func:`cli_params`; they are typed by hand only for a flag
    that is not a field (a config class's ``cli_flags``).
    """

    flag: Optional[str] = None
    help: Optional[str] = None
    bound: Optional[Callable[[str, Any], None]] = None
    choices: Optional[Tuple[str, ...]] = None
    #: Default of the flag where it differs from the field's (paper-size) one.
    cli_default: Any = None
    #: Turns one command-line string of a repeatable flag into an element.
    convert: Optional[Callable[[str], Any]] = None
    #: For a nested config: the fields of it whose flags this family has.
    expose: Tuple[str, ...] = ()
    kind: Optional[type] = None
    default: Any = None
    #: Repeatable (``action="append"``): the values form a tuple, each once.
    repeat: bool = False
    #: Where the value lands in the config, e.g. ``("testbed", "num_servers")``.
    path: Tuple[str, ...] = ()

    @property
    def dest(self) -> str:
        """The ``argparse`` attribute of the flag."""
        return self.flag[2:].replace("-", "_")


def param(
    default: Any = MISSING,
    flag: Optional[str] = None,
    help: Optional[str] = None,
    bound: Optional[Callable[[str, Any], None]] = None,
    *,
    default_factory: Any = MISSING,
    **declaration: Any,
):
    """A dataclass field carrying a :class:`Param`: one row of the table.

    Reads ``param(default, "--flag", "help text", BOUND)``; a field that
    is no flag but has a bound is ``param(default, bound=BOUND)``.
    """
    declared = Param(flag=flag, help=help, bound=bound, **declaration)
    return dataclasses.field(
        default=default, default_factory=default_factory, metadata={"param": declared}
    )


def _declared(config: Any) -> Iterator[Tuple[dataclasses.Field, Param]]:
    for field in dataclasses.fields(config):
        declaration = field.metadata.get("param")
        if declaration is not None:
            yield field, declaration


def check_bounds(config: Any) -> None:
    """Hold every declared field of ``config`` to its bound or choices.

    A tuple-valued parameter is checked element by element and must not
    be empty; ``None`` (an optional override left unset) passes.
    """
    for field, declaration in _declared(config):
        value = getattr(config, field.name)
        if value == ():
            raise ExperimentError(f"{field.name} needs at least one value")
        for item in value if isinstance(value, tuple) else (value,):
            if item is None:
                continue
            if declaration.bound is not None:
                declaration.bound(field.name, item)
            if declaration.choices is not None and item not in declaration.choices:
                raise ExperimentError(
                    f"{field.name} must be one of "
                    f"{', '.join(declaration.choices)}, got {item!r}"
                )


class CheckedConfig:
    """A config held to its declared bounds when it is made.

    A dataclass subclass gets this ``__post_init__``: the field bounds
    (:func:`check_bounds`), then the class's own :meth:`check_rules`.
    """

    def __post_init__(self) -> None:
        check_bounds(self)
        self.check_rules()

    def check_rules(self) -> None:
        """Rules that relate fields (none unless the class writes some)."""


def cli_params(
    config: Any, expose: Optional[Tuple[str, ...]] = None, path: Tuple[str, ...] = ()
) -> Iterator[Param]:
    """The flags of ``config``, each resolved against its field.

    ``expose`` narrows the walk to the named fields (how a family config
    picks its testbed flags); a field's flag default is its
    ``cli_default`` when declared, else the value ``config`` holds.
    """
    for field, declaration in _declared(config):
        if expose is not None and field.name not in expose:
            continue
        value = getattr(config, field.name)
        here = path + (field.name,)
        if declaration.expose:
            yield from cli_params(value, declaration.expose, here)
        if declaration.flag is None:
            continue
        if declaration.cli_default is not None:
            value = declaration.cli_default
        repeat = isinstance(value, tuple)
        kind = str if declaration.convert else type(value[0] if repeat else value)
        yield dataclasses.replace(
            declaration, kind=kind, default=value, repeat=repeat, path=here
        )
    if expose is None:
        yield from getattr(type(config), "cli_flags", ())
