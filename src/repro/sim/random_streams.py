"""Named, reproducible random-number streams.

Every stochastic component of the reproduction (arrival processes,
service-time draws, candidate selection, the RR baseline's server choice,
...) draws from its *own* named stream.  Streams are spawned from a single
root seed with :class:`numpy.random.SeedSequence`, so

* two runs with the same root seed are bit-for-bit identical, and
* changing how often one component draws does not perturb the others
  (no shared-stream coupling), which keeps policy comparisons fair: the
  arrival process seen by RR and by SR4 in a comparison run is the same.

A stream is handed out in one form only, since two would desynchronise:
as a generator (:meth:`RandomStreams.stream`), or as one of the sources
that draw it ahead of use in blocks — a :class:`BoundedDraws`
(:meth:`RandomStreams.draws`), or a zero-argument callable of uniform or
standard exponential floats (:meth:`RandomStreams.uniforms`,
:meth:`RandomStreams.exponentials`).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError

#: Values a draw-ahead source takes from its generator at a time.
_BLOCK = 256


class BoundedDraws:
    """``Generator.choice(n, k, replace=False)``, draw for draw, from raw-word blocks.

    numpy's 32-bit draws are the low, then the high half of a raw 64-bit
    word; this takes the same halves from blocks of ``random_raw``.
    """

    __slots__ = ("_next32",)

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        state = bit_generator.state
        if "has_uint32" not in state:
            raise SimulationError(f"{state['bit_generator']} has no half-word 32-bit draws")
        # A half word the generator already buffered is its next draw.
        pending = [state["uinteger"]] if state["has_uint32"] else []
        block = lambda: bit_generator.random_raw(_BLOCK).astype("<u8").view("<u4").tolist()
        self._next32 = chain(pending, chain.from_iterable(iter(block, None))).__next__

    def choice(self, n: int, k: int) -> List[int]:
        """``k`` distinct indices of ``range(n)``, by numpy's algorithm step for step.

        Floyd's selection then a Fisher–Yates pass over the picks, or (``n >
        10 000`` and ``k > n // 50``) a partial Fisher–Yates pass over
        ``range(n)``.  A draw on ``[0, high]`` is Lemire's method on one
        32-bit word (pools below 2**32); a one-value range draws nothing.
        """
        if n > 10_000 and k > n // 50:
            picks, floyd = list(range(n)), 0
            highs: Iterable[int] = range(n - 1, max(n - k, 1) - 1, -1)
        else:
            picks, floyd = [], k
            highs = [*range(n - k, n), *range(k - 1, 0, -1)]
        chosen = set()
        next32 = self._next32
        step = -1
        for high in highs:
            step += 1
            value = 0
            if high:
                span = high + 1
                product = next32() * span
                if product & 0xFFFFFFFF < span:
                    threshold = (0xFFFFFFFF - high) % span
                    while product & 0xFFFFFFFF < threshold:
                        product = next32() * span
                value = product >> 32
            if step >= floyd:
                picks[high], picks[value] = picks[value], picks[high]
            else:  # Floyd: a repeated value is replaced by ``high`` itself
                value = high if value in chosen else value
                chosen.add(value)
                picks.append(value)
        return picks[len(picks) - k:]


class RandomStreams:
    """Factory of named :class:`numpy.random.Generator` child streams."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        if seed is not None and seed < 0:
            raise SimulationError(f"seed must be non-negative, got {seed!r}")
        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: Each draw-ahead source handed out, with its kind, by stream name.
        self._sources: Dict[str, Tuple[str, Any]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The child seed is derived from the root seed and a stable hash of
        the name, so the set of *other* streams requested does not affect
        the values a given stream produces.  Raises once a draw-ahead
        source owns the stream.
        """
        if name in self._sources:
            raise SimulationError(
                f"stream {name!r} is owned by its {self._sources[name][0]} block draw source"
            )
        if not name:
            raise SimulationError("stream name must be a non-empty string")
        if name not in self._streams:
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(_stable_name_key(name),),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def draws(self, name: str) -> BoundedDraws:
        """The one :class:`BoundedDraws` source of stream ``name``, shared by all callers.

        Consumers of one stream (a load-balancer tier's instances) draw one
        sequence, as from one shared generator.
        """
        return self._claim(name, "draws", lambda rng: BoundedDraws(rng.bit_generator))

    def uniforms(self, name: str) -> Callable[[], float]:
        """Stream ``name``'s ``Generator.random()``, draw for draw, from blocks.

        One zero-argument callable per stream, shared by all callers, as
        :meth:`draws` is; it draws its first block on its first call.
        """
        return self._claim(name, "uniforms", lambda rng: _block_source(rng.random))

    def exponentials(self, name: str) -> Callable[[], float]:
        """Stream ``name``'s ``Generator.standard_exponential()``, draw for draw, from blocks.

        ``scale * draw()`` is ``Generator.exponential(scale)``: numpy
        computes it the same way.
        """
        return self._claim(
            name, "exponentials", lambda rng: _block_source(rng.standard_exponential)
        )

    def _claim(self, name: str, kind: str, make: Callable[[np.random.Generator], Any]) -> Any:
        """Stream ``name``'s one draw-ahead source of ``kind``, made on first use.

        Raises after :meth:`stream`, or once a source of another kind owns
        the stream.
        """
        owned = self._sources.get(name)
        if owned is None:
            if name in self._streams:
                raise SimulationError(f"stream {name!r} was handed out as a generator")
            owned = self._sources[name] = (kind, make(self.stream(name)))
        elif owned[0] != kind:
            raise SimulationError(
                f"stream {name!r} is owned by its {owned[0]} block draw source"
            )
        return owned[1]

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self._seed!r}, streams={sorted(self._streams)!r})"


def _block_source(fill: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """The values of ``fill(_BLOCK)``, ``fill(_BLOCK)``, ... one Python float a call."""
    return chain.from_iterable(iter(lambda: fill(_BLOCK).tolist(), None)).__next__


def _stable_name_key(name: str) -> int:
    """Deterministic 63-bit integer key for a stream name.

    Python's builtin ``hash`` is salted per process, so a small FNV-1a
    hash is used instead to keep runs reproducible across processes.
    """
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value & 0x7FFFFFFFFFFFFFFF
