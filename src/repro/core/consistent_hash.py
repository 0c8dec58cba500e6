"""Consistent hashing (Maglev-style lookup table).

The paper lists consistent hashing as one of the candidate-selection
schemes the load balancer may use ("Possibilities for such schemes
include random selection and consistent hashing", §II-B), and its
related-work section discusses Maglev and Ananta, which rely on it to
keep flow-to-server mappings stable when load-balancer instances or
servers come and go.

This module implements the Maglev population algorithm: each backend
generates a permutation of the table slots from two hashes of its name,
and backends take turns claiming their next preferred empty slot until
the table is full.  The resulting table gives

* O(1) lookups,
* near-uniform slot shares per backend, and
* minimal disruption when the backend set changes.

It is used by :class:`repro.core.candidate_selection.ConsistentHashSelector`
and exercised directly by the ablation benchmark on selection schemes.
"""

from __future__ import annotations

import hashlib
from typing import Generic, List, Sequence, Tuple, TypeVar

from repro.errors import SelectionError

BackendT = TypeVar("BackendT")

#: Default table size: a prime much larger than the expected number of
#: backends, as recommended by the Maglev paper (§3.4).
DEFAULT_TABLE_SIZE = 65_537


def _hash64(data: str, salt: str) -> int:
    """Stable 64-bit hash of ``data`` under ``salt`` (process-independent)."""
    digest = hashlib.sha256(f"{salt}:{data}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class MaglevTable(Generic[BackendT]):
    """Maglev consistent-hashing lookup table.

    Parameters
    ----------
    backends:
        The backend objects to spread over the table.  Their ``str()``
        form is used as the hashing identity, so it must be stable and
        unique (IPv6 addresses qualify).
    table_size:
        Number of slots; should be a prime noticeably larger than the
        number of backends.
    """

    def __init__(
        self,
        backends: Sequence[BackendT],
        table_size: int = DEFAULT_TABLE_SIZE,
    ) -> None:
        if table_size <= 0:
            raise SelectionError(f"table size must be positive, got {table_size!r}")
        if not backends:
            raise SelectionError("Maglev table needs at least one backend")
        if len(set(str(backend) for backend in backends)) != len(backends):
            raise SelectionError("backend identities must be unique")
        self._table_size = table_size
        self._backends: List[BackendT] = list(backends)
        self._table: List[int] = self._populate()

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _permutation(self, backend: BackendT) -> Tuple[int, int]:
        """The (offset, skip) pair defining a backend's slot preference order."""
        identity = str(backend)
        offset = _hash64(identity, "maglev-offset") % self._table_size
        skip = _hash64(identity, "maglev-skip") % (self._table_size - 1) + 1
        return offset, skip

    def _populate(self) -> List[int]:
        num_backends = len(self._backends)
        permutations = [self._permutation(backend) for backend in self._backends]
        next_index = [0] * num_backends
        table = [-1] * self._table_size
        filled = 0
        while filled < self._table_size:
            for backend_index in range(num_backends):
                offset, skip = permutations[backend_index]
                # Find this backend's next preferred slot that is still empty.
                while True:
                    position = (offset + next_index[backend_index] * skip) % self._table_size
                    next_index[backend_index] += 1
                    if table[position] < 0:
                        table[position] = backend_index
                        filled += 1
                        break
                if filled >= self._table_size:
                    break
        return table

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup_chain(self, key: str, count: int) -> List[BackendT]:
        """``count`` distinct backends for ``key``, in table order.

        Used to derive an SR candidate list from consistent hashing: the
        first backend is the flow's primary owner, subsequent ones are
        the owners of the following slots (skipping duplicates).  This
        keeps the *set* of candidates stable per flow while still
        offering a choice.
        """
        if count <= 0:
            raise SelectionError(f"count must be positive, got {count!r}")
        if count > len(self._backends):
            raise SelectionError(
                f"cannot produce {count} distinct backends from "
                f"{len(self._backends)} available"
            )
        start = _hash64(key, "maglev-lookup") % self._table_size
        chain: List[BackendT] = []
        seen: set = set()
        position = start
        while len(chain) < count:
            backend_index = self._table[position % self._table_size]
            if backend_index not in seen:
                seen.add(backend_index)
                chain.append(self._backends[backend_index])
            position += 1
        return chain


def flow_hash_key(flow_key) -> str:
    """Canonical string form of a flow key for consistent hashing."""
    return (
        f"{flow_key.src_address}|{flow_key.src_port}|"
        f"{flow_key.dst_address}|{flow_key.dst_port}"
    )
