"""Backend registry for the CSR kernels.

Two backends ship with the library:

* ``"numpy"`` -- batched, vectorized relaxation kernels (registered only when
  NumPy is importable).
* ``"python"`` -- a dependency-free fallback with the same semantics: one
  heap Dijkstra per source and frontier relaxation, both over a per-snapshot
  ``(neighbor, weight)`` adjacency derived from the CSR arrays.

Selection order (first match wins):

1. an explicit ``backend=`` argument on the kernel call,
2. a :func:`force_backend` override (used by the differential tests),
3. the ``REPRO_BACKEND`` environment variable (``scipy``, ``numpy``,
   ``python`` or ``auto``),
4. ``auto``: SciPy when available, then NumPy, otherwise pure Python.

Both backends are *exact* on the integer-weighted graphs the paper uses
(float64 arithmetic on integer sums below ``2**53``), so switching backends
never changes any oracle value -- the differential tests in
``tests/kernels/`` enforce this end-to-end.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, List, Optional, Sequence

from repro.kernels.csr import CSRGraph

__all__ = [
    "KernelBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "force_backend",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, "KernelBackend"] = {}
_FORCED: Optional[str] = None


class KernelBackend:
    """Interface every kernel backend implements.

    All methods work in *index space*: sources are dense indices into
    ``csr.nodes`` and results are sequences of ``n`` floats per source, with
    ``math.inf`` (or ``numpy.inf``) marking unreachable nodes.  The public
    wrappers in :mod:`repro.kernels.api` translate labels and normalise the
    output types.
    """

    name: str = "abstract"

    def sssp(self, csr: CSRGraph, source: int) -> Sequence[float]:
        """Exact single-source distances from ``source`` (an index)."""
        raise NotImplementedError

    def multi_source_sssp(
        self, csr: CSRGraph, sources: Sequence[int]
    ) -> List[Sequence[float]]:
        """Exact distances from each of ``sources``; one row per source."""
        raise NotImplementedError

    def bounded_hop(
        self, csr: CSRGraph, sources: Sequence[int], max_hops: int
    ) -> List[Sequence[float]]:
        """``max_hops``-hop-bounded distances from each source (Section 3.1)."""
        raise NotImplementedError

    def all_pairs(self, csr: CSRGraph) -> List[Sequence[float]]:
        """Exact all-pairs distance rows, in CSR index order."""
        return self.multi_source_sssp(csr, range(csr.num_nodes))


def register_backend(backend: KernelBackend) -> None:
    """Register ``backend`` under ``backend.name`` (overwriting any previous)."""
    _REGISTRY[backend.name] = backend


def available_backends() -> List[str]:
    """Names of all registered backends (always includes ``"python"``)."""
    return sorted(_REGISTRY)


def _resolve_name(name: Optional[str]) -> str:
    if name is None:
        name = _FORCED
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower() or "auto"
    if name == "auto":
        for preferred in ("scipy", "numpy"):
            if preferred in _REGISTRY:
                return preferred
        return "python"
    return name


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Return the backend selected by ``name`` / override / env / auto."""
    resolved = _resolve_name(name)
    try:
        return _REGISTRY[resolved]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {resolved!r}; available: {available_backends()}"
        ) from None


@contextlib.contextmanager
def force_backend(name: str) -> Iterator[KernelBackend]:
    """Context manager pinning the process-wide backend (for tests/debugging)."""
    global _FORCED
    backend = get_backend(name)  # validate eagerly
    previous = _FORCED
    _FORCED = backend.name
    try:
        yield backend
    finally:
        _FORCED = previous
