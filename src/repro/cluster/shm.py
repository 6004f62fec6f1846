"""Shared-memory arena backing the parameter-server cluster.

The driver allocates every cross-process buffer — the sharded parameter
vector, the read-only dataset arrays, the per-worker counter rows and the
conflict-detection stamps — as named ``multiprocessing.shared_memory``
blocks through one :class:`ShmArena`.  Workers receive the arena's
picklable :class:`ArenaSpec` and re-attach zero-copy NumPy views onto the
same physical pages; nothing but the spec (names, shapes, dtypes) ever
crosses the process boundary.

Ownership is explicit: the creating (driver) process unlinks the blocks,
attaching workers only drop their arrays.  Because every attacher is a
*child* of the owner, all registrations land in the one shared
``resource_tracker`` and are balanced by the owner's ``unlink()`` — no
leaked-segment warnings, no premature teardown.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np


def _own_view(
    seg: shared_memory.SharedMemory, shape: Tuple[int, ...], dtype: str
) -> np.ndarray:
    """An array over its own mapping of ``seg``; ``seg``'s mapping is closed.

    The array holds the only reference to its mapping, so the mapping lives
    exactly as long as the array does, also after the arena is closed.
    """
    mapping = mmap.mmap(seg._fd, seg.size)
    seg.close()
    return np.ndarray(shape, dtype=dtype, buffer=mapping)


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable description of an arena's blocks: name → (shm name, shape, dtype)."""

    blocks: Tuple[Tuple[str, str, Tuple[int, ...], str], ...]


class ShmArena:
    """A named collection of shared-memory-backed NumPy arrays.

    Use :meth:`create` in the owning (driver) process and
    :meth:`ShmArena.attach` in workers.  Arrays are plain ``ndarray`` views
    over the shared pages — every NumPy operation on them is visible to all
    attached processes, with exactly the lock-free semantics the paper's
    Hogwild setting prescribes.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._meta: Dict[str, Tuple[str, Tuple[int, ...], str]] = {}
        self._owner = False

    # ------------------------------------------------------------------ #
    def create(
        self, name: str, shape: Tuple[int, ...], dtype: str = "float64",
        initial: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Allocate one block and return its NumPy view (zero-filled)."""
        if name in self._segments:
            raise ValueError(f"block {name!r} already exists")
        self._owner = True
        nbytes = max(int(np.prod(shape)) * np.dtype(dtype).itemsize, 1)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        arr = _own_view(seg, shape, dtype)
        if initial is not None:
            arr[...] = initial
        else:
            arr.fill(0)
        self._segments[name] = seg
        self._arrays[name] = arr
        self._meta[name] = (seg.name, tuple(int(s) for s in shape), str(np.dtype(dtype)))
        return arr

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "ShmArena":
        """Attach to every block of ``spec`` (worker side; non-owning)."""
        arena = cls()
        for name, shm_name, shape, dtype in spec.blocks:
            seg = shared_memory.SharedMemory(name=shm_name)
            arena._segments[name] = seg
            arena._arrays[name] = _own_view(seg, shape, dtype)
            arena._meta[name] = (shm_name, shape, dtype)
        return arena

    def spec(self) -> ArenaSpec:
        """The picklable description workers attach with."""
        return ArenaSpec(
            blocks=tuple((name, *self._meta[name]) for name in self._meta)
        )

    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def close(self) -> None:
        """Drop the arena's arrays; the owner also unlinks the segments.

        Each array maps its segment on its own, so the pages are unmapped
        when the last reference to an array goes, and an array kept past
        ``close`` stays readable until then.  Unlinking is independent of
        the mappings on POSIX, so the owner always removes every name — no
        segment outlives the run either way.
        """
        self._arrays.clear()
        if self._owner:
            for seg in self._segments.values():
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        self._segments.clear()
        self._meta.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["ShmArena", "ArenaSpec"]
