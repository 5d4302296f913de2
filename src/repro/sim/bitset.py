"""Bitmask process sets and the canonical-set interning tables.

At n = 1000 the kernel's per-round bookkeeping is dominated by small-set
churn: present/absent sender sets, crash sets and suspicion (Halt) rows
are rebuilt as fresh ``frozenset`` objects every round, for every
receiver.  This module gives the data plane one flat representation —
a plain ``int`` used as a bitmask, bit ``i`` standing for process ``i``
— plus the interning tables that materialize *canonical* ``frozenset``
objects from masks only when an algorithm (or a trace consumer) needs
the set form.

Masks are the working representation: complement, union, difference and
membership are single machine-word operations (``&``, ``|``, ``~``,
shifts) and ``int.bit_count`` replaces ``len``.  Frozensets remain the
*boundary* representation — payload tuples, traces and the public
algorithm state keep their documented types — but every materialization
goes through :func:`interned_set`, so structurally equal sets are one
shared object for the lifetime of the process instead of a new
allocation per round per receiver.

The tables are bounded (``_CACHE_CAP`` entries each): past the cap,
lookups still dedupe against what is cached but new shapes are built
uncached, so a pathological sweep cannot grow the tables without bound.
:func:`intern_values` is the same idea for *value* sets (FloodSet's
``W``), whose elements are arbitrary hashables rather than pids — keyed
by the set itself rather than a mask.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.types import ProcessId

__all__ = [
    "full_mask",
    "mask_of",
    "iter_bits",
    "interned_set",
    "intern_values",
]

#: Per-table entry cap; beyond it sets are built uncached (no eviction —
#: the first shapes seen are overwhelmingly the recurring ones).
_CACHE_CAP = 1 << 16

_FULL_MASKS: dict[int, int] = {}
_SET_CACHE: dict[int, frozenset] = {0: frozenset()}
_VALUE_CACHE: dict[frozenset, frozenset] = {}


def full_mask(n: int) -> int:
    """The all-processes mask for an n-process system: n low bits set."""
    mask = _FULL_MASKS.get(n)
    if mask is None:
        mask = _FULL_MASKS[n] = (1 << n) - 1
    return mask


def mask_of(pids: Iterable[ProcessId]) -> int:
    """The bitmask with exactly the bits in *pids* set."""
    mask = 0
    for pid in pids:
        mask |= 1 << pid
    return mask


#: ``_BYTE_BITS[offset][byte]``: the set bit indices of *byte* read as
#: the mask's ``offset``-th little-endian byte.  One 256-entry table per
#: byte offset, grown on demand up to the widest mask seen.  Growth
#: holds the lock so concurrent callers (the thread executor) cannot
#: append a table at the wrong offset; readers only index tables that
#: already exist.
_BYTE_BITS: list[tuple[tuple[ProcessId, ...], ...]] = []
_GROW_LOCK = threading.Lock()


def _grow_byte_tables(width: int) -> None:
    with _GROW_LOCK:
        for offset in range(len(_BYTE_BITS), width):
            base = offset * 8
            _BYTE_BITS.append(tuple(
                tuple(base + bit for bit in range(8) if byte >> bit & 1)
                for byte in range(256)
            ))


def iter_bits(mask: int) -> list[ProcessId]:
    """The set bit indices of *mask*, ascending — pids of a mask set.

    Walks the mask a byte at a time through the per-offset byte tables,
    so the cost is one table lookup per non-zero byte rather than one
    big-int operation per set bit.
    """
    width = (mask.bit_length() + 7) >> 3
    if width > len(_BYTE_BITS):
        _grow_byte_tables(width)
    bits: list[ProcessId] = []
    for table, byte in zip(_BYTE_BITS, mask.to_bytes(width, "little")):
        if byte:
            bits += table[byte]
    return bits


def interned_set(mask: int) -> frozenset[ProcessId]:
    """The canonical ``frozenset`` of *mask*'s bit indices.

    Structurally equal masks return the *same* frozenset object, so a
    suspicion row or absent-sender set materialized by every receiver in
    a round costs one shared allocation, and downstream equality checks
    are usually pointer comparisons.
    """
    cached = _SET_CACHE.get(mask)
    if cached is not None:
        return cached
    built = frozenset(iter_bits(mask))
    if len(_SET_CACHE) < _CACHE_CAP:
        _SET_CACHE[mask] = built
    return built


def intern_values(values: frozenset) -> frozenset:
    """The canonical object for a *value* frozenset (FloodSet ``W`` sets).

    Value sets hold arbitrary hashables, so the key is the set itself:
    the first instance of each distinct set becomes the canonical one
    and every structurally equal union thereafter dedupes onto it.
    """
    cached = _VALUE_CACHE.get(values)
    if cached is not None:
        return cached
    if len(_VALUE_CACHE) < _CACHE_CAP:
        _VALUE_CACHE[values] = values
    return values
