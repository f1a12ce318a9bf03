"""CPU bitmasks: sets of core ids kept as Python ints.

Bit ``c`` set means core ``c`` is in the set. Linux's ``mm_cpumask``, the
machine's lazy-TLB idle set and LATR's per-state CPU bitmask (paper
section 4.1) are all bitmaps, so target selection and sharer counting are
a handful of word operations (``&``, ``~``, popcount) rather than a loop
over every core.
"""

from __future__ import annotations

from typing import Iterable, List

try:
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - Python < 3.10

    def popcount(mask: int) -> int:
        """Number of set bits (cores) in ``mask``."""
        return bin(mask).count("1")


def mask_of(core_ids: Iterable[int]) -> int:
    """The bitmask with exactly ``core_ids`` set."""
    mask = 0
    for core_id in core_ids:
        mask |= 1 << core_id
    return mask


def mask_ids(mask: int) -> List[int]:
    """The core ids set in ``mask``, ascending. Costs one step per set
    bit, not per core of the machine."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids
