"""Runtime pointer scanning and relocation (paper §3.4).

After the follower's memory has been copied ``shift`` bytes away, pointers
stored *inside* the copied data still reference the leader's (old)
locations — function pointers into the old ``.text``, data pointers into
the old ``.data``/``.bss``/heap.  The relocator walks every 8-byte-aligned
slot of the follower's ``.data``, ``.bss`` and heap, verifies candidate
values against the known old ranges (the RuntimeASLR-style false-positive
filter), and rewrites hits by ``+shift``.

The paper is explicit that this is a strawman with a real cost (Table 2:
the lighttpd heap scan alone is ~131 ms) and a real inaccuracy (an integer
that *looks* like a pointer gets relocated).  Both behaviours are
reproduced: costs are charged per slot, and the misidentification hazard
is demonstrated in the test suite.

Virtual and host cost are deliberately decoupled.  The *virtual* charge is
per slot scanned plus per pointer fixed, exactly as the paper's strawman
pays it.  The *host* cost is one privileged bulk read of the region, a
bulk prefilter of its words against the hull of the old ranges, the exact
range check only on the few candidates that pass, and one ``write_word``
per hit (so decode caches and write observers still see every rewrite).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, List, Optional, Sequence

from repro.machine.costs import CostModel
from repro.machine.memory import AddressSpace, WORD_SIZE

#: slots are little-endian ``<Q`` words; ``array('Q')`` decodes natively
_BYTESWAP = sys.byteorder != "little"


@dataclass(frozen=True)
class OldRange:
    """One leader-side range whose pointers must be relocated."""

    start: int
    end: int
    label: str

    def contains(self, value: int) -> bool:
        return self.start <= value < self.end


@dataclass
class ScanStats:
    """Accounting for one region scan (feeds Table 2)."""

    region: str
    slots_scanned: int = 0
    pointers_found: int = 0
    time_ns: float = 0.0


@dataclass
class RelocationReport:
    shift: int
    scans: List[ScanStats] = field(default_factory=list)

    @property
    def total_pointers(self) -> int:
        return sum(scan.pointers_found for scan in self.scans)

    @property
    def total_time_ns(self) -> float:
        return sum(scan.time_ns for scan in self.scans)

    def scan_named(self, region: str) -> Optional[ScanStats]:
        for scan in self.scans:
            if scan.region == region:
                return scan
        return None


class PointerRelocator:
    """Scans follower regions and rewrites old-range pointers."""

    def __init__(self, space: AddressSpace, old_ranges: Iterable[OldRange],
                 shift: int, costs: CostModel, charge=None):
        self.space = space
        self.old_ranges = tuple(old_ranges)
        #: hull of the old ranges: the bulk prefilter every candidate
        #: value must pass before the exact :meth:`classify`
        self._hull = (range(min(r.start for r in self.old_ranges),
                            max(r.end for r in self.old_ranges))
                      if self.old_ranges else range(0))
        self.shift = shift
        self.costs = costs
        #: charge(ns, category) — wired to the process counter; optional
        #: so the relocator is unit-testable standalone.
        self._charge = charge or (lambda ns, category: None)

    # -- classification -------------------------------------------------------

    def classify(self, value: int) -> Optional[OldRange]:
        """The verification step: a slot value is a pointer candidate only
        if it falls inside a known old range."""
        for old_range in self.old_ranges:
            if old_range.contains(value):
                return old_range
        return None

    # -- scanning ----------------------------------------------------------------

    def scan_region(self, start: int, size: int, region: str,
                    slot_cost_ns: float,
                    slot_offsets: Optional[Iterable[int]] = None) -> ScanStats:
        """Scan ``[start, start+size)`` in the follower copy.

        ``slot_offsets`` restricts the walk to statically known pointer
        slots (the alias-analysis fast path); otherwise every aligned slot
        is visited.  Each in-bounds offset is scanned once, in ascending
        order.  ``start`` and the offsets are word-aligned (regions are
        section, heap or page ranges).  The words from the first to the
        last scanned slot are read in one privileged access, so an
        unmapped page anywhere in that span raises before any hit is
        written back.
        """
        offsets: Sequence[int]
        if slot_offsets is None:
            offsets = range(0, size - size % WORD_SIZE, WORD_SIZE)
        else:
            offsets = sorted({o for o in slot_offsets
                              if 0 <= o <= size - WORD_SIZE})
        stats = ScanStats(region, slots_scanned=len(offsets))
        if offsets:
            first = offsets[0]
            words = array("Q", self.space.read(
                start + first, offsets[-1] + WORD_SIZE - first,
                privileged=True))
            if _BYTESWAP:
                words.byteswap()
            values: Sequence[int] = words
            if slot_offsets is not None:
                values = [words[(o - first) // WORD_SIZE] for o in offsets]
            candidates = compress(zip(offsets, values),
                                  map(self._hull.__contains__, values))
            for offset, value in candidates:
                if self.classify(value) is not None:
                    self.space.write_word(start + offset, value + self.shift,
                                          privileged=True)
                    stats.pointers_found += 1
        stats.time_ns = (stats.slots_scanned * slot_cost_ns
                         + stats.pointers_found * self.costs.pointer_fixup_ns)
        self._charge(stats.time_ns, f"pointer-scan:{region}")
        return stats

    def scan_data_region(self, start: int, size: int, region: str,
                         slot_offsets=None) -> ScanStats:
        return self.scan_region(start, size, region,
                                self.costs.data_scan_slot_ns, slot_offsets)

    def scan_heap_region(self, start: int, size: int,
                         region: str = "heap") -> ScanStats:
        return self.scan_region(start, size, region,
                                self.costs.heap_scan_slot_ns)

    # -- scalar helpers --------------------------------------------------------------

    def relocate_value(self, value: int) -> int:
        """Relocate one scalar if it points into an old range (used for
        protected-function arguments and epoll_data unions)."""
        return value + self.shift if self.classify(value) else value
