"""Coverage queries: is a cube inside the union of a set of cubes?

The query is a recursive splitting, a DPLL specialization over the
complement of the cover set (the tautology check of Brayton et al.,
1984): take the covers meeting the target from a per-literal index
(CoverIndex), stop when one cover swallows the region or none meets it,
otherwise split it: on the lowest variable every surviving cover pins,
which sends each cover to one half only, or, when none is shared, on a
variable pinned by the largest surviving cover. The search stops at the
first region no cover meets. Exact unless the candidates are narrowed
to shared-literal covers.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, itemgetter

from .cubes import Cube

COVERED = "covered"
UNCOVERED = "uncovered"


class CoverIndex:
    """A multiset of cubes of one arity, indexed by literal.

    Each cube occupies a slot. Bit s of `pins[2(v-1)+b]` is set when the
    cube in slot s pins x_v to b, and bit s of `present` when slot s is
    occupied. The covers meeting a target are the present slots minus
    those pinning one of the target's literals the other way: O(target
    literals) big-int operations, however many covers there are. Freed
    slots are reused, so the bitsets stay as wide as the peak size.
    `pins` is None until the first query that reads a literal, so a
    query on the whole space alone never builds it.
    """

    __slots__ = ("n", "pins", "present", "_cubes", "_free", "_slots")

    def __init__(self, n: int, cubes=()):
        self.n = n
        self.pins = None
        self.present = 0
        self._cubes: list = []        # slot -> Cube (stale when free)
        self._free: list[int] = []    # freed slots, last freed reused first
        self._slots: dict = {}        # Cube -> its occupied slots
        for cube in cubes:
            self.add(cube)

    def _toggle(self, cube: Cube, slot: int):
        bit = 1 << slot
        self.present ^= bit
        if self.pins is not None:
            self._pin(cube, bit)

    def _pin(self, cube: Cube, bit: int):
        pins, ones, zeros = self.pins, cube.val, cube.mask ^ cube.val
        while ones:
            low = ones & -ones
            pins[2 * low.bit_length() - 1] ^= bit
            ones ^= low
        while zeros:
            low = zeros & -zeros
            pins[2 * low.bit_length() - 2] ^= bit
            zeros ^= low

    def _build_pins(self) -> list:
        self.pins = [0] * (2 * self.n)
        live, cubes = self.present, self._cubes
        while live:
            low = live & -live
            self._pin(cubes[low.bit_length() - 1], low)
            live ^= low
        return self.pins

    def add(self, cube: Cube):
        """Add one copy of the cube."""
        if cube.n != self.n:
            raise ValueError("cube arity mismatch in coverage query")
        if self._free:
            slot = self._free.pop()
            self._cubes[slot] = cube
        else:
            slot = len(self._cubes)
            self._cubes.append(cube)
        self._toggle(cube, slot)
        self._slots.setdefault(cube, []).append(slot)

    def discard(self, cube: Cube):
        """Remove one copy of the cube, if there is one."""
        slots = self._slots.get(cube)
        if not slots:
            return
        slot = slots.pop()
        if not slots:
            del self._slots[cube]
        self._toggle(cube, slot)
        self._free.append(slot)

    def meeting(self, target: Cube, shared_literal: bool = False) -> list:
        """The covers that meet the target, in slot order, one per copy.

        With shared_literal, only those that also pin one of the target's
        literals the same way.
        """
        if target.n != self.n:
            raise ValueError("cube arity mismatch in coverage query")
        pins, live, shared = self.pins, self.present, 0
        rest, val = target.mask, target.val
        if rest and pins is None:
            pins = self._build_pins()
        while rest:
            low = rest & -rest
            same = 2 * low.bit_length() - (1 if val & low else 2)
            live &= ~pins[same ^ 1]
            if shared_literal:
                shared |= pins[same]
            rest ^= low
        if shared_literal:
            live &= shared
        cubes, out = self._cubes, []
        while live:
            low = live & -live
            out.append(cubes[low.bit_length() - 1])
            live ^= low
        return out

    def __len__(self):
        return self.present.bit_count()


def _uncovered(target: Cube, found) -> bool:
    """Whether some point of the target lies in no cube of `found`.

    The target is split until a cover contains the region or none meets
    it: on the lowest variable every surviving cover pins, else on the
    largest surviving cover's lowest pin; below a region with no shared
    pin none is looked for. The search stops at the first region no
    cover meets. Every verdict comes from the intersection and
    containment tests made here.
    """
    if not found:
        return True
    mask, val = target.mask, target.val
    for c in found:
        if not (c.mask & ~mask or (c.val ^ val) & c.mask):
            return False
    # Per cover: (pinned, pinned to 1, pinned to 0), fewest pins first, so
    # the first survivor of a region is its largest cover.
    candidates = sorted(((c.mask, c.val, c.mask & ~c.val) for c in found
                         if not (c.val ^ val) & c.mask & mask),
                        key=lambda c: c[0].bit_count())

    def rec(mask: int, cubes, shared: int) -> bool:
        # Every cover in cubes meets the region `mask` pins; `shared` is
        # zero once a region above this one had no pin every cover shares.
        if not cubes:
            return True
        # A free variable every cover pins means no cover contains the
        # region, and it sends each cover to one half. Failing one, split
        # on the largest cover's lowest free pin. A cover meets a half
        # exactly when it does not pin that variable the other way.
        if shared:
            shared = reduce(and_, map(itemgetter(0), cubes)) & ~mask
        if not shared:
            for c in cubes:
                if not c[0] & ~mask:
                    return False
        pinned = shared or cubes[0][0] & ~mask
        bit = pinned & -pinned
        mask |= bit
        return rec(mask, [c for c in cubes if not c[1] & bit], shared) or \
            rec(mask, [c for c in cubes if not c[2] & bit], shared)

    return rec(mask, candidates, 1)


def is_covered(target: Cube, covers: CoverIndex,
               shared_literal: bool = False) -> str:
    """Whether the target cube lies inside the union of the covers.

    The index only narrows the candidates: every verdict comes from the
    intersection and containment tests of `_uncovered` on them. With
    shared_literal the candidates are narrowed further to those sharing
    at least one literal component with the target; that may report a
    covered cube as uncovered, which is sound for the solver (it only
    re-adds work) but not exact.
    """
    found = covers.meeting(target, shared_literal)
    return UNCOVERED if _uncovered(target, found) else COVERED
