"""Usage-class index over columnar machine views, with a class-id table.

:class:`SoAUsageClassIndex` extends the maintained partition of
:class:`~repro.core.usage_index.UsageClassIndex` with:

* a :class:`SoAClassTable` interning every ``(shape, canonical usage)``
  class key ever seen to a dense integer id, with per-id representative
  and size columns (numpy arrays) — the structure the vectorized
  placement path ranks with one masked ``argmax`` instead of a Python
  loop over classes;
* a ``class_ids`` column mapping every inventory position to the class
  id of its current used class (-1 while unused or failed).  Shards are
  contiguous position ranges, so a shard's slice of this column is a
  zero-copy view;
* an ``epoch``-aware :meth:`rebuild` (inherited seam) so bulk array
  rebuilds invalidate memoized consumers (see
  ``ProfileScorePolicy._observe_index``);
* a hot-path :meth:`refresh` that reads the class id bound to the
  row's transition-table state (:mod:`repro.core.soa.transitions`)
  and moves the row between per-id member lists, touching the
  healthy/used lists only when the machine's broad state changes.

Class ids are *content-addressed* (the key is the class content, not its
membership), so a score memoized against an id stays valid while the
class empties and refills; only a :meth:`rebuild` (which re-interns ids
from scratch) invalidates them, and that bumps the epoch.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profile import MachineShape, Usage
from repro.core.usage_index import (
    _FAILED,
    _NEW,
    _UNUSED,
    _USED,
    IndexedMachines,
    UsageClassIndex,
    _discard_sorted,
)

__all__ = ["SoAClassTable", "SoAUsageClassIndex", "SoAIndexedMachines"]

ClassKey = Tuple[MachineShape, Usage]

#: Representative sentinel for ids whose class is currently empty; any
#: real inventory position compares smaller.
_NO_REP = np.iinfo(np.int64).max


class SoAClassTable:
    """Dense id interning of used-class keys with rep/size columns.

    Ids are handed out monotonically and never reused within an epoch;
    an id whose class emptied keeps its key (size 0, sentinel rep) so
    memoized per-id scores stay addressable.
    """

    __slots__ = ("_id_of", "keys", "_rep", "_size", "n_classes")

    def __init__(self) -> None:
        self._id_of: Dict[ClassKey, int] = {}
        self.keys: List[ClassKey] = []
        self._rep = np.full(64, _NO_REP, dtype=np.int64)
        self._size = np.zeros(64, dtype=np.int64)
        self.n_classes = 0

    def lookup(self, key: ClassKey) -> int:
        """Id of a key, or -1 when never interned."""
        return self._id_of.get(key, -1)

    def _intern(self, key: ClassKey) -> int:
        class_id = self._id_of.get(key)
        if class_id is not None:
            return class_id
        class_id = self.n_classes
        if class_id >= self._rep.size:
            for name, fill in (("_rep", _NO_REP), ("_size", 0)):
                old = getattr(self, name)
                grown = np.full(old.size * 2, fill, dtype=np.int64)
                grown[:old.size] = old
                setattr(self, name, grown)
        self._id_of[key] = class_id
        self.keys.append(key)
        self.n_classes += 1
        return class_id

    def update(self, key: ClassKey, members: Optional[Sequence[int]]) -> int:
        """Sync one key's rep/size from its (sorted) member positions."""
        class_id = self._intern(key)
        self.sync(class_id, members)
        return class_id

    def sync(self, class_id: int, members: Optional[Sequence[int]]) -> None:
        """Sync an interned id's rep/size from its sorted member positions."""
        if members:
            self._rep[class_id] = members[0]
            self._size[class_id] = len(members)
        else:
            self._rep[class_id] = _NO_REP
            self._size[class_id] = 0

    @property
    def rep(self) -> np.ndarray:
        """Representative position per id (sentinel when empty)."""
        return self._rep[: self.n_classes]

    @property
    def size(self) -> np.ndarray:
        """Member count per id (0 when currently empty)."""
        return self._size[: self.n_classes]


class SoAUsageClassIndex(UsageClassIndex):
    """Usage-class index whose class structure is mirrored into columns.

    Machines are the datacenter's row views: besides the base machine
    surface they expose ``row_state``, the row's
    :class:`~repro.core.soa.transitions.RowState`, which carries the
    canonical usage and the class id bound under this index's table.
    Live classes are kept per class id; the content-keyed ``_classes``
    mapping of the base index is touched only when a class is created or
    empties.
    """

    def __init__(self, machines: Sequence[Any]) -> None:
        # The refresh override runs during the base constructor, so the
        # table and id column must exist first.
        self.table = SoAClassTable()
        self.class_ids = np.full(len(machines), -1, dtype=np.int64)
        super().__init__(machines)

    def _reset(self) -> None:
        n = len(self._machines)
        self._state = [_NEW] * n
        self._canon = [None] * n
        self._healthy = []
        self._used = []
        self._unused = []
        #: Live class id -> its sorted member positions; ``_classes``
        #: files the same lists under their content keys.
        self._members: Dict[int, List[int]] = {}
        self._classes = {}
        self._unused_by_shape = {}
        for machine in self._machines:
            self.refresh(machine.pm_id)

    def class_members(self, class_id: int) -> List[int]:
        """Sorted member positions of a live class (empty when none)."""
        return self._members.get(class_id, [])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self, pm_id: int) -> None:
        """Re-derive one machine's class membership from its row state.

        The class id comes bound to the row state, so a used-to-used
        move is two sorted-list edits between member lists: no usage is
        canonicalized and no class key hashed.  Only a state first seen
        under this index's table interns its ``(shape, canonical)`` key.
        The healthy/used/unused position lists change only when the
        machine's broad state does (at 100k PMs those lists are ~800 KB
        each; re-inserting on every placement would memmove them).
        """
        pos = self._pos.get(pm_id)
        if pos is None:
            raise KeyError(f"no PM with id {pm_id} in the usage index")
        machine = self._machines[pos]
        old_state = self._state[pos]
        if machine.is_failed:
            new_state = _FAILED
        elif machine.is_used:
            new_state = _USED
        else:
            new_state = _UNUSED
        row = machine.row_state
        if old_state != new_state:
            self._move(pos, machine.shape, old_state, new_state)
        self._canon[pos] = None if new_state == _FAILED else row.canonical
        old_cid = int(self.class_ids[pos])
        new_cid = -1
        if new_state == _USED:
            new_cid = row.class_id(self.table)
            if new_cid < 0:
                new_cid = self.table._intern((machine.shape, row.canonical))
                row.bind_class(self.table, new_cid)
        if old_cid == new_cid:
            return
        if old_cid >= 0:
            members = self._members[old_cid]
            _discard_sorted(members, pos)
            if not members:
                del self._members[old_cid]
                del self._classes[self.table.keys[old_cid]]
            self.table.sync(old_cid, members)
        if new_cid >= 0:
            members = self._members.get(new_cid)
            if members is None:
                members = self._members[new_cid] = [pos]
                self._classes[self.table.keys[new_cid]] = members
            else:
                insort(members, pos)
            self.table.sync(new_cid, members)
        self.class_ids[pos] = new_cid

    def _move(
        self, pos: int, shape: MachineShape, old_state: str, new_state: str
    ) -> None:
        """Move a position between the broad-state lists."""
        was_healthy = old_state in (_USED, _UNUSED)
        if was_healthy and new_state == _FAILED:
            _discard_sorted(self._healthy, pos)
        elif not was_healthy and new_state != _FAILED:
            insort(self._healthy, pos)
        if old_state == _USED:
            _discard_sorted(self._used, pos)
        elif old_state == _UNUSED:
            _discard_sorted(self._unused, pos)
            members = self._unused_by_shape[shape]
            _discard_sorted(members, pos)
            if not members:
                del self._unused_by_shape[shape]
        if new_state == _USED:
            insort(self._used, pos)
        elif new_state == _UNUSED:
            insort(self._unused, pos)
            insort(self._unused_by_shape.setdefault(shape, []), pos)
        self._state[pos] = new_state

    def rebuild(self) -> None:
        """Re-derive everything from scratch; re-interns every class id.

        Ids from before the rebuild are meaningless afterwards — the
        inherited epoch bump tells memoized consumers to drop them, and
        the fresh class table unbinds every row state's cached id.
        """
        self.table = SoAClassTable()
        self.class_ids = np.full(len(self._machines), -1, dtype=np.int64)
        super().rebuild()

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_consistency(self) -> List[str]:
        """Base check plus table-vs-membership and id-column checks."""
        problems = super().check_consistency()
        for class_id, members in self._members.items():
            key = self.table.keys[class_id]
            if self.table.lookup(key) != class_id:
                problems.append(
                    f"class table files live class {key!r} under "
                    f"{self.table.lookup(key)}, not {class_id}"
                )
            if int(self.table.rep[class_id]) != members[0] or int(
                self.table.size[class_id]
            ) != len(members):
                problems.append(
                    f"class table row {class_id} diverged: rep/size "
                    f"({int(self.table.rep[class_id])}, "
                    f"{int(self.table.size[class_id])}) != "
                    f"({members[0]}, {len(members)})"
                )
        for class_id in range(self.table.n_classes):
            if class_id not in self._members and self.table.size[class_id] != 0:
                problems.append(
                    f"class table row {class_id} claims "
                    f"{int(self.table.size[class_id])} members but the key "
                    f"is not a live class"
                )
        for pos in range(len(self._machines)):
            if self._state[pos] == _USED:
                expected = self.table.lookup(
                    (self._machines[pos].shape, self._canon[pos])
                )
            else:
                expected = -1
            if int(self.class_ids[pos]) != expected:
                problems.append(
                    f"class-id column stale at position {pos}: "
                    f"{int(self.class_ids[pos])} != {expected}"
                )
        return problems


class SoAIndexedMachines(IndexedMachines):
    """Indexed view that additionally exposes the class-id table.

    Policies detect the ``class_table`` attribute to switch to the
    vectorized ranking path; everything else (Sequence protocol, class
    listings, single-PM exclusion) is inherited unchanged, so policies
    without a vectorized path behave exactly as on the object substrate.
    """

    __slots__ = ()

    @property
    def class_table(self) -> SoAClassTable:
        """The live class-id table of the backing index."""
        return self._index.table

    def excluding(self, pm_id: int) -> "SoAIndexedMachines":
        """Same-index view hiding one PM (keeps the SoA view type)."""
        return SoAIndexedMachines(self._index, pm_id)
