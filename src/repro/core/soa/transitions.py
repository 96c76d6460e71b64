"""Transition table of the columnar datacenter: row state + move -> successor.

In the paper (Section V.A) the profile graph *is* the relation "usage +
VM -> successor usage".  The columnar datacenter walks that relation in
real unit order on every placement, eviction and migration.  This module
memoizes the walk per datacenter, so a mutation steps a row by lookup
instead of re-materializing its usage tuple from the columns,
re-canonicalizing it and re-hashing a ``(MachineShape, Usage)`` class
key.

* :class:`RowState` — one ``(shape id, real-order usage)`` state and
  everything derived from it: the canonical usage, both flat column
  rows, and the usage-class id it falls in (bound lazily by the index,
  per class table).
* :class:`TransitionTable` — bounded LRU maps from ``(state,
  assignments, sign)`` to the successor state and from ``(state,
  canonical assignments)`` to the placement remapped onto the state's
  real unit order.

Every cached value is an exact, pure function of its key: the successor
usage is the key's usage shifted by the assignment's chunks, and the
canonical form, the column rows and the remapped placement are
functions of that usage and the shape.  A hit therefore returns what a
fresh computation would (``check`` recomputes every entry to prove it).
Keys hold their states, so a state's identity is never reused while an
entry refers to it.  The table belongs to one datacenter; nothing is
shared between datacenters or kept at module level, and
``SoADatacenter.rebuild`` clears it when the index epoch moves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.permutations import Placement, remap_placement
from repro.core.profile import Usage
from repro.core.soa.columns import ShapeInfo

__all__ = [
    "TRANSITION_ENTRIES",
    "RowState",
    "TransitionTable",
    "shift_usage",
]

#: Bound of each of the table's three maps (states, steps, remaps), read
#: when a table is built.  A 24 h day at 20k PMs visits about a dozen
#: distinct row states, so the bound only matters under adversarial
#: churn.
TRANSITION_ENTRIES = 32_768

Assignments = Tuple[Tuple[Tuple[int, int], ...], ...]


def shift_usage(usage: Usage, assignments: Assignments, sign: int) -> Usage:
    """``usage`` with every assigned chunk added (sign 1) or removed (-1).

    Real unit order is kept; groups the assignment leaves empty are
    shared with ``usage``.
    """
    groups: List[Tuple[int, ...]] = list(usage)
    for g, group_assign in enumerate(assignments[: len(groups)]):
        if not group_assign:
            continue
        values = list(groups[g])
        for idx, chunk in group_assign:
            values[idx] += sign * chunk
        groups[g] = tuple(values)
    return tuple(groups)


def _flat(usage: Usage) -> np.ndarray:
    return np.array([u for group in usage for u in group], dtype=np.int32)


class RowState:
    """One row's real-order usage on a shape, with its derived forms.

    ``usage`` is what the row's usage column holds (as ``flat``),
    ``canonical`` what its canonical column holds (as ``canon_flat``);
    ``negative`` flags a usage no consistent allocation record set can
    produce (the datacenter's corruption check).
    """

    __slots__ = (
        "shape_id", "usage", "canonical", "flat", "canon_flat", "negative",
        "_classes", "_class_id",
    )

    def __init__(self, info: ShapeInfo, usage: Usage) -> None:
        self.shape_id = info.shape_id
        self.usage = usage
        self.canonical = info.shape.canonicalize(usage)
        self.flat = _flat(usage)
        self.canon_flat = _flat(self.canonical)
        self.negative = bool((self.flat < 0).any())
        self._classes: Optional[object] = None
        self._class_id = -1

    def class_id(self, classes: object) -> int:
        """The class id bound under the class table ``classes``, or -1."""
        return self._class_id if self._classes is classes else -1

    def bind_class(self, classes: object, class_id: int) -> None:
        """Record the state's class id under the class table ``classes``.

        Ids are content-addressed within one class table, so the binding
        holds until the index replaces its table (a rebuild).
        """
        self._classes = classes
        self._class_id = class_id

    def __repr__(self) -> str:
        return f"RowState(shape={self.shape_id}, usage={self.usage!r})"


class TransitionTable:
    """Bounded LRU memo of row states, their successors and remaps.

    Each map drops its least recently used entry past
    :data:`TRANSITION_ENTRIES` entries.

    Args:
        infos: the owning datacenter's shape metadata, indexed by dense
            shape id.
    """

    __slots__ = ("max_entries", "_infos", "_states", "_steps", "_remaps")

    def __init__(self, infos: Sequence[ShapeInfo]) -> None:
        self.max_entries = TRANSITION_ENTRIES
        self._infos = infos
        self._states: "OrderedDict[Tuple[int, Usage], RowState]" = OrderedDict()
        self._steps: "OrderedDict[Tuple[RowState, Assignments, int], RowState]" = (
            OrderedDict()
        )
        self._remaps: "OrderedDict[Tuple[RowState, Assignments], Placement]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        """Cached moves: successor steps plus remapped placements."""
        return len(self._steps) + len(self._remaps)

    @property
    def n_states(self) -> int:
        """Interned row states currently held."""
        return len(self._states)

    def states(self) -> List[RowState]:
        """The interned states, least recently used first."""
        return list(self._states.values())

    def clear(self) -> None:
        """Drop every state and cached move (the epoch moved)."""
        self._states.clear()
        self._steps.clear()
        self._remaps.clear()

    def _bounded(self, cache: "OrderedDict[Any, Any]") -> None:
        if len(cache) > self.max_entries:
            cache.popitem(last=False)

    def state(self, shape_id: int, usage: Usage) -> RowState:
        """The interned state of ``usage`` on shape ``shape_id``."""
        key = (shape_id, usage)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = RowState(self._infos[shape_id], usage)
            self._bounded(self._states)
        else:
            self._states.move_to_end(key)
        return state

    def step(
        self, state: RowState, assignments: Assignments, sign: int = 1
    ) -> RowState:
        """Successor of ``state`` after adding (1) or removing (-1) a move.

        The caller validates the move; a successor that removal drove
        negative is returned as is, flagged ``negative``.
        """
        key = (state, assignments, sign)
        successor = self._steps.get(key)
        if successor is not None:
            self._steps.move_to_end(key)
            return successor
        successor = self._steps[key] = self.state(
            state.shape_id, shift_usage(state.usage, assignments, sign)
        )
        self._bounded(self._steps)
        return successor

    def remap(self, state: RowState, placement: Placement) -> Placement:
        """``placement`` (canonical unit order) remapped onto ``state``.

        Same result as :func:`~repro.core.permutations.remap_placement`
        on the state's real usage.  The canonical usage a placement
        reaches follows from the state and its assignments, so a hit
        carrying a different ``new_usage`` can only be a caller's
        inconsistent placement; it is remapped afresh, never served.
        """
        key = (state, placement.assignments)
        remapped = self._remaps.get(key)
        if remapped is not None and remapped.new_usage == placement.new_usage:
            self._remaps.move_to_end(key)
            return remapped
        remapped = self._remaps[key] = remap_placement(
            self._infos[state.shape_id].shape, state.usage, placement
        )
        self._bounded(self._remaps)
        return remapped

    def check(self) -> List[str]:
        """Recompute every cached entry; returns discrepancies (empty = exact)."""
        problems: List[str] = []

        def compare(label: str, cached: RowState, usage: Usage) -> None:
            fresh = RowState(self._infos[cached.shape_id], usage)
            if (
                cached.usage != fresh.usage
                or cached.canonical != fresh.canonical
                or not np.array_equal(cached.flat, fresh.flat)
                or not np.array_equal(cached.canon_flat, fresh.canon_flat)
                or cached.negative != fresh.negative
            ):
                problems.append(f"{label}: cached {cached!r} != fresh {fresh!r}")

        for (shape_id, usage), state in self._states.items():
            if state.shape_id != shape_id:
                problems.append(f"state {state!r} filed under shape {shape_id}")
            compare("state", state, usage)
        for (state, assignments, sign), successor in self._steps.items():
            if successor.shape_id != state.shape_id:
                problems.append(f"step from {state!r} changed shape")
            compare(
                f"step {sign:+d} {assignments!r} from {state!r}",
                successor, shift_usage(state.usage, assignments, sign),
            )
        for (state, assignments), remapped in self._remaps.items():
            fresh_remap = remap_placement(
                self._infos[state.shape_id].shape,
                state.usage,
                Placement(new_usage=remapped.new_usage, assignments=assignments),
            )
            if fresh_remap != remapped:
                problems.append(
                    f"remap from {state!r}: cached {remapped!r} != "
                    f"fresh {fresh_remap!r}"
                )
        for label, cache in (
            ("states", self._states), ("steps", self._steps),
            ("remaps", self._remaps),
        ):
            if len(cache) > self.max_entries:
                problems.append(
                    f"{label} map holds {len(cache)} > {self.max_entries}"
                )
        return problems
