"""Task definitions and ground-truth checkers.

Checkers are pure predicates over ground-truth snapshots; they never see
the agent's beliefs. t2 is defined relative to a baseline snapshot taken
after a successful t1, because "swap" only means something against the
arrangement being swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

T1_ITEMS = ("mug", "box", "cube")
SHELF_ID = "shelf"


class EvaluationError(RuntimeError):
    """A trial or checker was invoked against an unusable state."""


def _object_containment(snapshot: dict[str, Any], object_id: str) -> dict[str, Any]:
    objects = snapshot.get("objects")
    if not isinstance(objects, dict) or object_id not in objects:
        raise EvaluationError(
            f"scenario mismatch: snapshot has no object '{object_id}'"
        )
    containment = objects[object_id]
    if not isinstance(containment, dict):
        raise EvaluationError(f"malformed snapshot: object '{object_id}' is not an object")
    return containment


def _slot_of(snapshot: dict[str, Any], object_id: str) -> tuple[str, int] | None:
    containment = _object_containment(snapshot, object_id)
    if containment.get("kind") != "slot":
        return None
    try:
        return containment["furniture"], containment["slot"]
    except KeyError as exc:
        raise EvaluationError(
            f"malformed snapshot: object '{object_id}' is in a slot without {exc}"
        ) from exc


def _hand_empty(snapshot: dict[str, Any]) -> bool:
    return snapshot.get("agent", {}).get("held") is None


def check_t1(snapshot: dict[str, Any]) -> bool:
    """True iff mug, box, and cube each occupy a distinct shelf slot and
    the agent holds nothing."""
    taken: set[tuple[str, int]] = set()
    for object_id in T1_ITEMS:
        slot = _slot_of(snapshot, object_id)
        if slot is None or slot[0] != SHELF_ID or slot in taken:
            return False
        taken.add(slot)
    return _hand_empty(snapshot)


def check_t2(snapshot: dict[str, Any], baseline: dict[str, Any] | None) -> bool:
    """True iff mug and cube exchanged their baseline slots, the box is
    untouched, and the agent holds nothing."""
    if baseline is None:
        raise EvaluationError("t2 requires a baseline snapshot from t1")
    mug_before = _slot_of(baseline, "mug")
    cube_before = _slot_of(baseline, "cube")
    if mug_before is None or cube_before is None:
        raise EvaluationError("baseline does not place mug and cube in slots")
    mug_now = _slot_of(snapshot, "mug")
    cube_now = _slot_of(snapshot, "cube")
    box_unchanged = _object_containment(snapshot, "box") == _object_containment(
        baseline, "box"
    )
    return (
        mug_now == cube_before
        and cube_now == mug_before
        and box_unchanged
        and _hand_empty(snapshot)
    )


@dataclass(frozen=True)
class TaskDef:
    id: str
    prompt: str
    checker: Callable[..., bool]
    prerequisite: str | None = None

    def check(self, snapshot: dict[str, Any], baseline: dict[str, Any] | None) -> bool:
        if self.prerequisite is None:
            return self.checker(snapshot)
        return self.checker(snapshot, baseline)


TASKS: dict[str, TaskDef] = {
    "t1": TaskDef(
        id="t1",
        prompt="Put the mug, the box, and the cube away on the shelf.",
        checker=check_t1,
    ),
    "t2": TaskDef(
        id="t2",
        prompt="Swap the mug and the cube on the shelf.",
        checker=check_t2,
        prerequisite="t1",
    ),
}
