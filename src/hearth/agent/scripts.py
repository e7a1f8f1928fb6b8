"""Shipped scripted behaviors for hermetic runs and tests.

Each script is a generator yielding tool calls (built with call()) or
plain text; the previous tool's result text arrives at each yield. The
registry maps (script name, task id) to a generator factory.

optimal        solves the task outright
hallucinator   shelves two of three items yet reports success
refuser        answers with text and never acts
memory_hinted  consults memory first and explores only on a miss
"""

from __future__ import annotations

from typing import Any, Callable, Generator

Script = Generator[Any, str | None, None]

T1_DESCRIPTION = "put the mug, the box, and the cube away on the shelf"
T2_DESCRIPTION = "swap the mug and the cube on the shelf"

# Where each t1 item starts, and the shelf slot it goes to.
T1_SHELVING = (
    ("kitchen_table", "mug", "shelf_layer_1"),
    ("kitchen_table", "box", "shelf_layer_2"),
    ("living_room_table", "cube", "shelf_layer_3"),
)


def call(name: str, **arguments: Any) -> tuple[str, dict[str, Any]]:
    return name, arguments


def shelve(moves: tuple[tuple[str, str, str], ...]) -> Script:
    """Carry each (location, item, slot) item to its kitchen shelf slot."""
    for location, item, slot in moves:
        yield call("move_to", location=location)
        yield call("grab", object=item)
        yield call("move_to", location="kitchen_shelf")
        yield call("place", slot=slot)


def optimal_t1() -> Script:
    yield call(
        "add_to_scratchpad",
        text=(
            "Plan: shelve the mug and the box from the kitchen table, then "
            "fetch the cube from the living room table."
        ),
    )
    yield from shelve(T1_SHELVING)
    yield call(
        "end_task",
        task_description=T1_DESCRIPTION,
        status="succeeded",
        action_summary=(
            "Carried the mug, the box, and the cube to the kitchen shelf one "
            "at a time and placed each on its own layer."
        ),
    )


def optimal_t2() -> Script:
    # All three shelf layers are full after T1, so the swap needs a
    # temporary slot; the kitchen table provides one.
    yield call(
        "add_to_scratchpad",
        text=(
            "Plan: stash the mug on the kitchen table, move the cube into "
            "the mug's layer, then shelve the mug in the cube's old layer."
        ),
    )
    yield call("move_to", location="kitchen_shelf")
    yield call("grab", object="mug")
    yield call("move_to", location="kitchen_table")
    yield call("place", slot="kitchen_table_layer_1")
    yield call("move_to", location="kitchen_shelf")
    yield call("grab", object="cube")
    yield call("place", slot="shelf_layer_1")
    yield call("move_to", location="kitchen_table")
    yield call("grab", object="mug")
    yield call("move_to", location="kitchen_shelf")
    yield call("place", slot="shelf_layer_3")
    yield call(
        "end_task",
        task_description=T2_DESCRIPTION,
        status="succeeded",
        action_summary=(
            "Parked the mug on the kitchen table, moved the cube into the "
            "mug's shelf layer, then placed the mug on the cube's old layer."
        ),
    )


def hallucinator_t1() -> Script:
    # The cube stays behind.
    yield from shelve(T1_SHELVING[:2])
    yield call(
        "end_task",
        task_description=T1_DESCRIPTION,
        status="succeeded",
        action_summary=(
            "Placed the mug, the box, and the cube on the kitchen shelf."
        ),
    )


def refuser_t1() -> Script:
    while True:
        yield "I believe this task has already been completed."


def memory_hinted_t1() -> Script:
    result = (yield call("search_memory", query=T1_DESCRIPTION)) or ""
    if not result.startswith("Found ") or "no relevant memories" in result.lower():
        # Memory miss, or a failed search (memory not offered): survey the
        # house before working.
        yield call("look_around")
        yield call("move_to", location="kitchen_center")
        yield call("look_around")
        yield call("move_to", location="living_room_center")
        yield call("look_around")
    yield from shelve(T1_SHELVING)
    yield call(
        "end_task",
        task_description=T1_DESCRIPTION,
        status="succeeded",
        action_summary=(
            "Shelved the mug, the box, and the cube on separate layers of "
            "the kitchen shelf."
        ),
    )


SCRIPTS: dict[str, dict[str, Callable[[], Script]]] = {
    "optimal": {"t1": optimal_t1, "t2": optimal_t2},
    "hallucinator": {"t1": hallucinator_t1},
    "refuser": {"t1": refuser_t1},
    "memory_hinted": {"t1": memory_hinted_t1},
}

# Dispatched tool calls each script makes on a fresh default world. The
# memory_hinted counts are (miss, hit).
SCRIPT_CALL_COUNTS = {
    ("optimal", "t1"): 14,
    ("optimal", "t2"): 13,
    ("hallucinator", "t1"): 9,
    ("memory_hinted", "t1"): (19, 14),
}
