"""Kinematic world operations: navigation and proximity sensing.

The tools in `hearth.tools.dispatch` check their own preconditions and
word their own failures; what they share with the world lives here.
"""

from __future__ import annotations

from .semantic_map import shortest_path
from .state import WorldState


def execute_move(state: WorldState, goal: str) -> list[str] | None:
    """Walk the agent to `goal`, a node of the map, along the cheapest path.

    Returns the path and advances step_counter by its hops, or returns
    None with the state untouched when the goal is unreachable.
    """
    path = shortest_path(state.map, state.agent.location, goal)
    if path is not None:
        state.agent.location = goal
        state.step_counter += len(path) - 1
    return path


def objects_in_proximity(state: WorldState) -> list[tuple[str, str]]:
    """Objects within the agent's reach radius, with placement descriptions.

    A held object sits at the agent's own position, so it is always listed.
    Sorted by object id for deterministic messages.
    """
    nearby = []
    for oid in sorted(state.objects):
        obj = state.objects[oid]
        if state.within_reach(state.object_position(obj)):
            nearby.append((oid, state.describe_placement(obj)))
    return nearby
