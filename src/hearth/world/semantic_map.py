"""Semantic navigation graph: named locations, weighted edges, A* routing."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from ..jsonio import read_field, read_object

# Slack when checking that an edge cost covers the straight-line distance
# between its endpoints (keeps the Euclidean heuristic admissible).
_COST_EPS = 1e-9


def finite(value: float, what: str) -> float:
    """`value`, or a ValueError naming `what` when it is not a finite
    number: a coordinate, cost or radius of infinity (which a JSON number
    such as 1e999 reads as) or NaN would make every distance meaningless."""
    try:
        ok = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a finite number: {value!r}")
    return value


class UnknownLocationError(KeyError):
    """A location id that is not a node of the map."""

    def __init__(self, location_id: str):
        super().__init__(location_id)
        self.location_id = location_id

    def __str__(self) -> str:
        return f"unknown location '{self.location_id}'"


@dataclass
class SemanticMap:
    """Undirected weighted graph of named locations with 2D positions.

    Edge costs must be at least the Euclidean distance between the
    endpoints, so straight-line distance is an admissible (and consistent)
    A* heuristic on every instance.
    """

    positions: dict[str, tuple[float, float]] = field(default_factory=dict)
    rooms: dict[str, str] = field(default_factory=dict)
    adjacency: dict[str, dict[str, float]] = field(default_factory=dict)

    def add_node(self, node_id: str, x: float, y: float, room: str) -> None:
        if node_id in self.positions:
            raise ValueError(f"duplicate node id '{node_id}'")
        self.positions[node_id] = (
            float(finite(x, f"x of node '{node_id}'")),
            float(finite(y, f"y of node '{node_id}'")),
        )
        self.rooms[node_id] = room
        self.adjacency[node_id] = {}

    def add_edge(self, a: str, b: str, cost: float | None = None) -> None:
        """Add an undirected edge; cost defaults to the Euclidean distance."""
        self.require(a)
        self.require(b)
        if a == b:
            raise ValueError(f"self-loop on '{a}' not allowed")
        straight = self.euclidean(a, b)
        if cost is None:
            cost = straight
        cost = float(finite(cost, f"cost of edge ({a}, {b})"))
        if cost < 0:
            raise ValueError(f"negative edge cost on ({a}, {b})")
        if cost + _COST_EPS < straight:
            raise ValueError(
                f"edge cost {cost} on ({a}, {b}) is below the Euclidean "
                f"distance {straight:.6f}"
            )
        self.adjacency[a][b] = cost
        self.adjacency[b][a] = cost

    def require(self, node_id: str) -> None:
        if node_id not in self.positions:
            raise UnknownLocationError(node_id)

    def euclidean(self, a: str, b: str) -> float:
        return math.dist(self.positions[a], self.positions[b])

    def neighbors(self, node_id: str) -> list[tuple[str, float]]:
        """Neighbors of a node as (id, cost), sorted by id for determinism."""
        self.require(node_id)
        return sorted(self.adjacency[node_id].items())

    def is_connected(self) -> bool:
        if not self.positions:
            return True
        start = next(iter(self.positions))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self.adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == len(self.positions)

    def to_dict(self) -> dict:
        nodes = [
            {"id": n, "x": self.positions[n][0], "y": self.positions[n][1],
             "room": self.rooms[n]}
            for n in sorted(self.positions)
        ]
        edges = []
        for a, nbrs in self.adjacency.items():
            for b, cost in nbrs.items():
                if a < b:
                    edges.append({"a": a, "b": b, "cost": cost})
        edges.sort(key=lambda e: (e["a"], e["b"]))
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_dict(cls, data: dict) -> SemanticMap:
        """Rebuild a map from `to_dict()` output; nodes and edges must be
        objects, ids and rooms strings, coordinates and costs numbers."""
        smap = cls()
        for node in data["nodes"]:
            read_object(node, "node entry")
            smap.add_node(
                read_field(node, "id", str),
                read_field(node, "x", float),
                read_field(node, "y", float),
                read_field(node, "room", str),
            )
        for edge in data["edges"]:
            read_object(edge, "edge entry")
            cost = read_field(edge, "cost", float) if "cost" in edge else None
            smap.add_edge(edge["a"], edge["b"], cost)
        return smap


def shortest_path(smap: SemanticMap, start: str, goal: str) -> list[str] | None:
    """Minimum-cost node sequence from start to goal, or None if unreachable.

    A* with the Euclidean heuristic; among frontier entries with equal
    f-cost the lexicographically smallest node id is expanded first, which
    makes the returned path deterministic.
    """
    smap.require(start)
    smap.require(goal)
    if start == goal:
        return [start]

    def h(node: str) -> float:
        return smap.euclidean(node, goal)

    open_heap: list[tuple[float, str]] = [(h(start), start)]
    g = {start: 0.0}
    parent: dict[str, str] = {}
    closed: set[str] = set()

    while open_heap:
        _, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        closed.add(node)
        if node == goal:
            path = [goal]
            while path[-1] != start:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for nbr, cost in smap.neighbors(node):
            tentative = g[node] + cost
            if tentative < g.get(nbr, math.inf):
                g[nbr] = tentative
                parent[nbr] = node
                heapq.heappush(open_heap, (tentative + h(nbr), nbr))
    return None
