"""Routing: A* against an independent Dijkstra oracle, plus structure checks."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearth.world.scenario import default_scenario
from hearth.world.semantic_map import SemanticMap, UnknownLocationError, shortest_path

from .oracles import dijkstra_cost, path_cost, random_connected_map, two_component_map


def assert_valid_walk(smap, path, start, goal):
    assert path[0] == start
    assert path[-1] == goal
    for a, b in zip(path, path[1:]):
        assert b in smap.adjacency[a], f"({a}, {b}) is not an edge"


class TestAgainstDijkstraOracle:
    def test_hundred_random_graphs_match_oracle(self):
        rng = random.Random(1234)
        for trial in range(100):
            smap = random_connected_map(rng)
            nodes = sorted(smap.positions)
            start = rng.choice(nodes)
            goal = rng.choice(nodes)
            path = shortest_path(smap, start, goal)
            expected = dijkstra_cost(smap, start, goal)
            assert path is not None, f"trial {trial}: no path on a connected map"
            assert_valid_walk(smap, path, start, goal)
            assert path_cost(smap, path) == pytest.approx(expected, abs=1e-9), (
                f"trial {trial}: {start} -> {goal}"
            )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_cost_matches_oracle(self, seed):
        rng = random.Random(seed)
        smap = random_connected_map(rng)
        nodes = sorted(smap.positions)
        start = rng.choice(nodes)
        goal = rng.choice(nodes)
        path = shortest_path(smap, start, goal)
        assert path is not None
        assert_valid_walk(smap, path, start, goal)
        assert path_cost(smap, path) == pytest.approx(
            dijkstra_cost(smap, start, goal), abs=1e-9
        )

    def test_cost_never_below_straight_line(self):
        rng = random.Random(77)
        for _ in range(30):
            smap = random_connected_map(rng)
            nodes = sorted(smap.positions)
            start, goal = rng.choice(nodes), rng.choice(nodes)
            path = shortest_path(smap, start, goal)
            assert path_cost(smap, path) >= smap.euclidean(start, goal) - 1e-9


class TestDefaultMapStructure:
    def test_hallway_is_the_only_room_crossing(self):
        world = default_scenario()
        smap = world.map
        kitchen = [n for n in sorted(smap.positions) if smap.rooms[n] == "kitchen"]
        living = [n for n in sorted(smap.positions) if smap.rooms[n] == "living_room"]
        assert kitchen and living
        for a in kitchen:
            for b in living:
                path = shortest_path(smap, a, b)
                assert path is not None
                assert "hallway" in path, f"{a} -> {b} skipped the hallway"

    def test_default_route_hallway_to_shelf(self):
        smap = default_scenario().map
        assert shortest_path(smap, "hallway", "kitchen_shelf") == [
            "hallway",
            "kitchen_center",
            "kitchen_shelf",
        ]

    def test_shelf_to_living_table_goes_through_three_hops_each_side(self):
        smap = default_scenario().map
        path = shortest_path(smap, "kitchen_shelf", "living_room_table")
        assert path == [
            "kitchen_shelf",
            "kitchen_center",
            "hallway",
            "living_room_center",
            "living_room_table",
        ]


class TestEdgeCases:
    def test_start_equals_goal(self):
        smap = default_scenario().map
        assert shortest_path(smap, "hallway", "hallway") == ["hallway"]

    def test_unknown_endpoint_raises(self):
        smap = default_scenario().map
        with pytest.raises(UnknownLocationError):
            shortest_path(smap, "hallway", "narnia")
        with pytest.raises(UnknownLocationError):
            shortest_path(smap, "narnia", "hallway")

    def test_disconnected_components_return_none(self):
        smap, start, goal = two_component_map(random.Random(5))
        assert shortest_path(smap, start, goal) is None
        assert dijkstra_cost(smap, start, goal) is None

    def test_deterministic_among_equal_cost_paths(self):
        # Diamond where both arms cost the same; the tie must break the
        # same way on every call.
        smap = SemanticMap()
        smap.add_node("s", 0.0, 0.0, "r")
        smap.add_node("up", 1.0, 1.0, "r")
        smap.add_node("down", 1.0, -1.0, "r")
        smap.add_node("t", 2.0, 0.0, "r")
        for a, b in (("s", "up"), ("s", "down"), ("up", "t"), ("down", "t")):
            smap.add_edge(a, b)
        first = shortest_path(smap, "s", "t")
        assert all(shortest_path(smap, "s", "t") == first for _ in range(10))
        assert path_cost(smap, first) == pytest.approx(2 * math.sqrt(2))

    def test_prefers_cheap_detour_over_expensive_direct_edge(self):
        smap = SemanticMap()
        smap.add_node("a", 0.0, 0.0, "r")
        smap.add_node("b", 1.0, 0.0, "r")
        smap.add_node("c", 2.0, 0.0, "r")
        smap.add_edge("a", "b")
        smap.add_edge("b", "c")
        smap.add_edge("a", "c", cost=10.0)
        assert shortest_path(smap, "a", "c") == ["a", "b", "c"]
        assert path_cost(smap, ["a", "b", "c"]) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, 10**400],
        ids=["inf", "-inf", "nan", "huge-int"],
    )
    def test_non_finite_numbers_are_refused(self, value):
        """A coordinate or cost that is not a finite number would make
        every distance from it meaningless."""
        smap = SemanticMap()
        with pytest.raises(ValueError, match="^x of node 'a' must be a finite number: "):
            smap.add_node("a", value, 0.0, "r")
        with pytest.raises(ValueError, match="^y of node 'a' must be a finite number: "):
            smap.add_node("a", 0.0, value, "r")
        smap.add_node("a", 0.0, 0.0, "r")
        smap.add_node("b", 1.0, 0.0, "r")
        with pytest.raises(ValueError, match=r"^cost of edge \(a, b\) must be a finite "):
            smap.add_edge("a", "b", value)
        assert smap.adjacency == {"a": {}, "b": {}}
