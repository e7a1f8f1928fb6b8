from __future__ import annotations

import pytest

import hearth.world.scenario as scenario_module
from hearth.memory.episodic import EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import MemoryHandles, ToolCall, dispatch
from hearth.world.scenario import default_scenario
from hearth.world.state import WorldState


@pytest.fixture
def world() -> WorldState:
    return default_scenario()


@pytest.fixture
def handles() -> MemoryHandles:
    return MemoryHandles(
        scratchpad=Scratchpad(), store=EpisodicStore(), model_id="test"
    )


@pytest.fixture
def call_tool(world, handles):
    """Dispatch one tool call against the shared fixtures."""

    def runner(name: str, arguments: dict | None = None):
        return dispatch(ToolCall(name, arguments if arguments is not None else {}),
                        world, handles)

    return runner


class CountingCheck:
    """Stands in for the scenario schema check and counts its uses."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, data):
        self.calls += 1
        return self.inner(data)


@pytest.fixture
def scenario_validations(monkeypatch) -> CountingCheck:
    """Count how often scenario documents are checked against the schema
    during a test.

    Patches the `_schema_error` seam, which every check goes through,
    whether the document passes or its error is worded."""
    counting = CountingCheck(scenario_module._schema_error)
    monkeypatch.setattr(scenario_module, "_schema_error", counting)
    return counting
