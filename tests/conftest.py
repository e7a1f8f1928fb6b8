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


class CountingValidator:
    """Stands in for the compiled scenario validator and counts its uses."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def iter_errors(self, data):
        self.calls += 1
        return self.inner.iter_errors(data)


@pytest.fixture
def scenario_validations(monkeypatch) -> CountingValidator:
    """Count how often scenario documents are validated during a test.

    Patches the `_validator()` seam, which compiles the validator on first
    use, so the count holds whether or not an earlier test compiled it."""
    counting = CountingValidator(scenario_module._validator())
    monkeypatch.setattr(scenario_module, "_validator", lambda: counting)
    return counting
