"""Simulated household world: map, state, kinematics, and scenarios."""

from .scenario import default_scenario
from .state import snapshot
