"""The eight agent-facing tools: their declarations and the dispatcher."""

from .dispatch import MemoryHandles
