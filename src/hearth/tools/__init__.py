"""The eight agent-facing tools: schemas and the dispatcher."""

from .dispatch import MemoryHandles
