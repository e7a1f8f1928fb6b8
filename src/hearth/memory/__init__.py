"""Two-tier memory: per-task scratchpad and persistent episodic store."""

from .episodic import EpisodicStore
from .scratchpad import Scratchpad
