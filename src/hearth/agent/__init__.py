"""Agent core: context assembly, backends, and the reason-act loop."""

from .backends import ScriptedBackend
from .loop import run_task
from .transcript import Transcript
