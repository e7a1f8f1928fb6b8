"""Agent core: context assembly, backends, and the reason-act loop."""

from .backends import (
    Backend,
    BackendError,
    BackendReply,
    ProposedCall,
    RecordedReplayBackend,
    ReplayDivergence,
    ScriptedBackend,
    parse_arguments_json,
)
from .context import (
    DEFAULT_MESSAGE_BUDGET,
    PROMPT_VERSION,
    AgentContext,
    PromptConfig,
    build_system_prompt,
    tool_declarations,
)
from .http_backend import HttpBackendConfig, HttpChatBackend
from .loop import (
    REFUSAL_THRESHOLD,
    TERMINATION_BACKEND_ERROR,
    TERMINATION_END_TASK,
    TERMINATION_REFUSAL,
    TERMINATION_STEP_LIMIT,
    RunLimits,
    TaskRun,
    detect_refusal,
    run_task,
)
from .scripts import SCRIPT_CALL_COUNTS, SCRIPTS, call
from .transcript import (
    Transcript,
    TranscriptError,
    TranscriptFinal,
    TranscriptHeader,
    TranscriptMessage,
)

__all__ = [
    "AgentContext",
    "Backend",
    "BackendError",
    "BackendReply",
    "DEFAULT_MESSAGE_BUDGET",
    "HttpBackendConfig",
    "HttpChatBackend",
    "PROMPT_VERSION",
    "PromptConfig",
    "ProposedCall",
    "REFUSAL_THRESHOLD",
    "RecordedReplayBackend",
    "ReplayDivergence",
    "RunLimits",
    "SCRIPTS",
    "SCRIPT_CALL_COUNTS",
    "ScriptedBackend",
    "TERMINATION_BACKEND_ERROR",
    "TERMINATION_END_TASK",
    "TERMINATION_REFUSAL",
    "TERMINATION_STEP_LIMIT",
    "TaskRun",
    "Transcript",
    "TranscriptError",
    "TranscriptFinal",
    "TranscriptHeader",
    "TranscriptMessage",
    "build_system_prompt",
    "call",
    "detect_refusal",
    "parse_arguments_json",
    "run_task",
    "tool_declarations",
]
