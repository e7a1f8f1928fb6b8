"""The perceive-reason-act loop.

One task execution: clear the scratchpad, assemble the context, then
alternate between asking the backend for the next action and dispatching
it, until the agent files a report via end_task, hits the tool-call
budget, refuses to act often enough, or the backend gives out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tools.dispatch import MemoryHandles, dispatch, failure
from ..world.state import WorldState
from .backends import Backend, BackendError
from .context import AgentContext, build_system_prompt, tool_declarations
from .transcript import TranscriptMessage

REFUSAL_THRESHOLD = 10
DEFAULT_MAX_TOOL_CALLS = 50

TERMINATION_END_TASK = "end_task"
TERMINATION_STEP_LIMIT = "step_limit"
TERMINATION_REFUSAL = "refusal"
TERMINATION_BACKEND_ERROR = "backend_error"

# What every call of a reply with parallel calls gets back.
_PARALLEL_CALLS = failure(
    "Tool call", "parallel-calls",
    "issue exactly one tool call per turn; none of these calls were executed",
)
PARALLEL_CALLS_MESSAGE = _PARALLEL_CALLS.message


@dataclass
class TaskRun:
    termination: str
    believed_status: str | None
    tool_calls: int
    messages: list[TranscriptMessage]
    latencies_s: list[float] = field(default_factory=list)
    error: str | None = None


def run_task(
    world: WorldState,
    memory: MemoryHandles,
    backend: Backend,
    task_prompt: str,
    max_tool_calls: int = DEFAULT_MAX_TOOL_CALLS,
    memory_enabled: bool = True,
) -> TaskRun:
    """Drive one task to termination and return its record.

    The run stops after `max_tool_calls` dispatched calls; search_memory
    is offered only if `memory_enabled`, and a call to a tool not offered
    fails as a call to an unknown tool.
    """
    memory.scratchpad.clear()
    context = AgentContext(build_system_prompt(memory_enabled), task_prompt)
    declarations = tool_declarations(memory_enabled)
    offered = {declaration["function"]["name"] for declaration in declarations}

    # Consecutive replies without a tool call; any reply with calls,
    # parallel ones included, resets it.
    streak = 0
    tool_calls = 0
    latencies: list[float] = []
    # Hard bound on backend invocations so a backend that only ever
    # proposes parallel calls cannot spin the loop forever.
    max_invocations = max_tool_calls * 3 + REFUSAL_THRESHOLD

    def finish(
        termination: str, believed: str | None, error: str | None = None
    ) -> TaskRun:
        return TaskRun(
            termination=termination,
            believed_status=believed,
            tool_calls=tool_calls,
            messages=context.messages,
            latencies_s=latencies,
            error=error,
        )

    for _ in range(max_invocations):
        try:
            reply = backend.next_action(context, declarations)
        except BackendError as exc:
            context.append_assistant_text(f"[backend error: {exc}]")
            return finish(TERMINATION_BACKEND_ERROR, None, error=str(exc))
        if reply.latency_s is not None:
            latencies.append(reply.latency_s)

        if not reply.calls:
            context.append_assistant_text(reply.text or "")
            streak += 1
            if streak >= REFUSAL_THRESHOLD:
                return finish(TERMINATION_REFUSAL, None)
            continue
        streak = 0

        if len(reply.calls) > 1:
            # Parallel calls are rejected wholesale: every call gets a
            # corrective tool message and none is dispatched.
            context.append_assistant_calls(reply.calls, reply.text)
            for call in reply.calls:
                context.append_tool_result(call, _PARALLEL_CALLS)
            continue

        call = reply.calls[0]
        context.append_assistant_calls([call], reply.text)
        result = dispatch(call, world, memory, offered)
        tool_calls += 1
        context.append_tool_result(call, result)

        if result.ok and result.machine_payload.get("terminates"):
            return finish(
                TERMINATION_END_TASK, result.machine_payload["believed_status"]
            )
        if tool_calls >= max_tool_calls:
            return finish(TERMINATION_STEP_LIMIT, None)

    return finish(TERMINATION_STEP_LIMIT, None)
