"""HTTP chat backend: OpenAI-compatible chat completions with tools.

Transient transport errors (connection failures, timeouts, 429, 5xx) are
retried with exponential backoff; anything else, including tool-call
arguments that do not decode to JSON objects, surfaces as BackendError
so the loop can record a backend_error termination. Request latency is
recorded per call because remote models can be slow enough for latency
to be a headline metric.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..jsonio import FieldError, from_json, loads
from ..tools.dispatch import ToolCall
from .backends import BackendError, BackendReply, parse_arguments_json
from .context import AgentContext

if TYPE_CHECKING:
    import requests

TRANSIENT_STATUS = (429, 500, 502, 503, 504)


@dataclass
class HttpBackendConfig:
    base_url: str
    model: str
    api_key_env: str = "HEARTH_API_KEY"
    temperature: float | None = 0.0
    timeout_s: float = 180.0
    max_retries: int = 3
    retry_base_s: float = 2.0
    extra_headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HttpBackendConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown backend config fields: {sorted(unknown)}")
        if "base_url" not in data or "model" not in data:
            raise ValueError("backend config requires base_url and model")
        try:
            config = from_json(cls, data)
        except FieldError as exc:
            raise ValueError(f"backend config: {exc}") from None
        if config.max_retries < 0:
            raise ValueError(
                f"backend config: max_retries must be >= 0: {config.max_retries}"
            )
        # Written `not x > 0` so that a NaN is out of range too.
        if not config.timeout_s > 0:
            raise ValueError(f"backend config: timeout_s must be > 0: {config.timeout_s}")
        if not config.retry_base_s >= 0:
            raise ValueError(
                f"backend config: retry_base_s must be >= 0: {config.retry_base_s}"
            )
        for name in ("timeout_s", "retry_base_s", "temperature"):
            value = getattr(config, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"backend config: {name} must be finite: {value}")
        return config


class HttpChatBackend:
    """Chat-completions client used as a reasoning backend."""

    def __init__(
        self,
        config: HttpBackendConfig,
        session: requests.Session | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        # Imported here, not at module level, so that commands that never
        # send HTTP (replay, memory, scripted runs) do not pay its import.
        import requests

        self.config = config
        self._session = session or requests.Session()
        self._sleep = sleeper

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        headers.update(self.config.extra_headers)
        return headers

    def _post_with_retries(self, body: dict[str, Any]) -> dict[str, Any]:
        import requests

        url = f"{self.config.base_url.rstrip('/')}/chat/completions"
        last_error = "no attempt made"
        for attempt in range(self.config.max_retries + 1):
            if attempt > 0:
                self._sleep(self.config.retry_base_s * 2 ** (attempt - 1))
            try:
                response = self._session.post(
                    url, json=body, headers=self._headers(), timeout=self.config.timeout_s
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
                continue
            if response.status_code in TRANSIENT_STATUS:
                last_error = f"transient HTTP {response.status_code}"
                continue
            if response.status_code != 200:
                raise BackendError(
                    f"HTTP {response.status_code} from {url}: {response.text[:500]}"
                )
            try:
                return loads(response.text)
            except ValueError as exc:
                raise BackendError(f"non-JSON response from {url}: {exc}") from exc
        raise BackendError(
            f"giving up on {url} after {self.config.max_retries + 1} attempts: "
            f"{last_error}"
        )

    def next_action(
        self, context: AgentContext, declarations: list[dict[str, Any]]
    ) -> BackendReply:
        body: dict[str, Any] = {
            "model": self.config.model,
            "messages": context.to_chat_messages(),
            "tools": declarations,
            "tool_choice": "auto",
        }
        if self.config.temperature is not None:
            body["temperature"] = self.config.temperature
        started = time.monotonic()
        payload = self._post_with_retries(body)
        latency = time.monotonic() - started
        try:
            message = payload["choices"][0]["message"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat completion payload: {exc}") from exc
        calls: list[ToolCall] = []
        for index, call in enumerate(message.get("tool_calls") or []):
            function = call.get("function") or {}
            name = function.get("name")
            if not isinstance(name, str) or not name:
                raise BackendError(f"tool call #{index} carries no function name")
            raw_args = function.get("arguments", "{}")
            arguments = parse_arguments_json(raw_args, name)
            call_id = call.get("id") or f"call-wire-{index}"
            calls.append(ToolCall(name, arguments, call_id))
        return BackendReply(
            text=message.get("content"), calls=calls, latency_s=latency
        )
