"""HTTP chat backend: wire parsing, retry policy, latency accounting."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from hearth.agent.backends import BackendError
from hearth.agent.context import AgentContext, tool_declarations
from hearth.agent.http_backend import HttpBackendConfig, HttpChatBackend
from hearth.agent.loop import TERMINATION_END_TASK, run_task


def completion(content=None, tool_calls=None):
    message = {"role": "assistant", "content": content}
    if tool_calls is not None:
        message["tool_calls"] = tool_calls
    return {"choices": [{"message": message}]}


def wire_call(call_id, name, arguments):
    return {
        "id": call_id,
        "type": "function",
        "function": {"name": name, "arguments": json.dumps(arguments)},
    }


class PlannedResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text if payload is None else json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("not JSON")
        return self._payload


class FakeSession:
    """Replays a plan of responses; an exception instance means 'raise'."""

    def __init__(self, plan):
        self.plan = list(plan)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append(
            {"url": url, "body": json, "headers": headers, "timeout": timeout}
        )
        step = self.plan.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def make_backend(plan, **overrides):
    config_kwargs = {
        "base_url": "http://api.test/v1",
        "model": "test-model",
        "retry_base_s": 0.25,
    }
    config_kwargs.update(overrides)
    sleeps = []
    backend = HttpChatBackend(
        HttpBackendConfig(**config_kwargs),
        session=FakeSession(plan),
        sleeper=sleeps.append,
    )
    return backend, backend._session, sleeps


def fresh_context():
    return AgentContext(system_prompt="sys", task_prompt="do the thing")


class TestWireParsing:
    def test_tool_call_reply(self):
        plan = [
            PlannedResponse(
                200,
                completion(
                    content="on it",
                    tool_calls=[wire_call("call-7", "grab", {"object": "mug"})],
                ),
            )
        ]
        backend, session, _ = make_backend(plan)
        reply = backend.next_action(fresh_context(), tool_declarations())
        assert reply.text == "on it"
        assert len(reply.calls) == 1
        proposed = reply.calls[0]
        assert (proposed.id, proposed.name) == ("call-7", "grab")
        assert proposed.arguments == {"object": "mug"}
        assert session.requests[0]["url"] == "http://api.test/v1/chat/completions"

    def test_content_only_reply(self):
        backend, _, _ = make_backend([PlannedResponse(200, completion("thinking"))])
        reply = backend.next_action(fresh_context(), tool_declarations())
        assert reply.text == "thinking"
        assert reply.calls == []

    def test_missing_call_id_gets_a_fallback(self):
        calls = [
            {"type": "function", "function": {"name": "look_around", "arguments": "{}"}}
        ]
        backend, _, _ = make_backend(
            [PlannedResponse(200, completion(tool_calls=calls))]
        )
        reply = backend.next_action(fresh_context(), tool_declarations())
        assert reply.calls[0].id == "call-wire-0"

    def test_request_body_shape(self):
        backend, session, _ = make_backend([PlannedResponse(200, completion("ok"))])
        declarations = tool_declarations()
        backend.next_action(fresh_context(), declarations)
        body = session.requests[0]["body"]
        assert body["model"] == "test-model"
        assert body["tools"] == declarations
        assert body["tool_choice"] == "auto"
        assert body["temperature"] == 0.0
        assert body["messages"][0] == {"role": "system", "content": "sys"}
        assert body["messages"][1] == {"role": "user", "content": "do the thing"}

    def test_temperature_none_is_omitted(self):
        backend, session, _ = make_backend(
            [PlannedResponse(200, completion("ok"))], temperature=None
        )
        backend.next_action(fresh_context(), tool_declarations())
        assert "temperature" not in session.requests[0]["body"]

    def test_auth_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("HEARTH_API_KEY", "hunter2")
        backend, session, _ = make_backend([PlannedResponse(200, completion("ok"))])
        backend.next_action(fresh_context(), tool_declarations())
        assert session.requests[0]["headers"]["Authorization"] == "Bearer hunter2"

    def test_latency_is_recorded_per_request(self):
        backend, _, _ = make_backend(
            [PlannedResponse(200, completion("a")), PlannedResponse(200, completion("b"))]
        )
        first = backend.next_action(fresh_context(), tool_declarations())
        second = backend.next_action(fresh_context(), tool_declarations())
        assert first.latency_s is not None and first.latency_s >= 0.0
        assert second.latency_s is not None and second.latency_s >= 0.0


class TestRetryPolicy:
    def test_transient_500s_then_success(self):
        plan = [
            PlannedResponse(500),
            PlannedResponse(502),
            PlannedResponse(429),
            PlannedResponse(200, completion("finally")),
        ]
        backend, session, sleeps = make_backend(plan)
        reply = backend.next_action(fresh_context(), tool_declarations())
        assert reply.text == "finally"
        assert len(session.requests) == 4
        assert sleeps == [0.25, 0.5, 1.0]

    def test_gives_up_after_max_retries(self):
        backend, session, sleeps = make_backend([PlannedResponse(503)] * 4)
        with pytest.raises(BackendError, match="after 4 attempts"):
            backend.next_action(fresh_context(), tool_declarations())
        assert len(session.requests) == 4
        assert len(sleeps) == 3

    def test_connection_errors_are_transient(self):
        plan = [
            requests.ConnectionError("refused"),
            PlannedResponse(200, completion("recovered")),
        ]
        backend, _, sleeps = make_backend(plan)
        reply = backend.next_action(fresh_context(), tool_declarations())
        assert reply.text == "recovered"
        assert sleeps == [0.25]

    def test_non_transient_status_fails_immediately(self):
        backend, session, sleeps = make_backend(
            [PlannedResponse(400, text="bad request")]
        )
        with pytest.raises(BackendError, match="HTTP 400"):
            backend.next_action(fresh_context(), tool_declarations())
        assert len(session.requests) == 1
        assert sleeps == []


class TestMalformedReplies:
    def test_non_json_200_raises(self):
        backend, _, _ = make_backend([PlannedResponse(200, text="<html>oops</html>")])
        with pytest.raises(BackendError, match="non-JSON response"):
            backend.next_action(fresh_context(), tool_declarations())

    def test_missing_choices_raises(self):
        backend, _, _ = make_backend([PlannedResponse(200, payload={"choices": []})])
        with pytest.raises(BackendError, match="malformed chat completion"):
            backend.next_action(fresh_context(), tool_declarations())

    def test_malformed_tool_arguments_raise(self):
        calls = [
            {
                "id": "call-1",
                "type": "function",
                "function": {"name": "grab", "arguments": "{broken"},
            }
        ]
        backend, _, _ = make_backend(
            [PlannedResponse(200, completion(tool_calls=calls))]
        )
        with pytest.raises(BackendError, match="grab"):
            backend.next_action(fresh_context(), tool_declarations())

    def test_non_object_tool_arguments_raise(self):
        calls = [
            {
                "id": "call-1",
                "type": "function",
                "function": {"name": "grab", "arguments": "[1, 2]"},
            }
        ]
        backend, _, _ = make_backend(
            [PlannedResponse(200, completion(tool_calls=calls))]
        )
        with pytest.raises(BackendError):
            backend.next_action(fresh_context(), tool_declarations())

    def test_nameless_tool_call_raises(self):
        calls = [{"id": "call-1", "type": "function", "function": {"arguments": "{}"}}]
        backend, _, _ = make_backend(
            [PlannedResponse(200, completion(tool_calls=calls))]
        )
        with pytest.raises(BackendError, match="no function name"):
            backend.next_action(fresh_context(), tool_declarations())


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown backend config fields"):
            HttpBackendConfig.from_dict(
                {"base_url": "x", "model": "y", "tempersture": 1}
            )

    def test_required_fields(self):
        with pytest.raises(ValueError, match="base_url and model"):
            HttpBackendConfig.from_dict({"model": "y"})

    def test_roundtrip_of_known_fields(self):
        config = HttpBackendConfig.from_dict(
            {"base_url": "http://x", "model": "y", "max_retries": 1}
        )
        assert config.max_retries == 1
        assert config.retry_base_s == 2.0

    @pytest.mark.parametrize("name", ["timeout_s", "retry_base_s", "temperature"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, name, value):
        """A NaN or infinity that passes a range check (or has none) is
        refused too, before any request."""
        with pytest.raises(ValueError, match="^backend config: "):
            HttpBackendConfig.from_dict({"base_url": "x", "model": "y", name: value})


class CannedChatHandler(BaseHTTPRequestHandler):
    """Serves a fixed sequence of chat completions over real HTTP."""

    script = []
    served = 0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        json.loads(self.rfile.read(length))
        index = min(type(self).served, len(type(self).script) - 1)
        payload = type(self).script[index]
        type(self).served += 1
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestAgainstRealServer:
    def test_full_task_over_localhost(self, world, handles):
        CannedChatHandler.script = [
            completion(tool_calls=[wire_call("call-1", "look_around", {})]),
            completion(
                tool_calls=[
                    wire_call(
                        "call-2",
                        "end_task",
                        {
                            "task_description": "survey the house",
                            "status": "succeeded",
                            "action_summary": "looked around once",
                        },
                    )
                ]
            ),
        ]
        CannedChatHandler.served = 0
        server = ThreadingHTTPServer(("127.0.0.1", 0), CannedChatHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            config = HttpBackendConfig(
                base_url=f"http://127.0.0.1:{server.server_address[1]}",
                model="canned",
                timeout_s=10.0,
            )
            backend = HttpChatBackend(config)
            run = run_task(world, handles, backend, "survey the house")
        finally:
            server.shutdown()
            server.server_close()
        assert run.termination == TERMINATION_END_TASK
        assert run.believed_status == "succeeded"
        assert run.tool_calls == 2
        assert len(run.latencies_s) == 2
        assert all(v > 0.0 for v in run.latencies_s)
