"""JSON-RPC 2.0 access to the tool interface, for external agents.

Frames are newline-delimited JSON over TCP (or stdio for subprocess
embedding), at most MAX_FRAME_BYTES each: a longer one is refused and
ends the connection. Each connection owns at most one session: a
private copy of the world the server built once from its scenario, plus
private memory handles. Tool failures travel as successful RPC
responses carrying status=failure; RPC-level errors are reserved for
transport problems such as unknown methods or malformed params.
Ground-truth snapshots are withheld unless the server was started with
expose_ground_truth, so a remote agent cannot peek at the world state it
is supposed to discover.
"""

from __future__ import annotations

import itertools
import json
import math
import socketserver
import sys
from typing import Any, BinaryIO, Callable, TextIO

from ..jsonio import loads
from ..memory.episodic import EpisodicStore
from ..memory.scratchpad import Scratchpad
from ..tools.dispatch import TOOL_SCHEMAS, MemoryHandles, ToolCall, dispatch
from ..world.scenario import load_scenario
from ..world.state import WorldState, snapshot

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
APP_ERROR = -32000

# The longest frame a connection may send, its newline included.
MAX_FRAME_BYTES = 1 << 20

# Numbers session ids across every connection; a count's next is one C
# call, so threads that share it never get the same number.
_session_numbers = itertools.count(1)


class _RpcFault(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _error(code: int, message: str) -> dict[str, Any]:
    return {"error": {"code": code, "message": message}}


def _encode(request_id: Any, response: dict[str, Any]) -> str:
    """The frame of a response: `response` holds its result or error."""
    return json.dumps({"jsonrpc": "2.0", "id": request_id, **response}, sort_keys=True)


class RpcConnection:
    """Per-connection protocol state: one optional session."""

    def __init__(self, initial_world: dict[str, Any], expose_ground_truth: bool) -> None:
        self._initial_world = initial_world
        self._expose_ground_truth = expose_ground_truth
        # The open session's id, world and memory handles.
        self._session: tuple[str, WorldState, MemoryHandles] | None = None

    def handle_line(self, line: str) -> str | None:
        """Process one frame; returns the response frame, or None for a
        notification. A frame that is not JSON, or not a valid request, is
        answered even without an id, since it is no notification."""
        try:
            payload = loads(line)
        except ValueError as exc:
            return _encode(None, _error(PARSE_ERROR, f"parse error: {exc}"))
        if not isinstance(payload, dict):
            return _encode(None, _error(INVALID_REQUEST, "request must be an object"))
        request_id = payload.get("id")
        # A bool is an int to Python, but not a number to JSON-RPC; nor is
        # the infinity that a number such as 1e999 reads as.
        typed = type(request_id) in (str, int, float, type(None))
        if not typed or request_id in (math.inf, -math.inf):
            return _encode(
                None, _error(INVALID_REQUEST, "id must be a string, a number or null")
            )
        if payload.get("jsonrpc") != "2.0":
            return _encode(request_id, _error(INVALID_REQUEST, "jsonrpc must be '2.0'"))
        method = payload.get("method")
        if not isinstance(method, str):
            return _encode(request_id, _error(INVALID_REQUEST, "method must be a string"))
        try:
            response = {"result": self._route(method, payload.get("params", {}))}
        except _RpcFault as fault:
            response = _error(fault.code, fault.message)
        except Exception as exc:  # noqa: BLE001 - the request must be answered
            response = _error(INTERNAL_ERROR, f"internal error: {exc}")
        if "id" not in payload:
            # A notification is never answered, not even when it fails
            # (JSON-RPC 2.0, section 4.1): a client that pipelines
            # requests would take the reply for that of its next request.
            return None
        return _encode(request_id, response)

    def _require_session(self) -> tuple[str, WorldState, MemoryHandles]:
        if self._session is None:
            raise _RpcFault(APP_ERROR, "no session; call session.create first")
        return self._session

    def _route(self, method: str, params: Any) -> Any:
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise _RpcFault(INVALID_PARAMS, "params must be an object")
        if method == "session.create":
            return self._session_create(params)
        if method == "session.snapshot":
            return self._session_snapshot()
        if method == "session.close":
            return self._session_close()
        if method.startswith("tool."):
            return self._tool_call(method[len("tool."):], params)
        raise _RpcFault(METHOD_NOT_FOUND, f"unknown method '{method}'")

    def _session_create(self, params: dict[str, Any]) -> dict[str, Any]:
        if self._session is not None:
            raise _RpcFault(APP_ERROR, "this connection already owns a session")
        model_id = params.get("model_id", "rpc-client")
        if not isinstance(model_id, str):
            raise _RpcFault(INVALID_PARAMS, "model_id must be a string")
        session_id = f"sess-{next(_session_numbers):04d}"
        self._session = (
            session_id,
            WorldState.from_dict(self._initial_world),
            MemoryHandles(Scratchpad(), EpisodicStore(), model_id),
        )
        return {"session_id": session_id, "tools": sorted(TOOL_SCHEMAS)}

    def _session_snapshot(self) -> dict[str, Any]:
        _, world, _ = self._require_session()
        if not self._expose_ground_truth:
            raise _RpcFault(
                APP_ERROR,
                "ground truth is not exposed; start the server with "
                "--expose-ground-truth",
            )
        return snapshot(world)

    def _session_close(self) -> dict[str, Any]:
        closed, _, _ = self._require_session()
        self._session = None
        return {"closed": closed}

    def _tool_call(self, name: str, params: dict[str, Any]) -> dict[str, Any]:
        if name not in TOOL_SCHEMAS:
            raise _RpcFault(METHOD_NOT_FOUND, f"unknown method 'tool.{name}'")
        _, world, handles = self._require_session()
        return dispatch(ToolCall(name, params), world, handles).to_dict()


def _serve(
    connection: RpcConnection, stream: BinaryIO | TextIO, write: Callable[[str], Any]
) -> None:
    """The read-dispatch-write loop of both transports. A frame longer
    than MAX_FRAME_BYTES, its newline counted, is refused and ends the
    connection, so no client makes the server buffer without bound. A
    text `stream`, as tests and embedders may pass, is bounded in
    characters."""
    while frame := stream.readline(MAX_FRAME_BYTES + 1):
        if len(frame) > MAX_FRAME_BYTES:
            refusal = _error(INVALID_REQUEST, f"frame exceeds {MAX_FRAME_BYTES} bytes")
            write(_encode(None, refusal) + "\n")
            return
        if isinstance(frame, bytes):
            # Bytes that are not UTF-8 decode to lone surrogates, which JSON
            # accepts only inside a string: such a frame gets PARSE_ERROR,
            # and the connection goes on.
            frame = frame.decode("utf-8", "surrogateescape")
        line = frame.strip()
        if not line:
            continue
        response = connection.handle_line(line)
        if response is not None:
            write(response + "\n")


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: ToolRpcServer = self.server  # type: ignore[assignment]
        _serve(
            RpcConnection(server.initial_world, server.expose_ground_truth),
            self.rfile,
            lambda frame: self.wfile.write(frame.encode("utf-8")),
        )


class ToolRpcServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server; pass port 0 to bind an ephemeral port."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        scenario_data: dict[str, Any],
        expose_ground_truth: bool = False,
    ) -> None:
        self.initial_world = load_scenario(scenario_data).to_dict()
        self.expose_ground_truth = expose_ground_truth
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_stdio(
    scenario_data: dict[str, Any],
    expose_ground_truth: bool = False,
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
) -> None:
    """Serve one implicit connection over stdin/stdout."""
    out = stdout or sys.stdout

    def write(frame: str) -> None:
        out.write(frame)
        out.flush()

    _serve(
        RpcConnection(load_scenario(scenario_data).to_dict(), expose_ground_truth),
        stdin if stdin is not None else sys.stdin.buffer,
        write,
    )
