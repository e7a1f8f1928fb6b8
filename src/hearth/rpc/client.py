"""Minimal JSON-RPC client for the tool server."""

from __future__ import annotations

import socket
from typing import Any

from ..jsonio import dumps, loads

# The code of an RpcError the client raises itself: for a closed
# connection, or a reply that is not a JSON-RPC response to the request.
_INTERNAL_ERROR = -32603


class RpcError(RuntimeError):
    """Error object returned by the server."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"RPC error {code}: {message}")
        self.code = code
        self.message = message


class RpcClient:
    """Blocking newline-delimited JSON-RPC 2.0 client."""

    def __init__(self, host: str, port: int, timeout_s: float = 10.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout_s)
        self._reader = self._socket.makefile("rb")
        self._next_id = 1

    def request(self, method: str, params: dict[str, Any] | None = None) -> Any:
        request_id = self._next_id
        self._next_id += 1
        frame = {
            "jsonrpc": "2.0",
            "id": request_id,
            "method": method,
            "params": params or {},
        }
        self._socket.sendall(f"{dumps(frame)}\n".encode())
        line = self._reader.readline()
        if not line:
            raise RpcError(_INTERNAL_ERROR, "server closed the connection")
        try:
            response = loads(line.decode("utf-8"))
        except ValueError as exc:  # a UnicodeDecodeError too
            raise RpcError(_INTERNAL_ERROR, f"reply is not JSON: {exc}") from None
        if not isinstance(response, dict):
            raise RpcError(_INTERNAL_ERROR, f"reply must be an object: {response!r}")
        if response.get("id") != request_id:
            raise RpcError(_INTERNAL_ERROR, f"response id mismatch: {response.get('id')}")
        if "error" in response:
            error = response["error"]
            if not isinstance(error, dict):
                raise RpcError(_INTERNAL_ERROR, f"reply error must be an object: {error!r}")
            code = error.get("code", _INTERNAL_ERROR)
            if type(code) is not int:  # a bool is an int to Python, not to JSON
                raise RpcError(
                    _INTERNAL_ERROR, f"reply error code must be an integer: {code!r}"
                )
            raise RpcError(code, error.get("message", ""))
        return response.get("result")

    def create_session(self, model_id: str = "rpc-client") -> dict[str, Any]:
        return self.request("session.create", {"model_id": model_id})

    def tool(self, name: str, **arguments: Any) -> dict[str, Any]:
        return self.request(f"tool.{name}", arguments)

    def snapshot(self) -> dict[str, Any]:
        return self.request("session.snapshot")

    def close_session(self) -> dict[str, Any]:
        return self.request("session.close")

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
