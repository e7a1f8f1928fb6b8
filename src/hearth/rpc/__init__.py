"""JSON-RPC server and client for the tool interface."""

from .client import RpcClient, RpcError
