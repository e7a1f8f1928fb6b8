"""JSON-RPC server: protocol conformance, sessions, wire-level parity."""

import io
import itertools
import json
import os
import random
import socket
import threading

import pytest

from hearth.harness.tasks import check_t1
from hearth.jsonio import loads
from hearth.memory.episodic import EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.rpc.client import RpcClient, RpcError
from hearth.rpc.server import RpcConnection, ToolRpcServer, serve_stdio
from hearth.tools.dispatch import TOOL_SCHEMAS, MemoryHandles, ToolCall, dispatch
from hearth.world.scenario import default_scenario_data, load_scenario
from hearth.world.state import canonical_json, snapshot

T1_WIRE_SEQUENCE = [
    ("move_to", {"location": "kitchen_table"}),
    ("grab", {"object": "mug"}),
    ("move_to", {"location": "kitchen_shelf"}),
    ("place", {"slot": "shelf_layer_1"}),
    ("move_to", {"location": "kitchen_table"}),
    ("grab", {"object": "box"}),
    ("move_to", {"location": "kitchen_shelf"}),
    ("place", {"slot": "shelf_layer_2"}),
    ("move_to", {"location": "living_room_table"}),
    ("grab", {"object": "cube"}),
    ("move_to", {"location": "kitchen_shelf"}),
    ("place", {"slot": "shelf_layer_3"}),
]


@pytest.fixture
def server():
    srv = ToolRpcServer(
        ("127.0.0.1", 0), default_scenario_data(), expose_ground_truth=True
    )
    # shutdown() waits up to one poll; serve_forever's default is 0.5 s.
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture
def gated_server():
    srv = ToolRpcServer(
        ("127.0.0.1", 0), default_scenario_data(), expose_ground_truth=False
    )
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def connect(srv):
    return RpcClient("127.0.0.1", srv.port)


class RawConnection:
    """Send raw frames, bypassing the client's well-formedness."""

    def __init__(self, srv):
        self._socket = socket.create_connection(("127.0.0.1", srv.port), timeout=10)
        self._reader = self._socket.makefile("r", encoding="utf-8")

    def send(self, text):
        self.send_bytes(text.encode("utf-8"))

    def send_bytes(self, frame):
        self._socket.sendall(frame + b"\n")

    def recv(self):
        return json.loads(self._reader.readline())

    def close(self):
        self._reader.close()
        self._socket.close()


class TestSessionLifecycle:
    def test_create_returns_id_and_tool_list(self, server):
        with connect(server) as client:
            created = client.create_session(model_id="tester")
            assert created["session_id"].startswith("sess-")
            assert created["tools"] == sorted(TOOL_SCHEMAS)

    def test_duplicate_create_rejected(self, server):
        with connect(server) as client:
            client.create_session()
            with pytest.raises(RpcError) as excinfo:
                client.create_session()
            assert excinfo.value.code == -32000

    def test_tool_call_requires_session(self, server):
        with connect(server) as client:
            with pytest.raises(RpcError) as excinfo:
                client.tool("look_around")
            assert excinfo.value.code == -32000
            assert "session.create" in excinfo.value.message

    def test_close_then_recreate(self, server):
        with connect(server) as client:
            first = client.create_session()["session_id"]
            assert client.close_session() == {"closed": first}
            second = client.create_session()["session_id"]
            assert second != first

    def test_sessions_get_distinct_ids(self, server):
        with connect(server) as a, connect(server) as b:
            id_a = a.create_session()["session_id"]
            id_b = b.create_session()["session_id"]
            assert id_a != id_b

    def test_recreated_session_starts_from_the_scenario(self, server):
        fresh = canonical_json(snapshot(load_scenario(default_scenario_data())))
        with connect(server) as client:
            client.create_session()
            client.tool("move_to", location="kitchen_table")
            assert client.tool("grab", object="mug")["status"] == "success"
            client.close_session()
            client.create_session()
            assert canonical_json(client.snapshot()) == fresh

    def test_scenario_validated_once_per_server(self, scenario_validations):
        srv = ToolRpcServer(("127.0.0.1", 0), default_scenario_data())
        thread = threading.Thread(
            target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        try:
            for _ in range(3):
                with connect(srv) as client:
                    client.create_session()
                    client.tool("look_around")
                    client.close_session()
                    client.create_session()
        finally:
            srv.shutdown()
            srv.server_close()
        assert scenario_validations.calls == 1

    def test_connection_answers_tool_calls_across_sessions(self):
        connection = RpcConnection(load_scenario(default_scenario_data()).to_dict(), False)
        frames = [{"method": "session.create"}, {"method": "tool.look_around"},
                  {"method": "session.close"}, {"method": "session.create"},
                  {"method": "tool.view_scratchpad"}, {"method": "tool.nope"}]
        replies = [
            json.loads(connection.handle_line(
                json.dumps({"jsonrpc": "2.0", "id": number, **frame})))
            for number, frame in enumerate(frames)
        ]
        world = load_scenario(default_scenario_data())
        handles = MemoryHandles(Scratchpad(), EpisodicStore())
        look = dispatch(ToolCall("look_around"), world, handles).to_dict()
        assert replies[1]["result"] == look
        assert replies[4]["result"] == {
            "status": "success", "message": "The scratchpad is empty.",
            "machine_payload": {"entries": 0},
        }
        assert "result" not in replies[5]


class TestTaskOverWire:
    def test_t1_completes_and_snapshot_verifies(self, server):
        with connect(server) as client:
            client.create_session()
            for name, arguments in T1_WIRE_SEQUENCE:
                result = client.tool(name, **arguments)
                assert result["status"] == "success", result["message"]
            end = client.tool(
                "end_task",
                task_description="put the mug, box, and cube on the shelf",
                status="succeeded",
                action_summary="moved all three items",
            )
            assert end["machine_payload"]["terminates"] is True
            assert check_t1(client.snapshot())

    def test_tool_failure_is_an_rpc_success(self, server):
        with connect(server) as client:
            client.create_session()
            result = client.tool("grab", object="unicorn")
            assert result["status"] == "failure"
            assert result["machine_payload"]["cause"] == "does-not-exist"

    def test_sessions_are_isolated(self, server):
        with connect(server) as a, connect(server) as b:
            a.create_session()
            b.create_session()
            a.tool("move_to", location="kitchen_table")
            assert a.tool("grab", object="mug")["status"] == "success"

            b.tool("move_to", location="kitchen_table")
            look = b.tool("look_around")
            assert "mug on kitchen_table layer 1" in look["message"]
            assert b.tool("grab", object="mug")["status"] == "success"


class TestGroundTruthGating:
    def test_snapshot_refused_without_flag(self, gated_server):
        with connect(gated_server) as client:
            client.create_session()
            with pytest.raises(RpcError) as excinfo:
                client.snapshot()
            assert excinfo.value.code == -32000
            assert "--expose-ground-truth" in excinfo.value.message

    def test_tools_still_work_without_flag(self, gated_server):
        with connect(gated_server) as client:
            client.create_session()
            assert client.tool("look_around")["status"] == "success"


class TestProtocolErrors:
    def test_parse_error(self, server):
        raw = RawConnection(server)
        try:
            raw.send("{this is not json")
            response = raw.recv()
            assert response["error"]["code"] == -32700
            assert response["id"] is None
        finally:
            raw.close()

    def test_non_utf8_frame_is_a_parse_error_and_the_connection_goes_on(self, server):
        raw = RawConnection(server)
        try:
            raw.send_bytes(b"\xff\xfe{}")
            response = raw.recv()
            assert response["error"]["code"] == -32700
            assert response["id"] is None
            raw.send(json.dumps({"jsonrpc": "2.0", "id": 1, "method": "session.create"}))
            assert raw.recv()["result"]["session_id"].startswith("sess-")
        finally:
            raw.close()

    def test_over_long_frame_is_refused_and_ends_the_connection(self, server, monkeypatch):
        monkeypatch.setattr("hearth.rpc.server.MAX_FRAME_BYTES", 64)
        create = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "session.create"})
        assert len(create) + 1 <= 64
        raw = RawConnection(server)
        try:
            raw.send(create)
            assert raw.recv()["result"]["session_id"].startswith("sess-")
            raw.send("x" * 64)
            assert raw.recv() == {
                "jsonrpc": "2.0",
                "id": None,
                "error": {"code": -32600, "message": "frame exceeds 64 bytes"},
            }
            assert raw._reader.readline() == ""  # the server closed it
        finally:
            raw.close()
        second = RawConnection(server)
        try:
            second.send(create)
            assert second.recv()["result"]["session_id"].startswith("sess-")
        finally:
            second.close()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_is_a_parse_error(self, constant):
        """A constant Python's json reads but JSON lacks is refused, so a
        reply never echoes it as an id."""
        connection = RpcConnection(load_scenario(default_scenario_data()).to_dict(), False)
        frame = f'{{"jsonrpc": "2.0", "id": {constant}, "method": "session.create"}}'
        assert json.loads(connection.handle_line(frame)) == {
            "jsonrpc": "2.0",
            "id": None,
            "error": {
                "code": -32700, "message": f"parse error: {constant} is not a JSON value"
            },
        }

    def test_invalid_request_shapes(self, server):
        raw = RawConnection(server)
        try:
            raw.send(json.dumps([1, 2, 3]))
            assert raw.recv()["error"]["code"] == -32600

            raw.send(json.dumps({"jsonrpc": "1.0", "id": 1, "method": "x"}))
            assert raw.recv()["error"]["code"] == -32600

            raw.send(json.dumps({"jsonrpc": "2.0", "id": 2, "method": 7}))
            assert raw.recv()["error"]["code"] == -32600
        finally:
            raw.close()

    def test_method_not_found(self, server):
        with connect(server) as client:
            with pytest.raises(RpcError) as excinfo:
                client.request("world.domination")
            assert excinfo.value.code == -32601

    def test_unknown_tool_method(self, server):
        with connect(server) as client:
            client.create_session()
            with pytest.raises(RpcError) as excinfo:
                client.request("tool.levitate")
            assert excinfo.value.code == -32601

    def test_invalid_params_type(self, server):
        raw = RawConnection(server)
        try:
            raw.send(
                json.dumps(
                    {
                        "jsonrpc": "2.0",
                        "id": 5,
                        "method": "session.create",
                        "params": [1, 2],
                    }
                )
            )
            assert raw.recv()["error"]["code"] == -32602
        finally:
            raw.close()

    def test_notification_gets_no_response(self, server):
        raw = RawConnection(server)
        try:
            raw.send(json.dumps({"jsonrpc": "2.0", "method": "session.create"}))
            raw.send(
                json.dumps({"jsonrpc": "2.0", "id": 42, "method": "session.snapshot"})
            )
            response = raw.recv()
            assert response["id"] == 42
        finally:
            raw.close()

    @pytest.mark.parametrize(
        "notification",
        [
            {"jsonrpc": "2.0", "method": "nope"},
            {"jsonrpc": "2.0", "method": "tool.move_to",
             "params": {"location": "kitchen_table"}},
            {"jsonrpc": "2.0", "method": "session.create", "params": [1, 2]},
        ],
        ids=["unknown-method", "no-session", "bad-params"],
    )
    def test_failed_notification_gets_no_response(self, notification):
        """A client that pipelines requests reads only its request's reply."""
        frames = [notification, {"jsonrpc": "2.0", "id": 7, "method": "session.create"}]
        stdin = io.StringIO("".join(json.dumps(frame) + "\n" for frame in frames))
        stdout = io.StringIO()
        serve_stdio(default_scenario_data(), stdin=stdin, stdout=stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert len(replies) == 1
        assert replies[0]["id"] == 7
        assert replies[0]["result"]["session_id"].startswith("sess-")

    @pytest.mark.parametrize(
        "frame", [{"jsonrpc": "2.0"}, {"method": "session.create"}, {"id": 3}],
        ids=["no-method", "no-jsonrpc", "id-only"],
    )
    def test_invalid_request_without_id_is_answered(self, frame):
        connection = RpcConnection(load_scenario(default_scenario_data()).to_dict(), False)
        reply = json.loads(connection.handle_line(json.dumps(frame)))
        assert reply["error"]["code"] == -32600
        assert reply["id"] == frame.get("id")

    # An infinity (as 1e999 reads) is no JSON number, and no reply could echo it.
    @pytest.mark.parametrize(
        "request_id", ["[1, 2]", "{}", "true", "1e999", "-1e999"],
        ids=["array", "object", "bool", "infinite", "negative-infinite"],
    )
    def test_id_of_another_type_is_refused(self, request_id):
        connection = RpcConnection(load_scenario(default_scenario_data()).to_dict(), False)
        frame = f'{{"jsonrpc": "2.0", "id": {request_id}, "method": "session.create"}}'
        # The reply is JSON, so the server's own reader takes it.
        assert loads(connection.handle_line(frame)) == {
            "jsonrpc": "2.0",
            "id": None,
            "error": {"code": -32600, "message": "id must be a string, a number or null"},
        }
        # No session was opened: the next create succeeds.
        frame = frame.replace(request_id, "1")
        assert "session_id" in loads(connection.handle_line(frame))["result"]

    @pytest.mark.parametrize("request_id", [1.5, "a", 0, None])
    def test_string_number_and_null_ids_are_echoed(self, request_id):
        connection = RpcConnection(load_scenario(default_scenario_data()).to_dict(), False)
        frame = {"jsonrpc": "2.0", "id": request_id, "method": "session.create"}
        reply = json.loads(connection.handle_line(json.dumps(frame)))
        assert reply["id"] == request_id
        assert reply["result"]["session_id"].startswith("sess-")


# Request frames and the replies an earlier hearth's `serve --stdio
# --expose-ground-truth` gave them: errors before and outside a session, a
# notification, optimal t1 then t2 from `hearth.agent.scripts`, snapshots,
# tool failures (`unknown-location`, `invalid-arguments`, `occupied`),
# floats, non-ASCII text and a string and a float id. Every reply must
# stay byte for byte what it was.
FRAMES = os.path.join(os.path.dirname(__file__), "data", "rpc")


def frozen_frames():
    with open(os.path.join(FRAMES, "requests.jsonl"), "rb") as requests:
        with open(os.path.join(FRAMES, "replies.jsonl"), "rb") as replies:
            return requests.read(), replies.read()


class TestFrozenFrames:
    @pytest.fixture(autouse=True)
    def first_session(self, monkeypatch):
        """The recording's session was its server's first."""
        monkeypatch.setattr("hearth.rpc.server._session_numbers", itertools.count(1))

    def test_stdio_replies_are_byte_identical(self):
        requests, replies = frozen_frames()
        stdout = io.StringIO()
        serve_stdio(
            default_scenario_data(),
            expose_ground_truth=True,
            stdin=io.StringIO(requests.decode("utf-8")),
            stdout=stdout,
        )
        assert stdout.getvalue().encode("utf-8") == replies

    def test_tcp_replies_are_byte_identical(self, server):
        requests, replies = frozen_frames()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(requests)
            sock.shutdown(socket.SHUT_WR)  # the server answers all, then closes
            received = b"".join(iter(lambda: sock.recv(1 << 16), b""))
        assert received == replies


class TestMalformedReplies:
    """A reply the client cannot read as a response raises RpcError
    -32603, naming what was wrong, and nothing else."""

    @pytest.mark.parametrize("reply, message", [
        (b"[1,2]", "reply must be an object: [1, 2]"),
        (b'{"jsonrpc": "2.0", "id": 1, "error": 5}', "reply error must be an object: 5"),
        (b'{"jsonrpc": "2.0", "id": 1, "error": {"code": "x"}}',
         "reply error code must be an integer: 'x'"),
        (b'{"jsonrpc": "2.0", "id": 1, "error": {"code": true}}',
         "reply error code must be an integer: True"),
        (b"not json", "reply is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (b'{"jsonrpc": "2.0", "id": 1, "result": "\xff"}',
         "reply is not JSON: 'utf-8' codec can't decode byte 0xff in position 39: "
         "invalid start byte"),
    ], ids=["not-an-object", "error-not-an-object", "code-a-string", "code-a-bool",
            "not-json", "not-utf-8"])
    def test_is_an_internal_error(self, reply, message):
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer():
                connection, _ = listener.accept()
                with connection, connection.makefile("rb") as reader:
                    reader.readline()
                    connection.sendall(reply + b"\n")

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            with RpcClient("127.0.0.1", listener.getsockname()[1]) as client:
                with pytest.raises(RpcError) as info:
                    client.request("session.create")
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert (info.value.code, info.value.message) == (-32603, message)


class TestStdioMode:
    def test_scenario_validated_once_per_stream(self, scenario_validations):
        frames = ["session.create", "tool.look_around", "session.close", "session.create"]
        stdin = io.StringIO("".join(
            json.dumps({"jsonrpc": "2.0", "id": n, "method": m}) + "\n"
            for n, m in enumerate(frames)
        ))
        stdout = io.StringIO()
        serve_stdio(default_scenario_data(), stdin=stdin, stdout=stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert all("result" in response for response in responses)
        assert len(responses) == 4
        assert scenario_validations.calls == 1

    def test_full_exchange_over_streams(self):
        frames = [
            {"jsonrpc": "2.0", "id": 1, "method": "session.create", "params": {}},
            {
                "jsonrpc": "2.0",
                "id": 2,
                "method": "tool.look_around",
                "params": {},
            },
            {"jsonrpc": "2.0", "id": 3, "method": "session.snapshot", "params": {}},
        ]
        stdin = io.StringIO("\n".join(json.dumps(f) for f in frames) + "\n")
        stdout = io.StringIO()
        serve_stdio(
            default_scenario_data(),
            expose_ground_truth=True,
            stdin=stdin,
            stdout=stdout,
        )
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert responses[1]["result"]["status"] == "success"
        assert responses[2]["result"]["agent"]["location"] == "hallway"


def random_arguments(rng, name):
    locations = [
        "hallway", "kitchen_center", "kitchen_shelf", "kitchen_table",
        "living_room_center", "living_room_table", "attic",
    ]
    objects = ["mug", "box", "cube", "tv", "ghost"]
    slots = [
        "shelf_layer_1", "shelf_layer_2", "shelf_layer_3",
        "kitchen_table_layer_1", "kitchen_table_layer_2",
        "living_room_table_layer_1", "living_room_table_layer_2",
        "bathtub_layer_1",
    ]
    words = ["mug", "cube", "shelf", "note", "plan", "kitchen"]
    if name == "move_to":
        return {"location": rng.choice(locations)}
    if name == "grab":
        return {"object": rng.choice(objects)}
    if name == "place":
        return {"slot": rng.choice(slots)}
    if name == "add_to_scratchpad":
        return {"text": " ".join(rng.choices(words, k=rng.randint(0, 3)))}
    if name == "search_memory":
        return {"query": " ".join(rng.choices(words, k=rng.randint(1, 3)))}
    if name == "end_task":
        return {
            "task_description": " ".join(rng.choices(words, k=2)),
            "status": rng.choice(["succeeded", "failed", "unsure"]),
            "action_summary": " ".join(rng.choices(words, k=3)),
        }
    return {}


class TestWireParity:
    def test_500_randomized_calls_match_in_process_dispatch(self, server):
        rng = random.Random(20260814)
        mirror_world = load_scenario(default_scenario_data())
        mirror_handles = MemoryHandles(
            scratchpad=Scratchpad(), store=EpisodicStore(), model_id="rpc-client"
        )
        tool_names = sorted(TOOL_SCHEMAS)
        with connect(server) as client:
            client.create_session()
            for index in range(500):
                name = rng.choice(tool_names)
                arguments = random_arguments(rng, name)
                wire = client.tool(name, **arguments)
                local = dispatch(
                    ToolCall(name, dict(arguments)),
                    mirror_world,
                    mirror_handles,
                )
                assert canonical_json(wire) == canonical_json(local.to_dict()), (
                    f"call {index}: {name} {arguments}"
                )
