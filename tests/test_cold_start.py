"""Cold start: a command imports `requests` only to send HTTP,
`importlib.resources` only to read the bundled scenario, `socketserver`
only to serve, and `concurrent.futures` only to run trials in parallel.
It never imports `jsonschema`, which only the tests use, not even to
word the error in a refused scenario. Each check runs in a fresh
interpreter, since the test process has imported them all already."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import hearth
from hearth.cli import main
from hearth.world.scenario import default_scenario_data

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hearth.__file__)))
HEAVY = ("requests", "jsonschema")
RUN_MAIN = "from hearth.cli import main\ncode = main(sys.argv[1:])"


def fresh(
    body: str, *argv: str, block: bool = False, watch: tuple[str, ...] = HEAVY
) -> tuple[int, str, str, list[str]]:
    """Run `body`, which sets `code`, in a fresh interpreter with `argv`;
    returns `code`, stdout, stderr, and which of `watch` were loaded at
    the end. With `block`, importing either of HEAVY raises ImportError.
    Without site (`-S`) when `watch` is not HEAVY: a `.pth` file that site
    runs may import `importlib.resources` before hearth does."""
    site = watch == HEAVY
    script = "\n".join([
        "import json, sys",
        "" if site else f"sys.path.insert(0, {SRC!r})",
        "sys.modules['requests'] = sys.modules['jsonschema'] = None" if block else "",
        body,
        f"print(json.dumps([m for m in {watch!r} if sys.modules.get(m)]), file=sys.stderr)",
        "sys.exit(code)",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *([] if site else ["-S"]), "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    *err, loaded = result.stderr.splitlines(keepends=True)
    return result.returncode, result.stdout, "".join(err), json.loads(loaded)


@pytest.fixture(scope="module")
def t1_transcript(tmp_path_factory):
    out = tmp_path_factory.mktemp("t1")
    assert main(["run", "--task", "t1", "--backend", "scripted:optimal",
                 "--output-dir", str(out)]) == 0
    return str(out / "run_t1.jsonl")


def test_importing_the_cli_loads_neither():
    assert fresh("import hearth.cli\ncode = 0") == (0, "", "", [])


def test_importing_the_cli_loads_no_server_and_no_pool():
    watch = ("socketserver", "concurrent.futures")
    assert fresh("import hearth.cli\ncode = 0", watch=watch) == (0, "", "", [])


def test_replay_loads_neither(t1_transcript):
    code, out, err, loaded = fresh(RUN_MAIN, "replay", t1_transcript)
    assert (code, err, loaded) == (0, "", [])
    assert out.startswith("replay ok: ")


def test_replay_runs_with_both_unimportable(t1_transcript):
    free = fresh(RUN_MAIN, "replay", t1_transcript)
    blocked = fresh(RUN_MAIN, "replay", t1_transcript, block=True)
    assert blocked == free
    assert blocked[0] == 0


def test_memory_list_loads_neither(tmp_path):
    store = tmp_path / "store.jsonl"
    store.write_text("")
    assert fresh(RUN_MAIN, "memory", "list", "--store", str(store)) == (
        0, "0 records\n", "", []
    )


def test_replay_and_memory_skip_importlib_resources(t1_transcript, tmp_path):
    """Neither command reads the bundled scenario, so neither imports
    it; reading the scenario shows that the check would see it."""
    store = tmp_path / "store.jsonl"
    store.write_text("")
    watch = ("importlib.resources",)
    code, out, err, loaded = fresh(RUN_MAIN, "replay", t1_transcript, watch=watch)
    assert (code, err, loaded) == (0, "", [])
    assert fresh(RUN_MAIN, "memory", "list", "--store", str(store), watch=watch) == (
        0, "0 records\n", "", []
    )
    assert fresh(RUN_MAIN, "memory", "search", "--query", "mug", "--store", str(store),
                 watch=watch) == (0, "no relevant memories\n", "", [])
    body = (
        "from hearth.world.scenario import default_scenario_data\n"
        "default_scenario_data()\n"
        "code = 0"
    )
    assert fresh(body, watch=watch) == (0, "", "", ["importlib.resources"])


def test_scripted_run_loads_neither():
    argv = ("run", "--task", "t1", "--backend", "scripted:optimal")
    code, out, err, loaded = fresh(RUN_MAIN, *argv)
    assert (code, err, loaded) == (0, "", [])
    assert "actual: succeeded\n" in out
    assert fresh(RUN_MAIN, *argv, block=True) == (code, out, err, loaded)


def test_http_backend_loads_requests_when_built():
    body = (
        "from hearth.agent.http_backend import HttpBackendConfig, HttpChatBackend\n"
        "print('requests' in sys.modules)\n"
        "HttpChatBackend(HttpBackendConfig('http://127.0.0.1:9/v1', 'm'))\n"
        "code = 0"
    )
    assert fresh(body) == (0, "False\n", "", ["requests"])


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda d: d["nodes"][0].update(x="0"),
         "schema violation at $.nodes[0].x: '0' is not of type 'number'"),
        (lambda d: d.pop("agent"),
         "schema violation at $: 'agent' is a required property"),
        (lambda d: d["furniture"][0].update(slot_count=0),
         "schema violation at $.furniture[0].slot_count: 0 is less than the minimum of 1"),
    ],
    ids=["wrong-type", "missing", "below-minimum"],
)
def test_first_validation_in_a_fresh_process_keeps_its_text(tmp_path, edit, expected):
    data = default_scenario_data()
    edit(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = ("run", "--task", "t1", "--backend", "scripted:optimal", "--scenario", str(path))
    refused = (2, "", f"error: {expected}\n", [])
    assert fresh(RUN_MAIN, *argv) == refused
    assert fresh(RUN_MAIN, *argv, block=True) == refused
