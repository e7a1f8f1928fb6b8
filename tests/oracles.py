"""Independent reference implementations used to cross-check the package.

The Dijkstra oracle uses a dict scan instead of a heap, and the cosine
oracle recomputes similarity from scratch and ranks by repeated max
extraction instead of a sort; neither imports more than data types. The
schema oracle asks `jsonschema.validate` itself: hearth's own check
walks the schema in-tree, and jsonschema is a test dependency only,
kept to word what that walk must word; it is imported where it is
used, so that the other oracles run where it cannot be imported. The
trial oracle loads the scenario afresh for every trial and builds each
transcript by hand, as the package once did, picking the header's
memories out of the run's search results itself. The dense memory path is the store as it
was before it kept vectors sparse: a dense embedding, whose token
buckets come from `hashlib`'s blake2b rather than the package's, and a
cosine that sums all 256 buckets and recomputes both norms for every
record. Its records' embeddings come from `dense_embed` of their
descriptions, never from the store under test. The decoder-first
`loads` is `hearth.jsonio.loads` as it was before it read through the
json scanner first: a byte-order-mark check, then the whole decoder,
which refuses what is not JSON. The `json.loads` store
load is the store's loader as it was before it decoded lines with the
json scanner and checked a line's fields at once, but decoding each
line whole with the decoder-first `loads`; it embeds with
`dense_embed`. The
prefix-checking replay is replay as it was before it compared once:
before every turn its backend checks that the live context is a prefix
of the recording, and only a run that got to its end is compared with
the recording as a whole; it compares messages by their semantic key,
which leaves out a tool result's name and machine payload. The
hand-built scenario loader is `load_scenario` as it was before it went
through `WorldState.from_dict`: it builds the map, furniture, objects
and agent piece by piece, checking each as it goes, then validates the
whole state. The line-format
oracle is the hand-written serializers each record once had: one dict
per transcript line, tool call, tool result and metrics group, with
every field named; the trials line oracle writes each trial record through
`dataclasses.asdict`. The hand-checked readers are how plans and
transcript lines were read before the generic reader: one `isinstance`
check per field, in the order the fields were checked. The tool-contract
model restates, over a world's plain `to_dict` data, which tool call
succeeds and which cause a failure names, with a breadth-first walk in
place of A*. The whole-CLI parser is `build_parser` as it was before a
command built only its own subparser: the top-level parser and all five
subcommands, on every call. The shipped script calls are the tool calls
each scripted agent yielded when it spelled out every call by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from dataclasses import MISSING, asdict
from functools import reduce
from operator import add, mul

from hearth import cli
from hearth.agent.backends import BackendError, BackendReply
from hearth.agent.context import PROMPT_VERSION
from hearth.agent.loop import DEFAULT_MAX_TOOL_CALLS, TERMINATION_STEP_LIMIT, run_task
from hearth.agent.transcript import (
    Transcript,
    TranscriptFinal,
    TranscriptHeader,
    TranscriptMessage,
)
from hearth.harness.runner import (
    VALID_MEMORY_SIZES,
    BackendSetup,
    ExperimentPlan,
    execute_task,
    seed_store,
)
from hearth.harness.tasks import TASKS
from hearth.memory.embedding import EMBEDDING_DIM, SparseVector, tokenize
from hearth.memory.episodic import (
    BELIEVED_STATUSES,
    SIMILARITY_FLOOR,
    EpisodicRecord,
    EpisodicStore,
    PersistenceError,
)
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import MemoryHandles, ToolCall
from hearth.world.scenario import (
    SCENARIO_SCHEMA,
    ScenarioError,
    default_scenario_data,
    load_scenario,
    scenario_hash,
)
from hearth.world.semantic_map import SemanticMap
from hearth.world.state import (
    DEFAULT_REACH_RADIUS,
    AgentBody,
    Furniture,
    SimObject,
    WorldState,
    canonical_json,
    snapshot,
    validate_state,
)


def dijkstra_cost(smap: SemanticMap, start: str, goal: str) -> float | None:
    """Cheapest-path cost by textbook dict-scan Dijkstra, or None."""
    unvisited = set(smap.positions)
    dist = {node: math.inf for node in unvisited}
    dist[start] = 0.0
    while unvisited:
        current = min(unvisited, key=lambda node: dist[node])
        if dist[current] == math.inf:
            break
        unvisited.remove(current)
        if current == goal:
            return dist[current]
        for neighbor, cost in smap.adjacency[current].items():
            if neighbor in unvisited and dist[current] + cost < dist[neighbor]:
                dist[neighbor] = dist[current] + cost
    return None if dist[goal] == math.inf else dist[goal]


def path_cost(smap: SemanticMap, path: list[str]) -> float:
    """Total edge cost along a node sequence; raises if an edge is missing."""
    return sum(smap.adjacency[a][b] for a, b in zip(path, path[1:]))


def random_connected_map(rng: random.Random, max_nodes: int = 12) -> SemanticMap:
    """Random connected map with costs >= Euclidean distance."""
    count = rng.randint(2, max_nodes)
    smap = SemanticMap()
    names = [f"n{i:02d}" for i in range(count)]
    for name in names:
        smap.add_node(name, rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), "room")
    for index in range(1, count):
        other = names[rng.randrange(index)]
        _add_random_edge(rng, smap, names[index], other)
    extra = rng.randint(0, count)
    for _ in range(extra):
        a, b = rng.sample(names, 2)
        if b not in smap.adjacency[a]:
            _add_random_edge(rng, smap, a, b)
    return smap


def _add_random_edge(rng: random.Random, smap: SemanticMap, a: str, b: str) -> None:
    base = smap.euclidean(a, b)
    cost = max(base * rng.uniform(1.0, 1.5), 1e-6)
    smap.add_edge(a, b, cost)


def two_component_map(rng: random.Random) -> tuple[SemanticMap, str, str]:
    """A map with two islands; returns (map, node_in_a, node_in_b)."""
    smap = SemanticMap()
    for i in range(3):
        smap.add_node(f"a{i}", float(i), 0.0, "west")
    for i in range(3):
        smap.add_node(f"b{i}", float(i), 50.0, "east")
    for i in range(2):
        _add_random_edge(rng, smap, f"a{i}", f"a{i + 1}")
        _add_random_edge(rng, smap, f"b{i}", f"b{i + 1}")
    return smap, "a0", "b2"


def brute_force_search(
    records: list[EpisodicRecord],
    query_vector: list[float],
    k: int,
) -> list[tuple[str, float]]:
    """(record id, similarity) of the records at SIMILARITY_FLOOR or above,
    by exhaustive scan and max extraction."""
    scored = []
    for record in records:
        embedding = dense_embed(record.task_description)
        dot = math.fsum(q * v for q, v in zip(query_vector, embedding))
        nq = math.sqrt(math.fsum(q * q for q in query_vector))
        nv = math.sqrt(math.fsum(v * v for v in embedding))
        similarity = 0.0 if nq == 0.0 or nv == 0.0 else dot / (nq * nv)
        if similarity >= SIMILARITY_FLOOR:
            scored.append((record.id, similarity, record.created_at))
    picked: list[tuple[str, float]] = []
    remaining = list(scored)
    while remaining and len(picked) < k:
        best = remaining[0]
        for candidate in remaining[1:]:
            if (candidate[1], candidate[2]) > (best[1], best[2]):
                best = candidate
        remaining.remove(best)
        picked.append((best[0], best[1]))
    return picked


def token_bucket(token: str, dimension: int = EMBEDDING_DIM) -> int:
    """A token's bucket: its 8-byte blake2b digest, big-endian, taken
    from `hashlib` rather than from the package."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


def dense_embed(text: str, dimension: int = EMBEDDING_DIM) -> list[float]:
    """The hashed bag-of-words embedding, built as a dense list; its
    sums, like the store's, add left to right."""
    counts = [0.0] * dimension
    for token in tokenize(text):
        counts[token_bucket(token, dimension)] += 1.0
    norm = math.sqrt(reduce(add, map(mul, counts, counts), 0.0))
    if norm == 0.0:
        basis = [0.0] * dimension
        basis[0] = 1.0
        return basis
    return [v / norm for v in counts]


def cosine(a: list[float], b: list[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    dot = reduce(add, map(mul, a, b), 0.0)
    na = math.sqrt(reduce(add, map(mul, a, a), 0.0))
    nb = math.sqrt(reduce(add, map(mul, b, b), 0.0))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def dense_search(
    records: list[EpisodicRecord], query: str, k: int
) -> list[tuple[str, float]]:
    """(record id, similarity) as the dense store computed them, at
    SIMILARITY_FLOOR or above; compare with `==`, since the sparse store
    must give the same floats."""
    query_vec = dense_embed(query)
    scored = [
        (record, cosine(query_vec, dense_embed(record.task_description)))
        for record in records
    ]
    scored = [(record, sim) for record, sim in scored if sim >= SIMILARITY_FLOOR]
    scored.sort(key=lambda pair: (-pair[1], -pair[0].created_at))
    return [(record.id, sim) for record, sim in scored[:k]]


def dense_record_line(record: EpisodicRecord) -> str:
    """The JSONL line the dense store wrote for a record it had added:
    the store's first format, which kept the embedding."""
    data = {
        "id": record.id,
        "task_description": record.task_description,
        "believed_status": record.believed_status,
        "action_summary": record.action_summary,
        "embedding": dense_embed(record.task_description),
        "created_at": record.created_at,
        "model_id": record.model_id,
    }
    return json.dumps(data, sort_keys=True) + "\n"


def sparse_dense_embed(text: str) -> SparseVector:
    """`dense_embed` as a SparseVector: its non-zero buckets in ascending
    order, and its norm summed over all buckets in order."""
    dense = dense_embed(text)
    buckets = tuple(i for i, value in enumerate(dense) if value)
    return SparseVector(
        buckets,
        tuple(dense[i] for i in buckets),
        math.sqrt(reduce(add, map(mul, dense, dense), 0.0)),
    )


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def decoder_first_loads(text: str):
    """The JSON value that is all of `text`, or `hearth.jsonio.loads`'s
    error for it, from the whole decoder."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("nesting too deep") from None


def _is_torn(line: str) -> bool:
    if line.endswith(("\n", "\r")) or not line.strip():
        return False
    try:
        decoder_first_loads(line)
    except json.JSONDecodeError:
        return True
    except ValueError:
        return False
    return False


def _parse_line(data, ids: set) -> EpisodicRecord:
    for name in ("id", "task_description", "action_summary", "model_id"):
        if not isinstance(data[name], str):
            kind = type(data[name]).__name__
            raise ValueError(f"{name} must be a string, not {kind}")
    created_at = data["created_at"]
    if type(created_at) is not int:
        raise ValueError(f"created_at must be an integer: {created_at!r}")
    if data["believed_status"] not in BELIEVED_STATUSES:
        raise ValueError(f"bad believed_status '{data['believed_status']}'")
    if data["id"] in ids:
        raise ValueError(f"duplicate id '{data['id']}'")
    return EpisodicRecord(
        id=data["id"],
        task_description=data["task_description"],
        believed_status=data["believed_status"],
        action_summary=data["action_summary"],
        vector=sparse_dense_embed(data["task_description"]),
        created_at=created_at,
        model_id=data["model_id"],
    )


def json_loads_store_load(path: str) -> tuple[list[EpisodicRecord], int, bool]:
    """(records, next sequence number, unended) of a store file, read as
    the store read it before it decoded lines with the json scanner:
    `loads` on each stripped line, every check one after the other
    as each field is read, and the next sequence number kept up per
    record. Drops and cuts a torn last line with the store's warning;
    raises PersistenceError with the store's texts."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise PersistenceError(f"cannot read store '{path}': {exc}") from exc
    if lines and _is_torn(lines[-1]):
        tail = lines.pop()
        print(f"warning: dropped torn last line at {path}:{len(lines) + 1}", file=sys.stderr)
        try:
            os.truncate(path, os.path.getsize(path) - len(tail.encode("utf-8")))
        except OSError as exc:
            raise PersistenceError(f"cannot truncate store '{path}': {exc}") from exc
    unended = bool(lines) and not lines[-1].endswith(("\n", "\r"))
    records: list[EpisodicRecord] = []
    ids: set = set()
    next_seq = 1
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = _parse_line(decoder_first_loads(line), ids)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"corrupt record at {path}:{number}: {exc}") from exc
        records.append(record)
        ids.add(record.id)
        next_seq = max(next_seq, record.created_at + 1)
    return records, next_seq, unended


def hand_built_load_scenario(data) -> WorldState:
    """The world `load_scenario` builds from a scenario document, built
    piece by piece with each check written out in the loader."""
    import jsonschema

    try:
        jsonschema.validate(data, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ScenarioError(exc.message) from exc

    smap = SemanticMap()
    for node in data["nodes"]:
        try:
            smap.add_node(node["id"], node["x"], node["y"], node["room"])
        except ValueError as exc:
            raise ScenarioError(f"node '{node['id']}': {exc}") from exc
    for edge in data["edges"]:
        try:
            smap.add_edge(edge["a"], edge["b"], edge.get("cost"))
        except KeyError as exc:
            raise ScenarioError(
                f"edge '{edge['a']}'-'{edge['b']}': unknown node {exc.args[0]!r}"
            ) from exc
        except ValueError as exc:
            raise ScenarioError(f"edge '{edge['a']}'-'{edge['b']}': {exc}") from exc
    if not smap.is_connected():
        raise ScenarioError("disconnected map: every node must be reachable")

    furniture: dict[str, Furniture] = {}
    for spec in data["furniture"]:
        fid = spec["id"]
        if fid in furniture:
            raise ScenarioError(f"duplicate furniture id '{fid}'")
        if spec["location"] not in smap.positions:
            raise ScenarioError(
                f"furniture '{fid}': unknown location '{spec['location']}'"
            )
        furniture[fid] = Furniture(
            id=fid, location=spec["location"], slots=[None] * spec["slot_count"]
        )

    slot_names: dict[str, tuple[str, int]] = {}
    for item in furniture.values():
        for index in range(len(item.slots)):
            slot_names[item.slot_name(index)] = (item.id, index)

    objects: dict[str, SimObject] = {}
    for spec in data["objects"]:
        oid = spec["id"]
        if oid in objects:
            raise ScenarioError(f"duplicate object id '{oid}'")
        if oid in furniture:
            raise ScenarioError(f"object id '{oid}' collides with a furniture id")
        placement = spec["placement"]
        if "slot" in placement:
            name = placement["slot"]
            if name not in slot_names:
                raise ScenarioError(
                    f"object '{oid}': dangling slot reference '{name}'"
                )
            fid, index = slot_names[name]
            if furniture[fid].slots[index] is not None:
                raise ScenarioError(
                    f"object '{oid}': slot '{name}' already holds "
                    f"'{furniture[fid].slots[index]}'"
                )
            furniture[fid].slots[index] = oid
            containment = {"kind": "slot", "furniture": fid, "slot": index}
        else:
            loc = placement["location"]
            if loc not in smap.positions:
                raise ScenarioError(f"object '{oid}': unknown location '{loc}'")
            containment = {"kind": "loose", "location": loc}
        objects[oid] = SimObject(
            id=oid,
            kind=spec["kind"],
            graspable=spec["graspable"],
            containment=containment,
        )

    agent_spec = data["agent"]
    if agent_spec["location"] not in smap.positions:
        raise ScenarioError(
            f"agent: unknown location '{agent_spec['location']}'"
        )
    agent = AgentBody(
        location=agent_spec["location"],
        held=None,
        reach_radius=agent_spec.get("reach_radius", DEFAULT_REACH_RADIUS),
    )

    state = WorldState(map=smap, furniture=furniture, objects=objects, agent=agent)
    validate_state(state)
    return state


def validate_error(data) -> tuple[str, str] | None:
    """(keyword, ScenarioError text) for the error `jsonschema.validate`
    raises on `data`, or None when the document passes the schema."""
    import jsonschema

    try:
        jsonschema.validate(data, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "$" + "".join(
            f"[{step}]" if isinstance(step, int) else f".{step}"
            for step in exc.absolute_path
        )
        return exc.validator, f"schema violation at {path}: {exc.message}"
    return None


def per_trial_load_trials(plan: ExperimentPlan) -> None:
    """Write what `run_trials` writes for a plan without memory sizes, but
    validate the scenario and build its world for every trial."""
    data = default_scenario_data()
    if plan.scenario_path is not None:
        with open(plan.scenario_path, encoding="utf-8") as handle:
            data = json.load(handle)
    setup = BackendSetup.from_spec(plan.backend)
    transcript_dir = os.path.join(plan.output_dir, "transcripts")
    os.makedirs(transcript_dir, exist_ok=True)
    lines = []
    for index in range(plan.trials):
        trial_id = f"{plan.name}-{index:03d}"
        world = load_scenario(data)
        digest = scenario_hash(data)
        store = EpisodicStore()
        handles = MemoryHandles(Scratchpad(), store, setup.model_id)
        baseline = None
        achieved: dict[str, bool] = {}
        for task_id in plan.tasks:
            task = TASKS[task_id]
            if task.prerequisite is not None and not achieved.get(task.prerequisite):
                continue
            records = store.records
            ids = {r.id for r in records}
            next_seq = max([0, *(r.created_at for r in records)]) + 1
            while f"mem-{next_seq:06d}" in ids:
                next_seq += 1
            initial_world = world.to_dict()
            size_before = len(store)
            run = run_task(
                world,
                handles,
                setup.make(task_id),
                task.prompt,
                plan.max_tool_calls,
                plan.memory_enabled,
            )
            returned = set()
            for message in run.messages:
                result = message.tool_result or {}
                if result.get("name") == "search_memory":
                    for hit in result["machine_payload"].get("results", []):
                        returned.add(hit["id"])
            memories = [r.to_dict() for r in records if r.id in returned]
            final = snapshot(world)
            ok = task.check(final, baseline)
            header = TranscriptHeader(
                scenario=data,
                scenario_hash=digest,
                prompt_version=PROMPT_VERSION,
                model_id=setup.model_id,
                task_id=task.id,
                task_prompt=task.prompt,
                seed=plan.seed,
                memory_enabled=plan.memory_enabled,
                initial_memories=memories,
                memory_count=size_before,
                memory_next_seq=next_seq,
                initial_world=initial_world,
            )
            ending = TranscriptFinal(
                termination=run.termination,
                believed_status=run.believed_status,
                tool_calls=run.tool_calls,
                snapshot=final,
            )
            path = os.path.join(transcript_dir, f"{trial_id}_{task.id}.jsonl")
            Transcript(header, run.messages, ending).write_jsonl(path)
            record = {
                "trial_id": trial_id,
                "task_id": task_id,
                "model_id": setup.model_id,
                "memory_size_before": size_before,
                "believed": run.believed_status or "failed",
                "actual": "succeeded" if ok else "failed",
                "tool_calls": run.tool_calls,
                "termination": run.termination,
                "transcript_path": path,
                "scenario_hash": digest,
            }
            lines.append(json.dumps(record, sort_keys=True) + "\n")
            achieved[task_id] = ok
            if task_id == "t1" and ok:
                baseline = final
    with open(os.path.join(plan.output_dir, "trials.jsonl"), "w", encoding="utf-8") as handle:
        handle.writelines(lines)


class ReplayDivergence(RuntimeError):
    def __init__(self, index: int, detail: str) -> None:
        super().__init__(f"replay divergence at message index {index}: {detail}")


def semantic_key(message: TranscriptMessage) -> tuple:
    """The fields that must match for two messages to count as equal
    under replay (ids and indexes included; they are deterministic)."""
    calls = None
    if message.tool_calls is not None:
        calls = tuple(
            (c.get("id"), c.get("name"), json.dumps(c.get("arguments"), sort_keys=True))
            for c in message.tool_calls
        )
    result = None
    if message.tool_result is not None:
        result = (
            message.tool_result.get("call_id"),
            message.tool_result.get("status"),
            message.tool_result.get("message"),
        )
    return (message.index, message.role, message.content, calls, result)


def _expect_match(got, want) -> None:
    if semantic_key(got) != semantic_key(want):
        raise ReplayDivergence(
            got.index,
            f"live message {got.to_dict()!r} != recorded {want.to_dict()!r}",
        )


class PrefixCheckingReplayBackend:
    """Re-emits the recording's next assistant turn once the live context
    is an exact prefix of the recording."""

    def __init__(self, transcript: Transcript) -> None:
        self._recorded = transcript.messages
        self._error_index = (
            len(self._recorded) - 1
            if transcript.final.termination == "backend_error"
            else None
        )

    def next_action(self, context, declarations) -> BackendReply:
        live = context.messages
        if len(live) > len(self._recorded):
            raise ReplayDivergence(
                len(self._recorded), "live run is longer than the recording"
            )
        for got, want in zip(live, self._recorded):
            _expect_match(got, want)
        if len(live) == len(self._recorded):
            raise ReplayDivergence(
                len(live), "recording exhausted before the loop terminated"
            )
        upcoming = self._recorded[len(live)]
        if upcoming.role != "assistant":
            raise ReplayDivergence(
                upcoming.index,
                f"expected a recorded assistant turn, found role '{upcoming.role}'",
            )
        if len(live) == self._error_index:
            raise BackendError(
                upcoming.content.removeprefix("[backend error: ").removesuffix("]")
            )
        calls = [
            ToolCall(call["name"], call["arguments"], call["id"])
            for call in upcoming.tool_calls or []
        ]
        return BackendReply(text=upcoming.content or None, calls=calls)


def _whole_run_divergence(live: Transcript, recording: Transcript) -> str | None:
    if len(live.messages) != len(recording.messages):
        return (
            f"live run has {len(live.messages)} messages, "
            f"recording has {len(recording.messages)}"
        )
    for got, want in zip(live.messages, recording.messages):
        if semantic_key(got) != semantic_key(want):
            return f"message index {got.index} differs from the recording"
    if live.final.termination != recording.final.termination:
        return (
            f"termination '{live.final.termination}' != recorded "
            f"'{recording.final.termination}'"
        )
    if live.final.tool_calls != recording.final.tool_calls:
        return (
            f"final tool_calls {live.final.tool_calls} != recorded "
            f"{recording.final.tool_calls}"
        )
    if live.final.believed_status != recording.final.believed_status:
        return (
            f"final believed_status {live.final.believed_status!r} != recorded "
            f"{recording.final.believed_status!r}"
        )
    if canonical_json(live.final.snapshot) != canonical_json(recording.final.snapshot):
        return "final snapshot differs from the recording"
    return None


def prefix_checking_replay(transcript: Transcript) -> str | None:
    """How a replay of `transcript` diverges, or None; the recording's
    prompt version and scenario hash are taken as valid."""
    header, recorded = transcript.header, transcript.final
    handles = MemoryHandles(Scratchpad(), seed_store(header.initial_memories), header.model_id)
    headroom = 0 if recorded.termination == TERMINATION_STEP_LIMIT else 1
    try:
        _, live = execute_task(
            WorldState.from_dict(header.initial_world),
            handles,
            PrefixCheckingReplayBackend(transcript),
            header,
            max(recorded.tool_calls + headroom, 1),
        )
    except ReplayDivergence as exc:
        return str(exc)
    return _whole_run_divergence(live, transcript)


def header_dict(header) -> dict:
    return {
        "type": "header",
        "scenario": header.scenario,
        "scenario_hash": header.scenario_hash,
        "prompt_version": header.prompt_version,
        "model_id": header.model_id,
        "task_id": header.task_id,
        "task_prompt": header.task_prompt,
        "seed": header.seed,
        "memory_enabled": header.memory_enabled,
        "initial_memories": header.initial_memories,
        "memory_count": header.memory_count,
        "memory_next_seq": header.memory_next_seq,
        "initial_world": header.initial_world,
    }


def message_dict(message) -> dict:
    data = {
        "type": "message",
        "index": message.index,
        "role": message.role,
        "content": message.content,
    }
    if message.tool_calls is not None:
        data["tool_calls"] = message.tool_calls
    if message.tool_result is not None:
        data["tool_result"] = message.tool_result
    return data


def final_dict(final) -> dict:
    return {
        "type": "final",
        "termination": final.termination,
        "believed_status": final.believed_status,
        "tool_calls": final.tool_calls,
        "snapshot": final.snapshot,
    }


def call_dict(call) -> dict:
    """A proposed call as an assistant message lists it."""
    return {"id": call.id, "name": call.name, "arguments": call.arguments}


def result_dict(result) -> dict:
    return {
        "status": result.status,
        "message": result.message,
        "machine_payload": result.machine_payload,
    }


def tool_result_entry(call, result) -> dict:
    """The `tool_result` of the tool message that answers `call`."""
    return {"call_id": call.id, "name": call.name, **result_dict(result)}


def group_dict(group) -> dict:
    return {
        "task_id": group.task_id,
        "model_id": group.model_id,
        "trials": group.trials,
        "success_rate": group.success_rate,
        "mean_tool_calls": group.mean_tool_calls,
        "confusion": group.confusion,
        "by_memory_size": {
            str(size): dict(stats) for size, stats in group.by_memory_size.items()
        },
    }


def metrics_json(report) -> str:
    """metrics.json as the hand-written report dict rendered it."""
    data = {"groups": [group_dict(group) for group in report.groups]}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def trials_jsonl(records) -> str:
    """trials.jsonl as the recursive `asdict` copy of each record wrote it."""
    return "".join(
        json.dumps(asdict(record), sort_keys=True) + "\n" for record in records
    )


def whole_cli_parser() -> argparse.ArgumentParser:
    """Every subparser, built on every call; handlers are read off
    `hearth.cli` when this runs."""
    parser = argparse.ArgumentParser(
        prog="hearth",
        description="Household-agent simulator: run tasks, experiments, and "
        "the tool server.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one task with a backend")
    run.add_argument("--task", required=True, choices=sorted(TASKS))
    run.add_argument(
        "--backend",
        required=True,
        help="scripted:NAME or http:CONFIG_JSON",
    )
    run.add_argument("--scenario", help="scenario JSON (default: bundled)")
    run.add_argument("--baseline", help="baseline.json (or its directory) from t1")
    run.add_argument("--memory", help="episodic store JSONL path")
    run.add_argument("--output-dir", help="write transcript and baseline here")
    run.add_argument("--max-tool-calls", type=int, default=DEFAULT_MAX_TOOL_CALLS)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--no-memory", action="store_true",
                     help="hide search_memory from the agent")
    run.set_defaults(func=cli.cmd_run)

    experiment = sub.add_parser("experiment", help="run a trial batch from a plan")
    experiment.add_argument("plan", help="experiment plan JSON")
    experiment.add_argument("--report-dir", help="where to write metrics files")
    experiment.set_defaults(func=cli.cmd_experiment)

    memory = sub.add_parser("memory", help="inspect or clear an episodic store")
    memory.add_argument("action", choices=("list", "search", "purge"))
    memory.add_argument("--store", required=True, help="store JSONL path")
    memory.add_argument("--query", help="search query")
    memory.add_argument("--k", type=int, default=3)
    memory.add_argument("--yes", action="store_true", help="confirm purge")
    memory.set_defaults(func=cli.cmd_memory)

    serve = sub.add_parser("serve", help="serve the tool interface over JSON-RPC")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7341)
    serve.add_argument("--scenario", help="scenario JSON (default: bundled)")
    serve.add_argument("--expose-ground-truth", action="store_true")
    serve.add_argument("--stdio", action="store_true",
                       help="serve a single connection on stdin/stdout")
    serve.set_defaults(func=cli.cmd_serve)

    replay = sub.add_parser("replay", help="re-execute a recorded transcript")
    replay.add_argument("transcript", help="transcript JSONL path")
    replay.set_defaults(func=cli.cmd_replay)

    return parser


# Plans and transcript lines as they were read before `from_json`: one
# hand-written check per field, each restating the field's annotation.

_HEADER_TEXT_FIELDS = (
    "scenario_hash", "prompt_version", "model_id", "task_id", "task_prompt"
)


def _from_fields(cls, data):
    return cls(
        **{
            name: data[name]
            for name, f in cls.__dataclass_fields__.items()
            if name in data or (f.default is MISSING and f.default_factory is MISSING)
        }
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_call(call) -> bool:
    return (
        isinstance(call, dict)
        and isinstance(call.get("id"), str)
        and isinstance(call.get("name"), str)
        and isinstance(call.get("arguments"), dict)
    )


def hand_checked_message(data) -> TranscriptMessage:
    message = _from_fields(TranscriptMessage, data)
    if not _is_int(message.index):
        raise ValueError(f"index must be an integer: {message.index!r}")
    if not isinstance(message.role, str) or not isinstance(message.content, str):
        raise ValueError("role and content must be strings")
    if message.tool_calls is not None and not (
        isinstance(message.tool_calls, list)
        and all(_is_call(call) for call in message.tool_calls)
    ):
        raise ValueError(
            "tool_calls must be a list of objects with a string id, a "
            f"string name and object arguments: {message.tool_calls!r}"
        )
    if message.tool_result is not None and not isinstance(message.tool_result, dict):
        raise ValueError(f"tool_result is not an object: {message.tool_result!r}")
    return message


def hand_checked_header(data) -> TranscriptHeader:
    header = _from_fields(TranscriptHeader, data)
    memories = header.initial_memories
    if not (isinstance(memories, list) and all(isinstance(m, dict) for m in memories)):
        raise ValueError(f"initial_memories must be a list of objects: {memories!r}")
    if not isinstance(header.initial_world, dict):
        raise ValueError(f"initial_world must be an object: {header.initial_world!r}")
    for name in _HEADER_TEXT_FIELDS:
        value = getattr(header, name)
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string: {value!r}")
    if not isinstance(header.scenario, dict):
        raise ValueError(f"scenario must be an object: {header.scenario!r}")
    if header.seed is not None and not _is_int(header.seed):
        raise ValueError(f"seed must be an integer or null: {header.seed!r}")
    if not isinstance(header.memory_enabled, bool):
        raise ValueError(f"memory_enabled must be a boolean: {header.memory_enabled!r}")
    for name in ("memory_count", "memory_next_seq"):
        value = getattr(header, name)
        if value is not None and not _is_int(value):
            raise ValueError(f"{name} must be an integer or null: {value!r}")
    return header


def hand_checked_final(data) -> TranscriptFinal:
    final = _from_fields(TranscriptFinal, data)
    if not isinstance(final.termination, str):
        raise ValueError(f"termination must be a string: {final.termination!r}")
    if not _is_int(final.tool_calls):
        raise ValueError(f"tool_calls must be an integer: {final.tool_calls!r}")
    if not isinstance(final.snapshot, dict):
        raise ValueError(f"snapshot must be an object: {final.snapshot!r}")
    if final.believed_status is not None and not isinstance(final.believed_status, str):
        raise ValueError(
            f"believed_status must be a string or null: {final.believed_status!r}"
        )
    return final


def _plan_field(data, name, convert, default=None):
    value = data.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"plan field '{name}' has the wrong type: {value!r}") from None


def _typed(*types):
    def check(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise TypeError(value)
        return value

    return check


def hand_checked_plan(data) -> ExperimentPlan:
    unknown = set(data) - set(ExperimentPlan.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown plan fields: {sorted(unknown)}")
    for required in ("name", "tasks", "backend"):
        if required not in data:
            raise ValueError(f"plan is missing required field '{required}'")
    integer, a_list = _typed(int), _typed(list)
    tasks = tuple(_plan_field(data, "tasks", a_list))
    if not tasks:
        raise ValueError("plan must name at least one task")
    for position, task_id in enumerate(tasks):
        task = TASKS.get(task_id) if isinstance(task_id, str) else None
        if task is None:
            raise ValueError(f"unknown task '{task_id}'")
        if task.prerequisite is not None and task.prerequisite not in tasks[:position]:
            raise ValueError(
                f"task '{task_id}' requires '{task.prerequisite}' earlier in the task list"
            )
    trials = _plan_field(data, "trials", integer, 1)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    memory_sizes = _plan_field(
        data,
        "memory_sizes",
        lambda v: v if v is None else tuple(map(integer, a_list(v))),
    )
    if memory_sizes is not None:
        bad = [m for m in memory_sizes if m not in VALID_MEMORY_SIZES]
        if bad:
            raise ValueError(
                f"memory_sizes must lie in {list(VALID_MEMORY_SIZES)}, got {bad}"
            )
        repeated = sorted({m for m in memory_sizes if memory_sizes.count(m) > 1})
        if repeated:
            raise ValueError(f"memory_sizes lists {repeated} more than once")
    parallelism = _plan_field(data, "parallelism", integer, 1)
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    max_tool_calls = _plan_field(data, "max_tool_calls", integer, DEFAULT_MAX_TOOL_CALLS)
    if max_tool_calls < 1:
        raise ValueError("max_tool_calls must be >= 1")
    optional_str = _typed(str, type(None))
    return ExperimentPlan(
        name=_plan_field(data, "name", _typed(str)),
        tasks=tasks,
        backend=data["backend"],
        trials=trials,
        memory_sizes=memory_sizes,
        scenario_path=_plan_field(data, "scenario_path", optional_str),
        seed=_plan_field(data, "seed", _typed(int, type(None))),
        output_dir=_plan_field(data, "output_dir", optional_str),
        parallelism=parallelism,
        exclude_backend_errors=_plan_field(
            data, "exclude_backend_errors", _typed(bool), False
        ),
        max_tool_calls=max_tool_calls,
        memory_enabled=_plan_field(data, "memory_enabled", _typed(bool), True),
    )


# Every cause keyword a failed tool result may carry.
DOCUMENTED_CAUSES = frozenset({
    "no-path", "does-not-exist", "out-of-reach", "already-holding",
    "not-graspable", "not-holding", "no-such-slot", "occupied",
    "unknown-location", "invalid-arguments", "unknown-tool", "empty-note",
    "invalid-status", "empty-field", "parallel-calls",
})

# Each tool's parameters, all required strings.
TOOL_PARAMS = {
    "look_around": (),
    "move_to": ("location",),
    "grab": ("object",),
    "place": ("slot",),
    "add_to_scratchpad": ("text",),
    "view_scratchpad": (),
    "search_memory": ("query",),
    "end_task": ("task_description", "status", "action_summary"),
}


class ToolContractModel:
    """The tool contract restated over plain data from `WorldState.to_dict`.

    `expect` names the cause a call must fail with, or None when it must
    succeed, and applies a success to the model. Reach is the Euclidean
    distance against `reach_radius`, inclusive; a slot holds one object;
    the agent holds at most one; a move succeeds when the goal is in the
    start's component, found by a breadth-first walk. The model keeps no
    step counter, since hop counts depend on which shortest path A* picks.
    """

    def __init__(self, world: dict) -> None:
        self.positions = {n["id"]: (n["x"], n["y"]) for n in world["map"]["nodes"]}
        self.links = {node: set() for node in self.positions}
        for edge in world["map"]["edges"]:
            self.links[edge["a"]].add(edge["b"])
            self.links[edge["b"]].add(edge["a"])
        self.furniture_at = {f["id"]: f["location"] for f in world["furniture"]}
        self.slots = {
            f"{f['id']}_layer_{index + 1}": [f["id"], index, occupant]
            for f in world["furniture"]
            for index, occupant in enumerate(f["slots"])
        }
        self.graspable = {o["id"]: o["graspable"] for o in world["objects"]}
        self.placement = {o["id"]: dict(o["containment"]) for o in world["objects"]}
        self.location = world["agent"]["location"]
        self.held = world["agent"]["held"]
        self.reach = world["agent"]["reach_radius"]

    def _reaches(self, location: str) -> bool:
        (ax, ay), (bx, by) = self.positions[self.location], self.positions[location]
        return math.hypot(ax - bx, ay - by) <= self.reach

    def _where(self, object_id: str) -> str:
        placement = self.placement[object_id]
        if placement["kind"] == "slot":
            return self.furniture_at[placement["furniture"]]
        if placement["kind"] == "held":
            return self.location
        return placement["location"]

    def _connected(self, goal: str) -> bool:
        seen, frontier = {self.location}, [self.location]
        while frontier:
            for nbr in self.links[frontier.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return goal in seen

    def expect(self, name: str, arguments) -> str | None:
        if name not in TOOL_PARAMS:
            return "unknown-tool"
        if (
            not isinstance(arguments, dict)
            or set(arguments) != set(TOOL_PARAMS[name])
            or not all(isinstance(value, str) for value in arguments.values())
        ):
            return "invalid-arguments"
        if name == "move_to":
            goal = arguments["location"]
            if goal == self.location:
                return None
            if goal not in self.positions:
                return "unknown-location"
            if not self._connected(goal):
                return "no-path"
            self.location = goal
        elif name == "grab":
            target = arguments["object"]
            if target not in self.placement:
                return "does-not-exist"
            if not self._reaches(self._where(target)):
                return "out-of-reach"
            if self.held is not None:
                return "already-holding"
            if not self.graspable[target]:
                return "not-graspable"
            placement = self.placement[target]
            if placement["kind"] == "slot":
                slot_name = f"{placement['furniture']}_layer_{placement['slot'] + 1}"
                self.slots[slot_name][2] = None
            self.placement[target] = {"kind": "held"}
            self.held = target
        elif name == "place":
            if self.held is None:
                return "not-holding"
            slot = self.slots.get(arguments["slot"])
            if slot is None:
                return "no-such-slot"
            furniture_id, index, occupant = slot
            if not self._reaches(self.furniture_at[furniture_id]):
                return "out-of-reach"
            if occupant is not None:
                return "occupied"
            slot[2] = self.held
            self.placement[self.held] = {
                "kind": "slot", "furniture": furniture_id, "slot": index,
            }
            self.held = None
        elif name == "add_to_scratchpad":
            if not arguments["text"].strip():
                return "empty-note"
        elif name == "end_task":
            if arguments["status"] not in ("succeeded", "failed"):
                return "invalid-status"
            if not (
                arguments["task_description"].strip()
                and arguments["action_summary"].strip()
            ):
                return "empty-field"
        return None

    def nearby(self) -> list[str]:
        """The objects `look_around` lists: those within reach, by id."""
        return [oid for oid in sorted(self.placement) if self._reaches(self._where(oid))]

    def snapshot(self) -> dict:
        """`snapshot` of the world the model tracks, without its step
        counter."""
        return {
            "agent": {"location": self.location, "held": self.held},
            "objects": dict(sorted(self.placement.items())),
        }


_T1 = "put the mug, the box, and the cube away on the shelf"
_SHELVE_MUG_AND_BOX = [
    ("move_to", {"location": "kitchen_table"}),
    ("grab", {"object": "mug"}),
    ("move_to", {"location": "kitchen_shelf"}),
    ("place", {"slot": "shelf_layer_1"}),
    ("move_to", {"location": "kitchen_table"}),
    ("grab", {"object": "box"}),
    ("move_to", {"location": "kitchen_shelf"}),
    ("place", {"slot": "shelf_layer_2"}),
]
_SHELVE_ALL = _SHELVE_MUG_AND_BOX + [
    ("move_to", {"location": "living_room_table"}),
    ("grab", {"object": "cube"}),
    ("move_to", {"location": "kitchen_shelf"}),
    ("place", {"slot": "shelf_layer_3"}),
]
_MEMORY_HINTED_END = ("end_task", {
    "task_description": _T1,
    "status": "succeeded",
    "action_summary": (
        "Shelved the mug, the box, and the cube on separate layers of the "
        "kitchen shelf."
    ),
})

# The calls each shipped script yields, keyed by (script, task, what its
# first search returned), as the scripts spelled them out call by call.
SHIPPED_SCRIPT_CALLS = {
    ("optimal", "t1", None): [
        ("add_to_scratchpad", {"text": (
            "Plan: shelve the mug and the box from the kitchen table, then "
            "fetch the cube from the living room table."
        )}),
        *_SHELVE_ALL,
        ("end_task", {
            "task_description": _T1,
            "status": "succeeded",
            "action_summary": (
                "Carried the mug, the box, and the cube to the kitchen shelf "
                "one at a time and placed each on its own layer."
            ),
        }),
    ],
    ("optimal", "t2", None): [
        ("add_to_scratchpad", {"text": (
            "Plan: stash the mug on the kitchen table, move the cube into "
            "the mug's layer, then shelve the mug in the cube's old layer."
        )}),
        ("move_to", {"location": "kitchen_shelf"}),
        ("grab", {"object": "mug"}),
        ("move_to", {"location": "kitchen_table"}),
        ("place", {"slot": "kitchen_table_layer_1"}),
        ("move_to", {"location": "kitchen_shelf"}),
        ("grab", {"object": "cube"}),
        ("place", {"slot": "shelf_layer_1"}),
        ("move_to", {"location": "kitchen_table"}),
        ("grab", {"object": "mug"}),
        ("move_to", {"location": "kitchen_shelf"}),
        ("place", {"slot": "shelf_layer_3"}),
        ("end_task", {
            "task_description": "swap the mug and the cube on the shelf",
            "status": "succeeded",
            "action_summary": (
                "Parked the mug on the kitchen table, moved the cube into the "
                "mug's shelf layer, then placed the mug on the cube's old layer."
            ),
        }),
    ],
    ("hallucinator", "t1", None): [
        *_SHELVE_MUG_AND_BOX,
        ("end_task", {
            "task_description": _T1,
            "status": "succeeded",
            "action_summary": (
                "Placed the mug, the box, and the cube on the kitchen shelf."
            ),
        }),
    ],
    ("memory_hinted", "t1", "Found no relevant memories."): [
        ("search_memory", {"query": _T1}),
        ("look_around", {}),
        ("move_to", {"location": "kitchen_center"}),
        ("look_around", {}),
        ("move_to", {"location": "living_room_center"}),
        ("look_around", {}),
        *_SHELVE_ALL,
        _MEMORY_HINTED_END,
    ],
    ("memory_hinted", "t1", "Found 1 relevant memories:"): [
        ("search_memory", {"query": _T1}),
        *_SHELVE_ALL,
        _MEMORY_HINTED_END,
    ],
}
