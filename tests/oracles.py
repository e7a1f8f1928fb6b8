"""Independent reference implementations used to cross-check the package.

The Dijkstra oracle uses a dict scan instead of a heap, and the cosine
oracle recomputes similarity from scratch and ranks by repeated max
extraction instead of a sort; neither imports more than data types. The
schema oracle asks `jsonschema.validate` itself, and the trial oracle
loads the scenario afresh for every trial and builds each transcript by
hand, as the package once did. The dense memory path is the store as it
was before it kept vectors sparse: a dense embedding, and a cosine that
sums all 256 buckets and recomputes both norms for every record.
"""

from __future__ import annotations

import json
import math
import os
import random

import jsonschema

from hearth.agent.context import PROMPT_VERSION
from hearth.agent.loop import run_task
from hearth.agent.transcript import Transcript, TranscriptFinal, TranscriptHeader
from hearth.harness.runner import BackendSetup, ExperimentPlan
from hearth.harness.tasks import TASKS
from hearth.memory.embedding import EMBEDDING_DIM, _stable_hash_64, tokenize
from hearth.memory.episodic import EpisodicRecord, EpisodicStore
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import MemoryHandles
from hearth.world.scenario import (
    SCENARIO_SCHEMA,
    default_scenario_data,
    load_scenario,
    scenario_hash,
)
from hearth.world.semantic_map import SemanticMap
from hearth.world.state import snapshot


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
    floor: float,
) -> list[tuple[str, float]]:
    """(record id, similarity) by exhaustive scan and max extraction."""
    scored = []
    for record in records:
        dot = math.fsum(q * v for q, v in zip(query_vector, record.embedding))
        nq = math.sqrt(math.fsum(q * q for q in query_vector))
        nv = math.sqrt(math.fsum(v * v for v in record.embedding))
        similarity = 0.0 if nq == 0.0 or nv == 0.0 else dot / (nq * nv)
        if similarity >= floor:
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


def dense_embed(text: str, dimension: int = EMBEDDING_DIM) -> list[float]:
    """The hashed bag-of-words embedding, built as a dense list."""
    counts = [0.0] * dimension
    for token in tokenize(text):
        counts[_stable_hash_64(token) % dimension] += 1.0
    norm = math.sqrt(sum(v * v for v in counts))
    if norm == 0.0:
        basis = [0.0] * dimension
        basis[0] = 1.0
        return basis
    return [v / norm for v in counts]


def cosine(a: list[float], b: list[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def dense_search(
    records: list[EpisodicRecord], query: str, k: int, floor: float
) -> list[tuple[str, float]]:
    """(record id, similarity) as the dense store computed them; compare
    with `==`, since the sparse store must give the same floats."""
    query_vec = dense_embed(query)
    scored = [(record, cosine(query_vec, record.embedding)) for record in records]
    scored = [(record, sim) for record, sim in scored if sim >= floor]
    scored.sort(key=lambda pair: (-pair[1], -pair[0].created_at))
    return [(record.id, sim) for record, sim in scored[:k]]


def dense_record_line(record: EpisodicRecord) -> str:
    """The JSONL line the dense store wrote for a record it had added."""
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


def validate_error(data) -> tuple[str, str] | None:
    """(keyword, ScenarioError text) for the error `jsonschema.validate`
    raises on `data`, or None when the document passes the schema."""
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
            memories = [
                {key: value for key, value in r.to_dict().items() if key != "embedding"}
                for r in store.records
            ]
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
