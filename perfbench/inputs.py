"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical stores, plans, call sequences and recorded transcripts.
The program under test only ever sees what these functions produce.
"""

from __future__ import annotations

import copy
import json
import os
import random
from typing import Any

# Sizes are part of the workload definitions; see README.md.
BATCH_CYCLE_TRIALS = 40
BATCH_PLAN_TRIALS = 10
BATCH_HALLUCINATOR_TRIALS = 10
RECALL_STORE_RECORDS = 1000
RECALL_NEAR_SHARE = 0.05
RPC_SESSIONS = 8
# The episodes of one rpc session, in seeded order: shipped scripts, each
# run from the scenario's initial world, in the batch workload's
# proportions (three quarters of the trials optimal) plus the
# memory-hinted script, which alone calls search_memory and look_around.
RPC_EPISODES = (
    (("optimal", ("t1", "t2")),) * 6
    + (("hallucinator", ("t1",)),) * 2
    + (("memory_hinted", ("t1",)),) * 2
)
# One failing call is injected after every RPC_FAIL_AFTER-th derived call,
# so a fifth of a session's calls fail. Causes are spread evenly over the
# ones the state allows at that point; no-path cannot occur, because a
# scenario that loads is connected.
RPC_FAIL_AFTER = 4
RPC_FAIL_CAUSES = ("unknown-location", "out-of-reach", "occupied")
RPC_MODEL_ID = "perfbench"
REPLAY_STORE_RECORDS = 300
# Replays per cycle of each recorded transcript. The weights put the
# median replay inside the optimal-t1 group rather than on a boundary
# between two groups, so op_p50_ms does not flip between them.
REPLAY_WEIGHTS = {"hallucinator_t1": 1, "optimal_t2": 2, "optimal_t1": 3, "memory_t1": 2}

UNKNOWN_LOCATIONS = ("garage", "attic", "garden")
_WORDS = (
    "put wipe fold stack water sort fetch carry open close check clean "
    "the a plant towel plate cup spoon book lamp chair sofa window door "
    "drawer fridge oven sink counter rug mug box cube shelf table kitchen "
    "living room hallway on under near away back"
).split()


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it is stable across runs
    # and processes, unlike hash().
    return random.Random(f"perfbench:{workload}:{seed}")


def _sentence(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def _near_t1(rng: random.Random, t1_description: str) -> str:
    """A paraphrase sharing most of the t1 words, so a t1 search hits it."""
    words = t1_description.replace(",", "").split()
    kept = [w for w in words if rng.random() < 0.85]
    rng.shuffle(kept)
    return " ".join(kept + [rng.choice(_WORDS)])


def batch_plans(seed: int) -> list[dict[str, Any]]:
    """One cycle of experiment plans, without output directories.

    Optimal plans run t1 then t2; hallucinator plans run t1 only. A
    quarter of the cycle's trials are hallucinator trials and every plan
    has the same size, so seeds differ in the order of the plans, not in
    how much work a cycle or a plan holds.
    """
    plans = [("hallucinator", ["t1"])] * (BATCH_HALLUCINATOR_TRIALS // BATCH_PLAN_TRIALS)
    plans += [("optimal", ["t1", "t2"])] * (
        (BATCH_CYCLE_TRIALS - BATCH_HALLUCINATOR_TRIALS) // BATCH_PLAN_TRIALS
    )
    _rng("batch", seed).shuffle(plans)
    return [
        {
            "name": f"b{index:02d}-{script}",
            "tasks": tasks,
            "backend": f"scripted:{script}",
            "trials": BATCH_PLAN_TRIALS,
            "seed": seed,
        }
        for index, (script, tasks) in enumerate(plans)
    ]


def write_store(path: str, seed: int, workload: str, records: int) -> None:
    """Write a durable episodic store of `records` seeded task reports.

    A share of the descriptions paraphrase the t1 prompt, so a t1 memory
    search finds them. The file is what `EpisodicStore(path=...)` writes.
    """
    from hearth.agent.scripts import T1_DESCRIPTION
    from hearth.memory.episodic import EpisodicStore

    rng = _rng(workload, seed)
    store = EpisodicStore()
    for _ in range(records):
        if rng.random() < RECALL_NEAR_SHARE:
            description = _near_t1(rng, T1_DESCRIPTION)
        else:
            description = _sentence(rng, 4, 10)
        store.add(
            task_description=description,
            believed_status=rng.choice(("succeeded", "failed")),
            action_summary=_sentence(rng, 8, 20),
            model_id=rng.choice(("scripted:optimal", "model-a", "model-b")),
        )
    with open(path, "w", encoding="utf-8") as handle:
        for record in store.records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def rpc_sessions(seed: int) -> list[list[tuple[str, dict[str, Any]]]]:
    """Seeded tool-call sequences, one per distinct session.

    A session runs the RPC_EPISODES in seeded order. Each episode is the
    call sequence a shipped script makes, driven by the results of a
    local world; after it, the objects it moved are carried back to the
    scenario's initial slots and the agent walks back to its start, with
    the same tools. Failing calls are injected as RPC_FAIL_AFTER says.
    Raises if a derived call fails or an injected one does not.
    """
    rng = _rng("rpc", seed)
    sessions = []
    for _ in range(RPC_SESSIONS):
        episodes = list(RPC_EPISODES)
        rng.shuffle(episodes)
        sessions.append(_RpcSession(rng).run(episodes))
    return sessions


def write_rpc_sessions(path: str, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rpc_sessions(seed), handle)


def read_rpc_sessions(path: str) -> list[list[tuple[str, dict[str, Any]]]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class _RpcSession:
    """Builds one session's calls while applying them to a local world."""

    def __init__(self, rng: random.Random) -> None:
        from hearth.memory.episodic import EpisodicStore
        from hearth.memory.scratchpad import Scratchpad
        from hearth.tools.dispatch import MemoryHandles
        from hearth.world.scenario import default_scenario_data, load_scenario

        self.rng = rng
        self.world = load_scenario(default_scenario_data())
        self.handles = MemoryHandles(Scratchpad(), EpisodicStore(), RPC_MODEL_ID)
        self.home = self._placements()
        self.start = self.world.agent.location
        self.calls: list[tuple[str, dict[str, Any]]] = []
        self.derived = 0
        self.injected = dict.fromkeys(RPC_FAIL_CAUSES, 0)

    def run(self, episodes: list[tuple[str, tuple[str, ...]]]) -> list[tuple[str, dict[str, Any]]]:
        from hearth.agent.scripts import SCRIPTS

        for script, tasks in episodes:
            for task in tasks:
                generator = SCRIPTS[script][task]()
                item = next(generator)
                while True:
                    name, arguments = item
                    message = self._derived(name, arguments).message
                    try:
                        item = generator.send(message)
                    except StopIteration:
                        break
            self._restore()
        return self.calls

    def _dispatch(self, world: Any, name: str, arguments: dict[str, Any]) -> Any:
        from hearth.tools.dispatch import ToolCall, dispatch

        return dispatch(ToolCall(name, arguments), world, self.handles)

    def _derived(self, name: str, arguments: dict[str, Any]) -> Any:
        result = self._dispatch(self.world, name, arguments)
        if not result.ok:
            raise RuntimeError(f"derived call {name} {arguments} failed: {result.message}")
        self.calls.append((name, arguments))
        self.derived += 1
        if self.derived % RPC_FAIL_AFTER == 0:
            self._inject()
        return result

    def _placements(self) -> dict[str, tuple[str, str]]:
        """Object id -> (slot name, location) of every object in a slot."""
        from hearth.world.state import snapshot

        placed = {}
        for oid, where in snapshot(self.world)["objects"].items():
            if where["kind"] == "slot":
                furniture = self.world.furniture[where["furniture"]]
                placed[oid] = (furniture.slot_name(where["slot"]), furniture.location)
        return placed

    def _restore(self) -> None:
        for oid, (slot, location) in sorted(self.home.items()):
            now = self._placements().get(oid)
            if now == (slot, location):
                continue
            if self.world.agent.location != now[1]:
                self._derived("move_to", {"location": now[1]})
            self._derived("grab", {"object": oid})
            if self.world.agent.location != location:
                self._derived("move_to", {"location": location})
            self._derived("place", {"slot": slot})
        if self.world.agent.location != self.start:
            self._derived("move_to", {"location": self.start})

    def _inject(self) -> None:
        """Append one failing call, of the least used cause the state allows."""
        slots = sorted(
            furniture.slot_name(index)
            for furniture in self.world.furniture.values()
            for index in range(len(furniture.slots))
        )
        candidates = {
            "unknown-location": [("move_to", {"location": loc}) for loc in UNKNOWN_LOCATIONS],
            "out-of-reach": [("grab", {"object": oid}) for oid in sorted(self.world.objects)],
            "occupied": [("place", {"slot": slot}) for slot in slots],
        }
        # Candidates are tried on a copy of the world, copied again only
        # after one succeeds: a failed call leaves the world as it was.
        trial = copy.deepcopy(self.world)
        usable: dict[str, list[tuple[str, dict[str, Any]]]] = {}
        for cause in RPC_FAIL_CAUSES:
            usable[cause] = []
            for name, arguments in candidates[cause]:
                result = self._dispatch(trial, name, arguments)
                if result.ok:
                    trial = copy.deepcopy(self.world)
                elif result.machine_payload.get("cause") == cause:
                    usable[cause].append((name, arguments))
        fewest = min(self.injected[cause] for cause in usable if usable[cause])
        cause = self.rng.choice(
            [c for c in RPC_FAIL_CAUSES if usable[c] and self.injected[c] == fewest]
        )
        name, arguments = self.rng.choice(usable[cause])
        if self._dispatch(self.world, name, arguments).machine_payload.get("cause") != cause:
            raise RuntimeError(f"injected call {name} {arguments} did not fail with {cause}")
        self.injected[cause] += 1
        self.calls.append((name, arguments))


# Transcript kind -> (task, `hearth run` arguments, expected exit code).
# The hallucinator reports success on a failed task, so it exits 1.
REPLAY_RUNS = {
    "optimal_t1": ("t1", ["--backend", "scripted:optimal"], 0),
    "optimal_t2": ("t2", ["--backend", "scripted:optimal", "--baseline", "{dir}/optimal_t1"], 0),
    "hallucinator_t1": ("t1", ["--backend", "scripted:hallucinator"], 1),
    "memory_t1": ("t1", ["--backend", "scripted:memory_hinted", "--memory", "{dir}/store.jsonl"], 0),
}


def transcript_paths(directory: str) -> dict[str, str]:
    """Where `record_transcripts` leaves each kind of transcript."""
    return {
        kind: os.path.join(directory, kind, f"run_{task}.jsonl")
        for kind, (task, _, _) in REPLAY_RUNS.items()
    }


def record_transcripts(directory: str, seed: int) -> None:
    """Record the replay workload's transcripts with `hearth run`.

    optimal_t2 starts from optimal_t1's baseline, so its header carries
    an initial world; memory_t1 starts from a seeded store of hundreds of
    records. Raises if a recording exits with another code than expected.
    """
    from workloads import cli

    os.makedirs(directory, exist_ok=True)
    write_store(os.path.join(directory, "store.jsonl"), seed, "replay", REPLAY_STORE_RECORDS)
    for kind, (task, argv, want) in REPLAY_RUNS.items():
        argv = [arg.replace("{dir}", directory) for arg in argv]
        out = os.path.join(directory, kind)
        code = cli(["run", "--task", task, *argv, "--output-dir", out, "--seed", str(seed)])[0]
        if code != want:
            raise RuntimeError(f"recording {kind} exited {code}, expected {want}")


def replay_cycle(seed: int) -> list[str]:
    """Seeded order of transcript kinds replayed in one cycle."""
    cycle = [kind for kind, weight in REPLAY_WEIGHTS.items() for _ in range(weight)]
    _rng("replay", seed).shuffle(cycle)
    return cycle
