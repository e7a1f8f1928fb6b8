"""Memory layer: hashed embeddings, episodic store vs oracle, scratchpad."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearth.memory import (
    EMBEDDING_DIM,
    EpisodicStore,
    HashedEmbedder,
    PersistenceError,
    RemoteEmbedder,
    Scratchpad,
    cosine,
    embed_deterministic,
    tokenize,
)

from .oracles import brute_force_search

VOCAB = [
    "mug", "cube", "box", "shelf", "table", "kitchen", "living", "room",
    "move", "grab", "place", "swap", "clean", "find", "put", "away",
]


def norm(vector):
    return math.sqrt(sum(v * v for v in vector))


class TestTokenize:
    def test_lowercases_and_splits_on_non_alphanumerics(self):
        assert tokenize("Put the MUG, box & cube-3 away!") == [
            "put", "the", "mug", "box", "cube", "3", "away",
        ]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("?!... --- ***") == []


class TestHashedEmbedder:
    def test_default_dimension(self):
        assert HashedEmbedder().dimension == EMBEDDING_DIM == 256
        assert len(embed_deterministic("mug")) == 256

    def test_deterministic_across_instances(self):
        a = HashedEmbedder().embed("swap the mug and the cube")
        b = HashedEmbedder().embed("swap the mug and the cube")
        assert a == b
        assert a == embed_deterministic("swap the mug and the cube")

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_every_embedding_has_unit_norm(self, text):
        vector = embed_deterministic(text)
        assert norm(vector) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text_maps_to_first_basis_vector(self):
        vector = embed_deterministic("")
        assert vector[0] == 1.0
        assert all(v == 0.0 for v in vector[1:])
        assert embed_deterministic("!!!") == vector

    def test_insensitive_to_case_and_punctuation(self):
        assert embed_deterministic("Mug, Cube!") == embed_deterministic("mug cube")

    def test_sensitive_to_token_multiplicity(self):
        assert embed_deterministic("mug mug cube") != embed_deterministic("mug cube")

    def test_identical_text_has_similarity_one(self):
        text = "put the mug, the box, and the cube away on the shelf"
        sim = cosine(embed_deterministic(text), embed_deterministic(text))
        assert sim == pytest.approx(1.0, abs=1e-9)

    def test_related_text_outranks_unrelated(self):
        query = embed_deterministic("swap the mug and the cube on the shelf")
        related = embed_deterministic("mug cube swap")
        unrelated = embed_deterministic("water the garden plants every evening")
        assert cosine(query, related) > cosine(query, unrelated)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            HashedEmbedder(0)


class TestCosine:
    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_reference_values(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert cosine([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0


class TestEpisodicStore:
    def test_ids_and_creation_order(self):
        store = EpisodicStore()
        first = store.add("put the mug away", "succeeded", "done", "m")
        second = store.add("swap things", "failed", "gave up", "m")
        assert (first, second) == ("mem-000001", "mem-000002")
        assert [r.created_at for r in store.records] == [1, 2]
        assert len(store) == 2

    def test_add_validation(self):
        store = EpisodicStore()
        with pytest.raises(ValueError, match="task_description"):
            store.add("  ", "succeeded", "x")
        with pytest.raises(ValueError, match="action_summary"):
            store.add("x", "succeeded", " ")
        with pytest.raises(ValueError, match="believed_status"):
            store.add("x", "finished", "y")
        assert len(store) == 0

    def test_search_validation(self):
        store = EpisodicStore()
        with pytest.raises(ValueError, match="k must be"):
            store.search("mug", k=0)
        with pytest.raises(ValueError, match="floor"):
            store.search("mug", floor=2.0)

    def test_floor_excludes_unrelated_records(self):
        store = EpisodicStore()
        store.add("alpha beta gamma", "succeeded", "x")
        results = store.search("delta epsilon zeta")
        assert results == []

    def test_top_k_limit(self):
        store = EpisodicStore()
        for i in range(5):
            store.add(f"put the mug away round {i}", "succeeded", "x")
        assert len(store.search("put the mug away")) == 3
        assert len(store.search("put the mug away", k=5)) == 5

    def test_ties_rank_most_recent_first(self):
        store = EpisodicStore()
        store.add("put the mug away", "succeeded", "first run")
        store.add("unrelated gardening chores", "failed", "n/a")
        store.add("put the mug away", "failed", "second run")
        results = store.search("put the mug away", k=2)
        assert [r.id for r, _ in results] == ["mem-000003", "mem-000001"]
        assert results[0][1] == pytest.approx(results[1][1], abs=1e-12)

    def test_matches_brute_force_oracle_on_random_stores(self):
        rng = random.Random(4242)
        for trial in range(50):
            store = EpisodicStore()
            for _ in range(rng.randint(1, 12)):
                words = rng.choices(VOCAB, k=rng.randint(2, 6))
                store.add(" ".join(words), rng.choice(["succeeded", "failed"]), "s")
            query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 4)))
            k = rng.randint(1, 5)
            floor = rng.choice([0.0, 0.2, 0.5])
            got = store.search(query, k=k, floor=floor)
            expected = brute_force_search(
                store.records, embed_deterministic(query), k=k, floor=floor
            )
            assert [r.id for r, _ in got] == [rid for rid, _ in expected], (
                f"trial {trial}"
            )
            for (_, sim), (_, want) in zip(got, expected):
                assert sim == pytest.approx(want, abs=1e-12)

    def test_records_property_is_a_copy(self):
        store = EpisodicStore()
        store.add("put the mug away", "succeeded", "x")
        store.records.clear()
        assert len(store) == 1


class TestPersistence:
    def test_add_writes_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "carried it", "m1")
        store.add("swap the mug and cube", "failed", "ran out of moves", "m1")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["id"] == "mem-000001"
        assert first["task_description"] == "put the mug away"
        assert first["believed_status"] == "succeeded"
        assert first["model_id"] == "m1"

    def test_reload_preserves_records_and_ranking(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        for i in range(6):
            store.add(f"put the mug away round {i}", "succeeded", "x")
        before = [(r.id, sim) for r, sim in store.search("put the mug away")]

        reloaded = EpisodicStore(path=str(path))
        assert len(reloaded) == 6
        after = [(r.id, sim) for r, sim in reloaded.search("put the mug away")]
        assert [rid for rid, _ in after] == [rid for rid, _ in before]
        for (_, a), (_, b) in zip(after, before):
            assert a == pytest.approx(b, abs=1e-12)

    def test_reload_continues_id_sequence(self, tmp_path):
        path = tmp_path / "store.jsonl"
        EpisodicStore(path=str(path)).add("put the mug away", "succeeded", "x")
        reloaded = EpisodicStore(path=str(path))
        assert reloaded.add("another task entirely", "failed", "y") == "mem-000002"

    def test_corrupt_json_line_is_reported_with_line_number(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "x")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(PersistenceError, match=r"corrupt record at .*:2"):
            EpisodicStore(path=str(path))

    def test_non_unit_embedding_rejected_on_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = {
            "id": "mem-000001",
            "task_description": "x",
            "believed_status": "succeeded",
            "action_summary": "y",
            "embedding": [2.0] + [0.0] * (EMBEDDING_DIM - 1),
            "created_at": 1,
            "model_id": "m",
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(PersistenceError, match="norm"):
            EpisodicStore(path=str(path))

    def test_duplicate_id_rejected_on_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "x")
        line = path.read_text()
        path.write_text(line + line)
        with pytest.raises(PersistenceError, match="duplicate id"):
            EpisodicStore(path=str(path))

    def test_duplicate_id_mid_file_names_its_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        for i in range(5):
            store.add(f"put the mug away round {i}", "succeeded", "x")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + [lines[1]] + lines[3:]))
        with pytest.raises(PersistenceError) as info:
            EpisodicStore(path=str(path))
        assert str(info.value) == f"corrupt record at {path}:4: duplicate id 'mem-000002'"

    def test_bad_status_rejected_on_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "x")
        data = json.loads(path.read_text())
        data["believed_status"] = "maybe"
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(PersistenceError, match="believed_status"):
            EpisodicStore(path=str(path))

    def test_purge_truncates_file_and_resets_sequence(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "x")
        store.purge()
        assert len(store) == 0
        assert path.read_text() == ""
        assert store.add("fresh start", "succeeded", "x") == "mem-000001"

    def test_memoryless_store_has_no_file(self):
        store = EpisodicStore()
        assert store.path is None
        store.add("put the mug away", "succeeded", "x")
        assert len(store) == 1


class TestScratchpad:
    def test_append_and_view_joined_by_blank_line(self):
        pad = Scratchpad()
        pad.append("a")
        pad.append("b")
        assert pad.view() == "a\n\nb"
        assert len(pad) == 2
        assert pad.paragraphs == ["a", "b"]

    def test_empty_note_rejected(self):
        pad = Scratchpad()
        with pytest.raises(ValueError, match="empty note"):
            pad.append("   ")
        assert len(pad) == 0

    def test_clear(self):
        pad = Scratchpad()
        pad.append("a")
        pad.clear()
        assert len(pad) == 0
        assert pad.view() == ""


class FakeResponse:
    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        pass

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, payload):
        self.payload = payload
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return FakeResponse(self.payload)


class TestRemoteEmbedder:
    def test_parses_openai_data_shape_and_renormalizes(self):
        session = FakeSession({"data": [{"embedding": [3.0, 4.0, 0.0]}]})
        embedder = RemoteEmbedder("http://api.example", "emb-1", 3, session=session)
        vector = embedder.embed("mug")
        assert vector == pytest.approx([0.6, 0.8, 0.0])
        sent = session.requests[0]
        assert sent["url"] == "http://api.example/embeddings"
        assert sent["json"] == {"model": "emb-1", "input": ["mug"]}

    def test_parses_bare_embedding_shape(self):
        session = FakeSession({"embedding": [1.0, 0.0]})
        embedder = RemoteEmbedder("http://api.example/", "emb-1", 2, session=session)
        assert embedder.embed("mug") == [1.0, 0.0]

    def test_dimension_mismatch_raises(self):
        session = FakeSession({"embedding": [1.0, 0.0]})
        embedder = RemoteEmbedder("http://api.example", "emb-1", 3, session=session)
        with pytest.raises(ValueError, match="dimension mismatch"):
            embedder.embed("mug")

    def test_missing_vector_raises(self):
        session = FakeSession({"data": []})
        embedder = RemoteEmbedder("http://api.example", "emb-1", 2, session=session)
        with pytest.raises(ValueError, match="no embedding vector"):
            embedder.embed("mug")

    def test_bearer_token_from_environment(self, monkeypatch):
        monkeypatch.setenv("HEARTH_API_KEY", "sekrit")
        session = FakeSession({"embedding": [1.0, 0.0]})
        embedder = RemoteEmbedder("http://api.example", "emb-1", 2, session=session)
        embedder.embed("mug")
        headers = session.requests[0]["headers"]
        assert headers["Authorization"] == "Bearer sekrit"

    def test_no_auth_header_without_key(self, monkeypatch):
        monkeypatch.delenv("HEARTH_API_KEY", raising=False)
        session = FakeSession({"embedding": [1.0, 0.0]})
        embedder = RemoteEmbedder("http://api.example", "emb-1", 2, session=session)
        embedder.embed("mug")
        assert "Authorization" not in session.requests[0]["headers"]
