"""Memory layer: hashed embeddings, episodic store vs oracle, scratchpad."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearth.memory.embedding import EMBEDDING_DIM, HashedEmbedder, tokenize
from hearth.memory.episodic import EpisodicStore, PersistenceError
from hearth.memory.scratchpad import Scratchpad

from .oracles import (
    brute_force_search,
    cosine,
    dense_embed,
    dense_record_line,
    dense_search,
)

VOCAB = [
    "mug", "cube", "box", "shelf", "table", "kitchen", "living", "room",
    "move", "grab", "place", "swap", "clean", "find", "put", "away",
]


# Texts for the differential tests: any text, text without a token, and
# sentences over VOCAB so that searches hit.
TEXTS = st.one_of(
    st.text(max_size=60),
    st.sampled_from(["", " ", "!!!", "?!... --- ***", "-", "..."]),
    st.lists(st.sampled_from(VOCAB), max_size=8).map(" ".join),
)


STORE_FIELDS = {
    "id", "task_description", "believed_status", "action_summary", "created_at", "model_id",
}


def norm(vector):
    return math.sqrt(sum(v * v for v in vector))


def text_line(record):
    """The dense store's line for a record, without its embedding."""
    data = json.loads(dense_record_line(record))
    del data["embedding"]
    return json.dumps(data, sort_keys=True) + "\n"


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
        assert len(HashedEmbedder().embed("mug")) == EMBEDDING_DIM == 256

    def test_deterministic_across_instances(self):
        a = HashedEmbedder().embed("swap the mug and the cube")
        b = HashedEmbedder().embed("swap the mug and the cube")
        assert a == b

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_every_embedding_has_unit_norm(self, text):
        vector = HashedEmbedder().embed(text)
        assert norm(vector) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text_maps_to_first_basis_vector(self):
        vector = HashedEmbedder().embed("")
        assert vector[0] == 1.0
        assert all(v == 0.0 for v in vector[1:])
        assert HashedEmbedder().embed("!!!") == vector

    def test_insensitive_to_case_and_punctuation(self):
        assert HashedEmbedder().embed("Mug, Cube!") == HashedEmbedder().embed("mug cube")

    def test_sensitive_to_token_multiplicity(self):
        assert HashedEmbedder().embed("mug mug cube") != HashedEmbedder().embed("mug cube")

    def test_identical_text_has_similarity_one(self):
        text = "put the mug, the box, and the cube away on the shelf"
        sim = cosine(HashedEmbedder().embed(text), HashedEmbedder().embed(text))
        assert sim == pytest.approx(1.0, abs=1e-9)

    def test_related_text_outranks_unrelated(self):
        query = HashedEmbedder().embed("swap the mug and the cube on the shelf")
        related = HashedEmbedder().embed("mug cube swap")
        unrelated = HashedEmbedder().embed("water the garden plants every evening")
        assert cosine(query, related) > cosine(query, unrelated)


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
                store.records, HashedEmbedder().embed(query), k=k, floor=floor
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
        good = path.read_text()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(PersistenceError, match=r"corrupt record at .*:2"):
            EpisodicStore(path=str(path))
        # Fields the loader reads as text must be strings, or the line is
        # corrupt; the embedder never sees them.
        for field, value, error in [
            ("id", ["mem-000002"], "id must be a string, not list"),
            ("task_description", 7, "task_description must be a string, not int"),
            ("action_summary", None, "action_summary must be a string, not NoneType"),
            ("model_id", {"m": 1}, "model_id must be a string, not dict"),
        ]:
            bad = {**json.loads(good), "id": "mem-000002", "created_at": 2, field: value}
            path.write_text(good + json.dumps(bad) + "\n")
            with pytest.raises(PersistenceError) as info:
                EpisodicStore(path=str(path))
            assert str(info.value) == f"corrupt record at {path}:2: {error}"

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

    def test_add_never_mints_an_id_the_store_has(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "x")
        store.add("swap the mug and cube", "failed", "y")
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"mem-000002"', '"mem-000003"')
        path.write_text("".join(lines))
        added = EpisodicStore(path=str(path)).add("stack the boxes", "succeeded", "z")
        assert added == "mem-000004"
        reloaded = EpisodicStore(path=str(path))
        assert [r.id for r in reloaded.records] == ["mem-000001", "mem-000003", "mem-000004"]
        assert [r.created_at for r in reloaded.records] == [1, 2, 4]

    @pytest.mark.parametrize(
        "embedding",
        [
            [2.0] + [0.0] * (EMBEDDING_DIM - 1),
            [None] + [0.0] * (EMBEDDING_DIM - 1),
            [""] + [0.0] * (EMBEDDING_DIM - 1),
            [1.0, "abc"] + [0.0] * (EMBEDDING_DIM - 2),
            [0.0, [], None, "x"] + [1.0] * (EMBEDDING_DIM - 4),
            ["1.0"] + [0] * (EMBEDDING_DIM - 1),
            [True, False] + [0.0] * (EMBEDDING_DIM - 2),
            5,
            {"a": 1.0},
        ],
        ids=["non-unit", "none", "empty-string", "word", "first-bad-wins",
             "numeric-string", "booleans", "not-a-list", "object"],
    )
    def test_old_line_embedding_is_ignored(self, tmp_path, embedding):
        """A line in the first store format carries an embedding; the
        loader neither reads nor checks it, and re-embeds the description."""
        path = tmp_path / "store.jsonl"
        record = {
            "id": "mem-000001",
            "task_description": "put the mug away",
            "believed_status": "succeeded",
            "action_summary": "y",
            "embedding": embedding,
            "created_at": 1,
            "model_id": "m",
        }
        path.write_text(json.dumps(record) + "\n")
        [loaded] = EpisodicStore(path=str(path)).records
        assert loaded.vector == HashedEmbedder().embed_sparse("put the mug away")
        assert loaded.to_dict() == {k: v for k, v in record.items() if k != "embedding"}


class TestDensePath:
    """The sparse store against the dense path it replaced, with `==`."""

    def test_search_equals_dense_path_in_memory_and_reloaded(self, tmp_path):
        """Stores in the text-only format, in the dense store's format with
        embeddings, and in both at once, in memory and reloaded."""
        rng = random.Random(1000)
        for trial in range(40):
            path = str(tmp_path / f"store-{trial}.jsonl")
            store = EpisodicStore(path=path)
            for _ in range(rng.randint(1, 60)):
                words = rng.choices(VOCAB + ["!", "--", "MUG"], k=rng.randint(1, 8))
                store.add(" ".join(words), rng.choice(["succeeded", "failed"]), "s")
            dense_path = str(tmp_path / f"dense-{trial}.jsonl")
            with open(dense_path, "w", encoding="utf-8") as handle:
                handle.writelines(dense_record_line(r) for r in store.records)
            reloaded, dense = EpisodicStore(path=path), EpisodicStore(path=dense_path)
            mixed = EpisodicStore(path=dense_path)
            mixed.add("put the mug away", "failed", "s")
            mixed_reloaded = EpisodicStore(path=dense_path)
            assert reloaded.records == dense.records == store.records
            assert mixed_reloaded.records == mixed.records
            for _ in range(5):
                query = " ".join(rng.choices(VOCAB, k=rng.randint(0, 5)))
                k = rng.randint(1, 8)
                floor = rng.choice([-1.0, 0.0, 0.2, 0.5])
                for searched in (store, reloaded, dense, mixed, mixed_reloaded):
                    want = dense_search(searched.records, query, k, floor)
                    got = searched.search(query, k=k, floor=floor)
                    assert [(r.id, sim) for r, sim in got] == want, f"trial {trial}"

    @given(
        texts=st.lists(TEXTS, min_size=1, max_size=12),
        query=TEXTS,
        floor=st.sampled_from([-1.0, 0.0, 0.2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_search_and_embedding_equal_dense_path(self, texts, query, floor):
        store = EpisodicStore()
        for text in texts:
            if text.strip():
                store.add(text, "succeeded", "s")
        for record in store.records:
            assert json.dumps(record.to_dict(), sort_keys=True) + "\n" == text_line(record)
        assert HashedEmbedder().embed(query) == dense_embed(query)
        got = store.search(query, k=5, floor=floor)
        assert [(r.id, sim) for r, sim in got] == dense_search(store.records, query, 5, floor)

    def test_store_lines_equal_dense_lines(self, tmp_path):
        """Store lines are the dense store's lines without the embedding:
        six text and integer fields, which reload to the same records."""
        rng = random.Random(77)
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        for _ in range(200):
            words = rng.choices(VOCAB + ["", "!!"], k=rng.randint(1, 10))
            text = " ".join(words).strip() or "?"
            store.add(text, rng.choice(["succeeded", "failed"]), "s", "m")
        want = [text_line(record) for record in store.records]
        assert path.read_text().splitlines(keepends=True) == want
        assert all(set(json.loads(line)) == STORE_FIELDS for line in want)
        assert EpisodicStore(path=str(path)).records == store.records


class TestScratchpad:
    def test_append_and_view_joined_by_blank_line(self):
        pad = Scratchpad()
        pad.append("a")
        pad.append("b")
        assert pad.view() == "a\n\nb"
        assert len(pad) == 2

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
