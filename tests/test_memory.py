"""Memory layer: hashed embeddings, episodic store vs oracle, scratchpad."""

import contextlib
import io
import json
import math
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hearth.memory import embedding
from hearth.memory.embedding import (
    EMBEDDING_DIM,
    HashedEmbedder,
    SparseVector,
    _stable_hash_64,
    embed_sparse,
    tokenize,
)
from hearth.memory.episodic import (
    BELIEVED_STATUSES,
    EpisodicRecord,
    EpisodicStore,
    PersistenceError,
)
from hearth.memory.scratchpad import Scratchpad

from .oracles import (
    brute_force_search,
    cosine,
    dense_embed,
    dense_record_line,
    dense_search,
    json_loads_store_load,
    sparse_dense_embed,
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

    def test_tokens_sharing_a_bucket_are_tallied_together(self):
        """Distinct tokens can share a bucket: their tallies add up there,
        as a repeated token's do. A shortcut that took distinct tokens for
        distinct buckets would give each a tally of one."""
        bucket = _stable_hash_64("clean") % EMBEDDING_DIM
        assert bucket == _stable_hash_64("put") % EMBEDDING_DIM
        for text in ["clean put", "put the mug clean", "put put", "clean put put mug mug",
                     "put", "clean the mug"]:
            assert HashedEmbedder().embed_sparse(text) == sparse_dense_embed(text), text
        assert HashedEmbedder().embed_sparse("clean put") == (
            HashedEmbedder().embed_sparse("put put")
        )

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
            got = store.search(query, k=k)
            expected = brute_force_search(store.records, HashedEmbedder().embed(query), k=k)
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

    def test_records_and_vectors_are_immutable(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        EpisodicStore(path=path).add("put the mug away", "succeeded", "x")
        for store in (EpisodicStore(path=path), EpisodicStore()):
            store.add("swap the mug and cube", "failed", "y")
            for record in store.records:
                for name, value in [("id", "mem-9"), ("created_at", 9), ("vector", None)]:
                    with pytest.raises(AttributeError):
                        setattr(record, name, value)
                for name in ("buckets", "values", "norm"):
                    with pytest.raises(AttributeError):
                        setattr(record.vector, name, (0,))
                assert isinstance(record.vector.buckets, tuple)
                assert isinstance(record.vector.values, tuple)

    def test_mutating_what_is_returned_leaves_later_searches_alone(self):
        store = EpisodicStore()
        for text in ["put the mug away", "put the mug on the shelf", "swap the cube"]:
            store.add(text, "succeeded", "x")
        first = store.search("put the mug away", k=3)
        want = [(record.id, similarity) for record, similarity in first]
        first.reverse()
        first[0] = (EpisodicRecord("mem-9", "mug", "failed", "z",
                                   SparseVector((1,), (1.0,), 1.0), 9, "m"), 1.0)
        records = store.records
        records.clear()
        records.append(first[0][0])
        got = store.search("put the mug away", k=3)
        assert [(record.id, similarity) for record, similarity in got] == want
        assert len(store) == 3


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

    def test_torn_last_line_is_dropped_and_cut(self, tmp_path, capsys):
        """A crash inside `add` leaves a last line with no line end that is
        not whole JSON: the load drops it with a one-line warning and cuts
        the file back, so the next add starts a clean line."""
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        for i in range(3):
            store.add(f"put the mug away round {i}", "succeeded", "x")
        good = path.read_text()
        store.add("swap the mug and cube", "failed", "y")
        line = path.read_text()[len(good):]
        for cut in range(1, len(line) - 1):
            path.write_text(good + line[:cut])
            capsys.readouterr()
            torn = EpisodicStore(path=str(path))
            assert capsys.readouterr().err == (
                f"warning: dropped torn last line at {path}:4\n"
            )
            assert path.read_text() == good
            assert torn.records == store.records[:3]
            assert torn.add("stack the boxes", "succeeded", "z") == "mem-000004"
            reloaded = EpisodicStore(path=str(path))
            assert capsys.readouterr().err == ""
            assert reloaded.records == torn.records
            assert reloaded.records[-1].task_description == "stack the boxes"

    def test_only_a_torn_last_line_is_dropped(self, tmp_path, capsys):
        """Corruption anywhere else stops the load, as does a last line
        that ends its line, or one that is whole JSON but no record."""
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "x")
        good = path.read_text()
        for text, number in [
            (good + '{"id": "mem-0\n' + good, 2),
            (good + '{"id": "mem-0\n', 2),
            (good + "5", 2),
            ('{"id": "mem-0\n' + good.rstrip("\n"), 1),
        ]:
            path.write_text(text)
            with pytest.raises(PersistenceError) as info:
                EpisodicStore(path=str(path))
            assert str(info.value).startswith(f"corrupt record at {path}:{number}: ")
            assert path.read_text() == text
        # A whole last record without its line end is kept as it is.
        path.write_text(good.rstrip("\n"))
        assert EpisodicStore(path=str(path)).records == store.records
        assert path.read_text() == good.rstrip("\n")
        assert capsys.readouterr().err == ""

    def test_whole_last_line_without_line_end_is_ended_by_the_next_add(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = EpisodicStore(path=str(path))
        store.add("put the mug away", "succeeded", "x")
        good = path.read_text()
        path.write_text(good.rstrip("\n"))
        kept = EpisodicStore(path=str(path))
        kept.add("swap the mug and cube", "failed", "y")
        assert path.read_text().startswith(good)
        reloaded = EpisodicStore(path=str(path))
        assert reloaded.records == kept.records
        assert [r.id for r in reloaded.records] == ["mem-000001", "mem-000002"]
        reloaded.add("stack the boxes", "succeeded", "z")
        assert len(path.read_text().splitlines()) == 3

    @pytest.mark.parametrize("created_at", ["7", 7.9, True, None])
    def test_created_at_must_be_an_integer(self, tmp_path, created_at):
        path = tmp_path / "store.jsonl"
        EpisodicStore(path=str(path)).add("put the mug away", "succeeded", "x")
        data = {**json.loads(path.read_text()), "created_at": created_at}
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(PersistenceError) as info:
            EpisodicStore(path=str(path))
        assert str(info.value) == (
            f"corrupt record at {path}:1: created_at must be an integer: {created_at!r}"
        )

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


# Lines a store holds: blank ones and ones that only Python takes for
# whitespace, around a record or alone.
SPACES = ["", " ", "\t", "\x0c", "\xa0", "\u2028", "\x0c\xa0\u2028 "]
# Lines no store writes: JSON that is not an object, NaN, a byte-order
# mark, and a torn record.
ODD_LINES = [
    "NaN", "5", '"s"', "null", "[1, 2]", "{}", "{", '{"id": "mem-0', "]", "\ufeff", "\ufeff{}",
]
# A wrong value for a field: each JSON kind, NaN and a numeric string.
ODD_VALUES = [None, 5, 7.5, True, False, "7", "", [], {}, ["mem-000001"], float("nan")]
# What a record line can hold before its JSON and after it: a byte-order
# mark and trailing extra data.
ODD_AROUND = [("\ufeff", ""), ("", " 5"), ("", "}"), ("", ","), ("", "]"), ("", " {}"),
              ("", "x")]
LINE_ENDS = ["\n", "\n", "\r\n", "\r"]


@st.composite
def record_objects(draw):
    return {
        "id": f"mem-{draw(st.integers(1, 30)):06d}",
        "task_description": draw(st.lists(st.sampled_from(VOCAB + ["MUG", "!"]),
                                          max_size=6).map(" ".join)),
        "believed_status": draw(st.sampled_from(BELIEVED_STATUSES)),
        "action_summary": draw(st.sampled_from(["x", "carried it"])),
        "created_at": draw(st.integers(-3, 40)),
        "model_id": draw(st.sampled_from(["m", "scripted:optimal"])),
    }


@st.composite
def store_lines(draw):
    """One or two lines, each without its line end. Five in six are lines
    a store holds (a record in either format, or a blank line), so that
    many files load."""
    if draw(st.integers(0, 5)):
        kind = draw(st.sampled_from(["text", "text", "dense", "blank"]))
        if kind == "blank":
            return [draw(st.sampled_from(SPACES))]
        data = draw(record_objects())
        if kind == "dense":
            data["embedding"] = dense_embed(data["task_description"])
        around = (draw(st.sampled_from(SPACES)), draw(st.sampled_from(SPACES)))
    else:
        kind = draw(st.sampled_from(["fields", "fields", "odd", "around", "join"]))
        if kind == "odd":
            return [draw(st.sampled_from(ODD_LINES))]
        data = draw(record_objects())
        # One to three faults, so that the first fault the checks meet
        # is not always the only one.
        for fault in draw(st.lists(st.sampled_from(["wrong", "missing", "status"]),
                                   min_size=int(kind == "fields"), max_size=3)):
            if fault == "status":
                data["believed_status"] = draw(st.sampled_from(["maybe", "Succeeded", "x "]))
            elif data and fault == "wrong":
                data[draw(st.sampled_from(sorted(data)))] = draw(st.sampled_from(ODD_VALUES))
            elif data:
                del data[draw(st.sampled_from(sorted(data)))]
        around = draw(st.sampled_from(ODD_AROUND)) if kind == "around" else ("", "")
    text = json.dumps(data, sort_keys=draw(st.booleans()))
    if kind == "join":
        # Two lines that are one JSON array's items once joined with
        # commas, but each line on its own is a record and extra data.
        other = json.dumps(draw(record_objects()))
        return [f'{text}, {other[:-1]}, "x": [{{"b": 1}}', '{"c": 1}]}']
    return [around[0] + text + around[1]]


@st.composite
def store_files(draw):
    """A store file's text: a BOM or not, lines with mixed line ends, and
    a last line that is ended, unended, or cut short."""
    lines = [line for group in draw(st.lists(store_lines(), max_size=8)) for line in group]
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    last = draw(st.sampled_from(["ended", "ended", "unended", "cut"]))
    if lines and last == "unended":
        text = text.rstrip("\r\n")
    elif lines and last == "cut":
        text = text.rstrip("\r\n")
        text = text[:len(text) - draw(st.integers(0, max(0, len(lines[-1]) - 1)))]
    return text


RECORD = (
    '{"action_summary": "x", "believed_status": "failed", "created_at": 1, '
    '"id": "mem-000001", "model_id": "m", "task_description": "put the mug away"}'
)
# The first line ends in a second record's opening part and the second
# line closes it: joined into one array, both lines parse as records.
JOINED = (
    RECORD + ", " + RECORD.replace("000001", "000002")[:-1] + ', "x": [{"b": 1}\n'
    '{"c": 1}]}\n'
)


@pytest.fixture(scope="class")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


class TestLoadDifferential:
    """The store's load against the `json.loads` load it replaced, on
    drawn files: equal records (vectors under `==`), next sequence
    number, unended flag, warning and file bytes after the load, or an
    equal PersistenceError text."""

    @staticmethod
    def outcome(path, text, load):
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                result = load(path)
            except PersistenceError as exc:
                result = str(exc)
        with open(path, "rb") as handle:
            return result, stderr.getvalue(), handle.read()

    @staticmethod
    def store_load(path):
        store = EpisodicStore(path=path)
        return store.records, store._next_seq, store._unended

    @given(text=store_files())
    @example(text=JOINED)
    @example(text=RECORD + " " + RECORD + "\n")
    @example(text="\ufeff" + RECORD + "\n")
    @example(text=RECORD.replace('"created_at": 1', '"created_at": NaN') + "\r\n")
    @example(text="\xa0" + RECORD + "\u2028\r\n\x0c\n" + RECORD[:-9])
    @example(text=RECORD.replace('"id": "mem-000001", "model_id": "m", ', '"id": 5, ') + "\n")
    @settings(max_examples=400, deadline=None)
    def test_load_equals_the_json_loads_load(self, store_dir, text):
        path = os.path.join(store_dir, "store.jsonl")
        got = self.outcome(path, text, self.store_load)
        assert got == self.outcome(path, text, json_loads_store_load)


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
                for searched in (store, reloaded, dense, mixed, mixed_reloaded):
                    want = dense_search(searched.records, query, k)
                    got = searched.search(query, k=k)
                    assert [(r.id, sim) for r, sim in got] == want, f"trial {trial}"

    @given(
        texts=st.lists(TEXTS, min_size=1, max_size=12),
        query=TEXTS,
    )
    @settings(max_examples=150, deadline=None)
    def test_search_and_embedding_equal_dense_path(self, texts, query):
        store = EpisodicStore()
        for text in texts:
            if text.strip():
                store.add(text, "succeeded", "s")
        for record in store.records:
            assert json.dumps(record.to_dict(), sort_keys=True) + "\n" == text_line(record)
        assert HashedEmbedder().embed(query) == dense_embed(query)
        got = store.search(query, k=5)
        assert [(r.id, sim) for r, sim in got] == dense_search(store.records, query, 5)

    def test_float_sums_add_left_to_right(self):
        """Norms and dot products add left to right on every Python, as
        sum() did before 3.12 made it compensated: these sums round to
        other bits when added exactly."""
        vector = embed_sparse("put the cube on put")
        assert vector.norm == 0.9999999999999998
        assert math.sqrt(math.fsum(v * v for v in vector.values)) == 0.9999999999999999
        text = "put the mug, the box, and the cube away on the shelf"
        vector = embed_sparse(text)
        assert math.fsum(v * v for v in vector.values) == 1.0000000000000002
        store = EpisodicStore()
        store.add(text, "succeeded", "s")
        [(_, similarity)] = store.search(text)
        assert similarity == 1.0

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


def shape_of(text):
    """The key of a text's vector in the shape memo: its bucket tallies in
    bucket order, or their count when every tally is 1."""
    buckets = [_stable_hash_64(token) % EMBEDDING_DIM for token in tokenize(text)]
    tallies = tuple(map(buckets.count, sorted(set(buckets))))
    return len(tallies) if set(tallies) == {1} else tallies


class TestBucketMemo:
    """The token-to-bucket and shape memos against the dense oracle, with
    `==`: cold, warm, through evictions, and for tokens too long and
    shapes too wide to keep."""

    LONG = ["x" * (embedding._MEMO_TOKEN_MAX + 1), "mug" * 40, "a1" * 17]
    # Over _SHAPE_MAX distinct buckets, once with every tally 1 and once
    # with some tallies above 1.
    WIDE = [" ".join(f"w{i}" for i in range(60)), " ".join(f"w{i} w{i}" for i in range(60))]

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.setattr(embedding, "_MEMO", {})
        monkeypatch.setattr(embedding, "_SHAPES", {})

    @staticmethod
    def width(shape):
        return shape if type(shape) is int else len(shape)

    def texts(self, seed, count=150):
        rng = random.Random(seed)
        words = VOCAB + self.LONG + [f"w{i}" for i in range(60)] + ["!", "MUG"]
        return [" ".join(rng.choices(words, k=rng.randint(0, 14))) for _ in range(count)]

    def check(self, texts, tmp_path=None):
        """Every embedding equals the oracle's, and so does every search of
        a store of the texts, in memory and, with a path, reloaded."""
        embedder = HashedEmbedder()
        path = None if tmp_path is None else str(tmp_path / "store.jsonl")
        store = EpisodicStore(path=path)
        for text in texts:
            want = sparse_dense_embed(text)
            assert embedder.embed_sparse(text) == want, text
            assert len(embedding._MEMO) <= embedding._MEMO_CAP
            assert len(embedding._SHAPES) <= embedding._SHAPES_CAP
            if tokenize(text) and shape_of(text) in embedding._SHAPES:
                assert embedding._SHAPES[shape_of(text)] == want[1:], text
            if text.strip():
                store.add(text, "succeeded", "s")
        stores = [store]
        if tmp_path is not None:
            embedding._MEMO.clear()
            stores.append(EpisodicStore(path=path))
            assert stores[1].records == store.records
        rng = random.Random(len(texts))
        for query in rng.sample(texts, 25):
            want = dense_search(store.records, query, 5)
            for searched in stores:
                got = searched.search(query, k=5)
                assert [(r.id, sim) for r, sim in got] == want
        for token, bucket in embedding._MEMO.items():
            assert bucket == _stable_hash_64(token) % EMBEDDING_DIM
        assert all(self.width(shape) <= embedding._SHAPE_MAX for shape in embedding._SHAPES)

    def test_cold_and_warm(self, tmp_path):
        texts = self.texts(1)
        self.check(texts, tmp_path)
        assert set(embedding._MEMO) == {
            t for text in texts for t in tokenize(text) if t not in self.LONG
        }
        assert set(embedding._SHAPES) == {shape_of(text) for text in texts if tokenize(text)}
        assert any(type(shape) is int for shape in embedding._SHAPES)
        assert any(type(shape) is tuple for shape in embedding._SHAPES)
        self.check(texts)

    def test_evictions_keep_results_and_the_cap(self, monkeypatch, tmp_path):
        monkeypatch.setattr(embedding, "_MEMO_CAP", 7)
        monkeypatch.setattr(embedding, "_SHAPES_CAP", 5)
        self.check(self.texts(2), tmp_path)
        self.check(self.texts(3))

    def test_wide_shapes_are_embedded_but_not_kept(self):
        assert all(self.width(shape_of(text)) > embedding._SHAPE_MAX for text in self.WIDE)
        texts = [*self.WIDE, *self.texts(5)]
        self.check(texts)
        self.check(texts)
        assert not {shape_of(text) for text in self.WIDE} & set(embedding._SHAPES)

    def test_long_tokens_are_embedded_but_not_kept(self):
        texts = [" ".join(self.LONG), *self.texts(4)]
        self.check(texts)
        self.check(texts)
        assert not set(self.LONG) & set(embedding._MEMO)
        assert max(map(len, embedding._MEMO)) <= embedding._MEMO_TOKEN_MAX


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
