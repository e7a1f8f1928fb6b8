"""The two digests hearth writes down, pinned apart from the package.

A scenario's `scenario_hash` is in every transcript and baseline, and a
token's blake2b bucket places it in every stored embedding. Both come
from the interpreter's built-in hash modules rather than `hashlib`, so
they are held here to literal values, to `hashlib` itself over drawn
text, and, for sha256, to the `hashlib` fallback taken when neither
built-in module imports."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import hearth
from hearth.memory.embedding import EMBEDDING_DIM, _stable_hash_64
from hearth.world import scenario
from hearth.world.scenario import default_scenario_data, scenario_hash
from hearth.world.state import canonical_json

from .oracles import token_bucket

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hearth.__file__)))
BUNDLED_HASH = "5790be258fbdbd128e98aeb62e49c0350290606d16cfd1531150e92d29c5b377"


def test_bundled_scenario_hash_is_pinned():
    assert scenario_hash(default_scenario_data()) == BUNDLED_HASH


def test_token_buckets_are_pinned():
    buckets = {token: _stable_hash_64(token) % EMBEDDING_DIM for token in ("mug", "shelf", "cube")}
    assert buckets == {"mug": 1, "shelf": 249, "cube": 189}
    assert buckets == {token: token_bucket(token) for token in buckets}


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_digests_equal_hashlibs(text):
    data = text.encode("utf-8")
    assert scenario.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    document = {"note": text}
    assert scenario_hash(document) == hashlib.sha256(
        canonical_json(document).encode("utf-8")
    ).hexdigest()
    assert _stable_hash_64(text) == int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def test_hashlib_fallback_gives_the_same_scenario_hash():
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {SRC!r})",
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None",
        "from hearth.world.scenario import default_scenario_data, scenario_hash",
        "print(scenario_hash(default_scenario_data()), 'hashlib' in sys.modules)",
    ])
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{BUNDLED_HASH} True\n"
