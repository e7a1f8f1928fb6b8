"""README examples: every documented import resolves, the first
library-use snippet and the replay snippet run as shown, and the tool
failure section names exactly the documented causes."""

import importlib
import pathlib
import re

import pytest

from hearth.cli import main

from .oracles import DOCUMENTED_CAUSES

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
IMPORT_LINE = re.compile(r"^from (hearth[\w.]*) import (.+)$", re.MULTILINE)


def readme_text():
    return README.read_text(encoding="utf-8")


def readme_imports():
    return [
        (module, name.strip())
        for module, names in IMPORT_LINE.findall(readme_text())
        for name in names.split(",")
    ]


def test_readme_has_import_lines():
    modules = {module for module, _ in readme_imports()}
    assert {"hearth.agent", "hearth.harness", "hearth.rpc"} <= modules


@pytest.mark.parametrize("module, name", readme_imports())
def test_readme_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def library_snippets():
    section = readme_text().split("## Library use", 1)[1]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_first_library_use_snippet_runs(capsys):
    exec(compile(library_snippets()[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "end_task succeeded True\n"


def test_replay_snippet_runs(tmp_path, capsys):
    """The replay snippet, its path pointed at a transcript just recorded."""
    snippet = next(s for s in library_snippets() if "replay_transcript(" in s)
    assert main(["run", "--task", "t1", "--backend", "scripted:optimal",
                 "--output-dir", str(tmp_path)]) == 0
    path = str(tmp_path / "run_t1.jsonl")
    snippet, count = re.subn(r'read_jsonl\("[^"]*"\)', f"read_jsonl({path!r})", snippet)
    assert count == 1
    capsys.readouterr()
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out == "30 14 end_task\nreplay ok\n"


def test_failure_section_names_every_documented_cause():
    """Every documented cause is in the section, backticked, and every
    hyphenated keyword there is a cause (`occupied` has no hyphen)."""
    section = readme_text().split("## Tool failures", 1)[1].split("\n## ", 1)[0]
    words = set(re.findall(r"`([a-z]+(?:-[a-z]+)*)`", section))
    assert {word for word in words if "-" in word} <= DOCUMENTED_CAUSES <= words
