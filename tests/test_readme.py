"""README examples: every documented import resolves, and the first
library-use snippet runs as shown."""

import importlib
import pathlib
import re

import pytest

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


def test_first_library_use_snippet_runs(capsys):
    section = readme_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out == "end_task succeeded True\n"
