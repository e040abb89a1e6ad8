"""The README's library quick start runs, and uses only the exported names."""

import re
from pathlib import Path

import treesolve

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    exec(compile(_quick_start(), str(README), "exec"), {})


def test_quick_start_uses_only_exported_names():
    used = set(re.findall(r"\bts\.(\w+)", _quick_start()))
    assert used
    assert used <= set(treesolve.__all__), sorted(used - set(treesolve.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in treesolve.__all__ if not hasattr(treesolve, name)]
    assert not missing
