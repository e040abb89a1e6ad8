"""The README's quick start runs on exported names, its figures come from BENCH files,
and the package casts to float64 in one place."""

import inspect
import json
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


FIGURE = re.compile(r"[0-9.]+ ?(MB|ms|µs|KB)|[0-9.]+x (faster|slower)")


def _package_lines(pattern):
    src = Path(treesolve.__file__).resolve().parent
    return [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]


def test_no_measured_figure_in_the_package():
    """Measurements live in the BENCH files; a figure in a docstring goes stale."""
    found = _package_lines(FIGURE)
    assert not found, found


FLOAT64_CAST = re.compile(r"np\.(as)?array\(.*dtype=np\.float64")


def test_float64_cast_only_in_the_input_rule():
    """Every outside array becomes float64 through ``topology._float64``, which refuses complex."""
    found = _package_lines(FLOAT64_CAST)
    assert len(found) == 1 and found[0].startswith("topology.py:"), found
    rule = inspect.getsource(treesolve.topology._float64)
    assert FLOAT64_CAST.search(rule), rule


ROW = re.compile(r"\| ([\w-]+) \| (\w+) \| ([0-9.]+) \| (\w+) \| `(BENCH_pr\d+\.json)` \|")


def _measured_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Measured", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")][2:]
    return [ROW.fullmatch(line).groups() for line in table]  # a row in another form fails here


def test_measured_table_quotes_its_bench_files():
    rows = _measured_rows()
    assert rows
    for workload, metric, printed, unit, source in rows:
        path = README.parent / source
        assert path.is_file(), source
        entry = json.loads(path.read_text())["trace0"]["change"]["metrics"][f"{workload}/{metric}"]
        decimals = len(printed.partition(".")[2])
        assert (f"{entry['value']:.{decimals}f}", entry["unit"]) == (printed, unit), \
            (workload, metric, source)
