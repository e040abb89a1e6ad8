"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest treebench -q

Every workload and check path runs at tiny sizes, traced and untraced, and
each check is shown to catch the fault it exists for.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treesolve import params, solver, topology  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_checks_every_call(name, trace):
    result = workloads.run(name, seed=3, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and all(result["fixed_checks"].values())
    assert result["failed"] == 0 and result["attempted"] >= 3
    if trace:
        assert result["not_hit"] == []
        assert list(result["metrics"]) == [m for m, _, _ in tracing.LAYER_METRICS]
    else:
        assert list(result["metrics"]) == [m for m, _ in workloads.END_TO_END]
        assert all(value > 0 for value, _ in result["metrics"].values())


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, u) for m, u, _ in tracing.LAYER_METRICS]


def _small_system():
    tree = topology.build_perfect_tree(4, 16)
    p = params.init_random_stable(tree, 2, workloads.HEADS, seed=5, coupling_scale=0.9)
    rng = np.random.default_rng(5)
    u, g = (workloads.random_vector(rng, tree, 2) for _ in range(2))
    x = solver.solve(p, tree, u)
    maps = checks.TreeMaps(tree)
    return p, tree, maps, workloads.norms(maps, p), u, g, x


def test_perturbed_solution_is_detected():
    p, tree, maps, norm, u, _, x = _small_system()
    assert workloads.solved(maps, p, norm, x, u)
    bad = [v.copy() for v in x.levels]
    bad[1][0, 0, 0, 0, 0] *= 1 + 1e-8
    assert not workloads.solved(maps, p, norm, params.TreeVector(tuple(bad)), u)


def test_perturbed_gradient_is_detected():
    p, tree, maps, norm, u, g, x = _small_system()
    y, grads = solver.vjp(p, tree, u, x, g)
    delta = checks.random_direction(np.random.default_rng(0), p)
    assert workloads.vjp_ok(delta, maps, p, norm, x, g, y, grads)
    bad = grads._replace(B=(grads.B[0] * (1 + 1e-6),) + grads.B[1:])
    assert not workloads.vjp_ok(delta, maps, p, norm, x, g, y, bad)


def test_wrong_morton_map_is_detected():
    image = np.random.default_rng(0).standard_normal((8, 8, 2))
    positions = checks.morton_positions(8)
    assert np.array_equal(topology.flatten_image(image, "morton"),
                          checks.morton_flatten(image, positions))
    assert not np.array_equal(topology.flatten_image(image, "snake"),
                              checks.morton_flatten(image, positions))
    swapped = positions.copy()
    swapped[0, 1], swapped[1, 0] = swapped[1, 0], swapped[0, 1]
    assert not np.array_equal(topology.flatten_image(image, "morton"),
                              checks.morton_flatten(image, swapped))


def _run(cwd, *args):
    return subprocess.run([sys.executable, "treebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_one_result_last():
    out = _run(ROOT, "--workload", "quadtree-d16", "--seed", "1", "--seconds", "0",
               "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "treebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "chain-d4", "--seed", "0", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
