import csv
import json

import numpy as np
import pytest

from treesolve import TreeVector, read_problem, write_problem
from treesolve.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           main)

MORTON_4x4 = {
    (0, 0): 1, (1, 0): 2, (2, 0): 5, (3, 0): 6,
    (0, 1): 3, (1, 1): 4, (2, 1): 7, (3, 1): 8,
    (0, 2): 9, (1, 2): 10, (2, 2): 13, (3, 2): 14,
    (0, 3): 11, (1, 3): 12, (2, 3): 15, (3, 3): 16,
}
SNAKE_4x4 = {
    (0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
    (0, 1): 8, (1, 1): 7, (2, 1): 6, (3, 1): 5,
    (0, 2): 9, (1, 2): 10, (2, 2): 11, (3, 2): 12,
    (0, 3): 16, (1, 3): 15, (2, 3): 14, (3, 3): 13,
}


def gen_args(out, **over):
    args = {"arity": 2, "leaves": 8, "block-size": 1, "heads": 1, "batch": 1,
            "rhs": 1, "gamma": 0.5, "seed": 1}
    args.update(over)
    argv = ["gen"]
    for k, v in args.items():
        argv += [f"--{k}", str(v)]
    return argv + ["--out", str(out)]


def read_map(path):
    out = {}
    for line in path.read_text().splitlines():
        x, y, idx = line.split()
        out[(int(x), int(y))] = int(idx)
    return out


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(gen_args(a)) == EXIT_OK
        assert main(gen_args(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_gamma_zero_solves_to_input(self, tmp_path, capsys):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, gamma=0.0)) == EXIT_OK
        assert main(["verify", "--in", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        # identity system: both routes return u bit for bit
        assert "discrepancy vs dense solve: 0.000e+00" in out and "PASS" in out

    def test_invalid_power_fails(self, tmp_path):
        assert main(gen_args(tmp_path / "p.bin", leaves=10, arity=3)) == EXIT_USAGE


class TestVerify:
    def test_random_tree_passes_default_tolerance(self, tmp_path):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=128, **{"block-size": 2}, heads=2)) == EXIT_OK
        assert main(["verify", "--in", str(path), "--tol", "1e-10"]) == EXIT_OK

    def test_singular_block_exit_code(self, tmp_path, capsys):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=4)) == EXIT_OK
        tree, params, u = read_problem(path)
        a = [x.copy() for x in params.A]
        a[0][0, 2] = 0.0  # leaf blocks are factored as-is, so this must trip
        from treesolve import LevelParams
        write_problem(path, tree, LevelParams(tuple(a), params.B, params.C), u)
        assert main(["verify", "--in", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "level 1, node 3" in err

    @pytest.mark.parametrize("header, missing", [
        ({"format_version": 1, "block_sizes": [1], "heads": 1, "batch": 1,
          "right_parts": 1}, "'tree'"),
        ([1, {"tree": {}}], "JSON object"),
        ({"format_version": 1, "tree": {}, "block_sizes": [1], "heads": 1, "batch": 1,
          "right_parts": 1}, "'level_sizes'"),
    ])
    def test_malformed_header_is_usage_error(self, tmp_path, capsys, header, missing):
        path = tmp_path / "p.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        assert main(["verify", "--in", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed problem header:") and missing in err
        assert err.count("\n") == 1

    def test_nan_right_part_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=4)) == EXIT_OK
        tree, params, u = read_problem(path)
        levels = [v.copy() for v in u.levels]
        levels[2][0, 0, 0, 0, 0] = np.nan
        write_problem(path, tree, params, TreeVector(tuple(levels)))
        assert main(["verify", "--in", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "level 3 contains non-finite" in err and err.count("\n") == 1

    def test_over_dense_cap_is_usage_error(self, tmp_path):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=16)) == EXIT_OK
        assert main(["verify", "--in", str(path), "--max-dense", "8"]) == EXIT_USAGE

    def test_impossible_tolerance_fails_verification(self, tmp_path):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=64)) == EXIT_OK
        assert main(["verify", "--in", str(path), "--tol", "1e-30"]) == EXIT_VERIFY


class TestBench:
    def test_level_steps_column(self, tmp_path):
        out = tmp_path / "bench.csv"
        sizes = "4,16,64,256,1024"
        assert main(["bench", "--arity", "4", "--sizes", sizes,
                     "--repeats", "1", "--out", str(out)]) == EXIT_OK
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert [int(r["L"]) for r in rows] == [4, 16, 64, 256, 1024]
        assert [int(r["level_steps"]) for r in rows] == [3, 5, 7, 9, 11]

    def test_single_node(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--arity", "2", "--sizes", "1",
                     "--repeats", "1", "--out", str(out)]) == EXIT_OK
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert int(rows[0]["level_steps"]) == 1

    def test_block_ops_double_with_size(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--arity", "2", "--sizes", "64,128,256",
                     "--repeats", "1", "--out", str(out)]) == EXIT_OK
        with open(out) as f:
            ops = [int(r["block_op_count"]) for r in csv.DictReader(f)]
        for small, big in zip(ops, ops[1:]):
            assert 1.8 <= big / small <= 2.2


class TestFlatten:
    def test_morton_map_matches_reference(self, tmp_path):
        out = tmp_path / "map.txt"
        assert main(["flatten", "--height", "4", "--width", "4",
                     "--order", "morton", "--out", str(out)]) == EXIT_OK
        assert read_map(out) == MORTON_4x4

    def test_snake_map_matches_reference(self, tmp_path):
        out = tmp_path / "map.txt"
        assert main(["flatten", "--height", "4", "--width", "4",
                     "--order", "snake", "--out", str(out)]) == EXIT_OK
        assert read_map(out) == SNAKE_4x4

    def test_single_pixel(self, tmp_path):
        out = tmp_path / "map.txt"
        assert main(["flatten", "--height", "1", "--width", "1",
                     "--order", "morton", "--out", str(out)]) == EXIT_OK
        assert out.read_text().strip() == "0 0 1"

    def test_morton_rejects_nonsquare(self, tmp_path):
        assert main(["flatten", "--height", "4", "--width", "8",
                     "--order", "morton", "--out", str(tmp_path / "m.txt")]) == EXIT_USAGE

    def test_snake_accepts_rectangles(self, tmp_path):
        out = tmp_path / "map.txt"
        assert main(["flatten", "--height", "2", "--width", "3",
                     "--order", "snake", "--out", str(out)]) == EXIT_OK
        assert read_map(out) == {(0, 0): 1, (1, 0): 2, (2, 0): 3,
                                 (0, 1): 6, (1, 1): 5, (2, 1): 4}


class TestGradcheck:
    def test_random_small_tree_passes(self, tmp_path):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=4, gamma=0.6, seed=5)) == EXIT_OK
        assert main(["gradcheck", "--in", str(path)]) == EXIT_OK

    def test_identity_system_is_exact(self, tmp_path, capsys):
        # identity system, zero right part: d(sum x)/du is exactly all ones
        # and every parameter cotangent is exactly zero, so the finite
        # differences agree bit for bit
        path = tmp_path / "p.bin"
        from treesolve import TreeVector, build_perfect_tree, init_random_stable
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 1, seed=0, coupling_scale=0.0)
        u = TreeVector.zeros(tree, params.block_sizes)
        write_problem(path, tree, params, u)
        assert main(["gradcheck", "--in", str(path)]) == EXIT_OK
        assert "0.000e+00" in capsys.readouterr().out

    def test_gross_step_fails(self, tmp_path):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=8, gamma=0.9, seed=2)) == EXIT_OK
        assert main(["gradcheck", "--in", str(path), "--eps", "1.0"]) == EXIT_VERIFY

    def test_entry_guard(self, tmp_path, capsys):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=4096)) == EXIT_OK
        assert main(["gradcheck", "--in", str(path)]) == EXIT_USAGE
        assert "cap" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag(self):
        assert main(["gen", "--bogus", "1"]) == EXIT_USAGE

    def test_missing_file(self):
        assert main(["verify", "--in", "/nonexistent/problem.bin"]) == EXIT_USAGE
