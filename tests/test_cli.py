import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import treesolve
from treesolve import cli, read_problem, solver, write_problem
from treesolve.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           main)
from treesolve.oracle import MAX_DENSE_NODES

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

    @pytest.mark.parametrize("flag,value", [("block-size", 0), ("gamma", "nan"), ("heads", -1),
                                            ("batch", -1), ("rhs", -2)])
    def test_bad_init_is_one_line_error(self, tmp_path, flag, value):
        src = os.path.dirname(os.path.dirname(treesolve.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = gen_args(tmp_path / "p.bin", **{flag: value})
        run = subprocess.run([sys.executable, "-m", "treesolve.cli", *argv],
                             capture_output=True, text=True, env=env)
        assert run.returncode == EXIT_USAGE
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        quantity = {"block-size": "block size", "gamma": "coupling scale"}.get(flag, flag)
        assert quantity in run.stderr


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
        # the writer refuses NaN, so overwrite the payload's last float: level 3's only entry
        path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())
        assert main(["verify", "--in", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "level 3 contains non-finite" in err and err.count("\n") == 1

    def test_fractional_header_count_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "p.bin"
        assert main(gen_args(path, leaves=4, heads=2)) == EXIT_OK
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(header.replace(b'"heads": 2', b'"heads": 2.9') + b"\n" + payload)
        assert main(["verify", "--in", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: heads must be an integer, got 2.9\n"

    def test_overflowing_header_count_is_one_line_error(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b'{"format_version": 1, "tree": {"arity": 2, "leaf_count": 4}, '
                         b'"block_sizes": [1, 1, 1], "heads": 1, "batch": 1e400, '
                         b'"right_parts": 1}\n')
        src = os.path.dirname(os.path.dirname(treesolve.__file__))
        run = subprocess.run([sys.executable, "-m", "treesolve.cli", "verify", "--in", str(path)],
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == EXIT_USAGE
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: batch must be an integer")
        assert run.stderr.count("\n") == 1

    def test_deeply_nested_header_is_one_line_error(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"[" * 5000 + b"\n")
        src = os.path.dirname(os.path.dirname(treesolve.__file__))
        run = subprocess.run([sys.executable, "-m", "treesolve.cli", "verify", "--in", str(path)],
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == EXIT_USAGE
        assert run.stderr.startswith("error: unreadable problem header: ")
        assert run.stderr.count("\n") == 1

    @pytest.mark.parametrize("header, payload, want", [
        # the header asks for 10 floats, 80 bytes; 83 is not a whole number of floats
        ('"block_sizes": [1, 1]', bytes(83), "error: payload holds 83 bytes, expected 80\n"),
        ('"block_sizes": [[1], 1]', bytes(80), "error: block size must be an integer, got [1]\n"),
    ], ids=["truncated-payload", "ragged-block-sizes"])
    def test_unshaped_input_is_one_line_error(self, tmp_path, header, payload, want):
        path = tmp_path / "p.bin"
        path.write_bytes(b'{"format_version": 1, "tree": {"arity": 2, "leaf_count": 2}, '
                         + header.encode() + b', "heads": 1, "batch": 1, "right_parts": 1}\n'
                         + payload)
        src = os.path.dirname(os.path.dirname(treesolve.__file__))
        run = subprocess.run([sys.executable, "-m", "treesolve.cli", "verify", "--in", str(path)],
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == EXIT_USAGE
        assert run.stderr == want

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


    def test_every_repeat_times_a_full_elimination(self, tmp_path, monkeypatch):
        calls = []
        step = solver.upward_step
        monkeypatch.setattr(solver, "upward_step", lambda *a, **k: calls.append(1) or step(*a, **k))
        assert main(["bench", "--arity", "2", "--sizes", "16", "--repeats", "3",
                     "--out", str(tmp_path / "bench.csv")]) == EXIT_OK
        depth = 5  # 16 leaves, 8, 4, 2 and the root
        assert len(calls) == 3 * (depth - 1)


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
    @pytest.mark.parametrize("argv", [
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "-1"],
        ["gradcheck", "--eps", "nan"],
        ["gradcheck", "--eps", "inf"],
        ["gradcheck", "--eps", "0"],
        ["gradcheck", "--tol", "nan"],
        ["gen", "--seed", "-1"],
        ["bench", "--repeats", "0"],
        ["bench", "--seed", "-1"],
        ["verify", "--max-dense", "-3"],
        ["verify", "--max-dense", "0"],
        ["gradcheck", "--max-entries", "-3"],
        ["gradcheck", "--max-entries", "0"],
    ], ids=lambda argv: "-".join(argv))
    def test_bad_flag_is_one_line_error(self, tmp_path, argv):
        problem = tmp_path / "p.bin"
        assert main(gen_args(problem, leaves=4)) == EXIT_OK
        command, flag, value = argv
        if command == "gen":
            full = gen_args(tmp_path / "q.bin", **{flag[2:]: value})
        elif command == "bench":
            full = ["bench", "--arity", "2", "--sizes", "4", flag, value,
                    "--out", str(tmp_path / "b.csv")]
        else:
            full = [command, "--in", str(problem), flag, value]
        src = os.path.dirname(os.path.dirname(treesolve.__file__))
        run = subprocess.run([sys.executable, "-m", "treesolve.cli", *full],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == EXIT_USAGE
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith(f"error: argument {flag}: ")
        assert run.stderr.count("\n") == 1

    # root-only problems: (diagonal, right part, block size, the one stderr line)
    ROOT_ONLY_FAILURES = {
        # finite input whose solution 1.7e308 / 0.5 overflows to inf
        "overflow": (0.5, 1.7e308, 1,
                     "numerical failure: tree solution level 1 overflows to non-finite entries"),
        # a subnormal pivot, which LAPACK inverts to inf or NaN
        "subnormal": (1e-310, 1.0, 2, "numerical failure: singular diagonal block at level 1, "
                                      "node 1, head 1 (pivot step 0)"),
    }

    @pytest.mark.parametrize("command", ["verify", "gradcheck"])
    @pytest.mark.parametrize("problem", ROOT_ONLY_FAILURES)
    def test_numerical_failure_is_one_line_error(self, tmp_path, command, problem):
        from treesolve import LevelParams, TreeVector, build_perfect_tree
        a, u, d, line = self.ROOT_ONLY_FAILURES[problem]
        path = tmp_path / f"{problem}.bin"
        write_problem(path, build_perfect_tree(2, 1),
                      LevelParams((a * np.eye(d)[None, None],), (), ()),
                      TreeVector((np.full((1, 1, 1, d, 1), u),)))
        src = os.path.dirname(os.path.dirname(treesolve.__file__))
        run = subprocess.run([sys.executable, "-m", "treesolve.cli", command, "--in", str(path)],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == EXIT_NUMERICAL
        assert run.stderr == line + "\n"

    def test_unknown_flag(self):
        assert main(["gen", "--bogus", "1"]) == EXIT_USAGE

    def test_missing_file(self):
        assert main(["verify", "--in", "/nonexistent/problem.bin"]) == EXIT_USAGE

    @pytest.mark.parametrize("sizes", ["4,x", "4,0", ","])
    def test_bad_sizes_is_one_line_error(self, tmp_path, sizes):
        src = os.path.dirname(os.path.dirname(treesolve.__file__))
        run = subprocess.run([sys.executable, "-m", "treesolve.cli", "bench", "--arity", "2",
                              "--sizes", sizes, "--out", str(tmp_path / "b.csv")],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == EXIT_USAGE
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: argument --sizes: ")
        assert run.stderr.count("\n") == 1
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 11.9 GiB"), "error: Unable to allocate 11.9 GiB"),
        (MemoryError(), "error: MemoryError"),
    ], ids=["message", "bare"])
    def test_out_of_memory_is_one_line_error(self, tmp_path, capsys, monkeypatch, error, line):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "init_random_stable", exhausted)
        assert main(gen_args(tmp_path / "p.bin")) == EXIT_USAGE
        assert capsys.readouterr().err == line + "\n"

    def test_max_dense_defaults_to_the_oracle_cap(self):
        args = cli._build_parser().parse_args(["verify", "--in", "p.bin"])
        assert args.max_dense == MAX_DENSE_NODES
