import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treesolve import (TreeTopology, build_chain, build_perfect_tree,
                       init_random_stable, read_problem, write_problem)
from helpers import random_rhs, with_nan


def roundtrip(tmp_path, tree, params, u):
    path = tmp_path / "problem.bin"
    write_problem(path, tree, params, u)
    return path, read_problem(path)


def test_roundtrip_bit_exact(tmp_path):
    tree = build_perfect_tree(2, 8)
    params = init_random_stable(tree, 2, heads=2, seed=3, coupling_scale=0.7)
    u = random_rhs(tree, 2, heads=2, batch=2, right_parts=3,
                   rng=np.random.default_rng(0))
    _, (tree2, params2, u2) = roundtrip(tmp_path, tree, params, u)
    assert tree2.level_sizes == tree.level_sizes
    assert tree2.split_sizes == tree.split_sizes
    for got, want in zip(params2.A + params2.B + params2.C,
                         params.A + params.B + params.C):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(u2.levels, u.levels):
        np.testing.assert_array_equal(got, want)


def test_write_is_deterministic(tmp_path):
    tree = build_perfect_tree(4, 16)
    params = init_random_stable(tree, 1, seed=1)
    u = random_rhs(tree, 1, rng=np.random.default_rng(1))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_problem(p1, tree, params, u)
    write_problem(p2, tree, params, u)
    assert p1.read_bytes() == p2.read_bytes()


def test_perfect_tree_uses_compact_header(tmp_path):
    tree = build_perfect_tree(3, 9)
    params = init_random_stable(tree, 1, seed=0)
    u = random_rhs(tree, 1, rng=np.random.default_rng(2))
    path, _ = roundtrip(tmp_path, tree, params, u)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["tree"] == {"arity": 3, "leaf_count": 9}


def test_explicit_tree_header(tmp_path):
    tree = TreeTopology((3, 2, 1), ((2, 1), (2,)))
    params = init_random_stable(tree, 1, seed=0)
    u = random_rhs(tree, 1, rng=np.random.default_rng(3))
    path, (tree2, _, _) = roundtrip(tmp_path, tree, params, u)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["tree"] == {"level_sizes": [3, 2, 1], "split_sizes": [[2, 1], [2]]}
    assert tree2.split_sizes == tree.split_sizes


def test_uniform_explicit_tree_uses_compact_header(tmp_path):
    tree = TreeTopology((9, 3, 1), ((3, 3, 3), (3,)))
    params = init_random_stable(tree, 1, seed=0)
    u = random_rhs(tree, 1, rng=np.random.default_rng(5))
    path, (tree2, _, _) = roundtrip(tmp_path, tree, params, u)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["tree"] == {"arity": 3, "leaf_count": 9}
    assert tree2 == tree


@pytest.mark.parametrize("tree", [
    build_perfect_tree(2, 1),
    build_chain(3),
    TreeTopology((3, 2, 1), ((2, 1), (2,))),
], ids=["single-node", "chain", "irregular"])
def test_non_uniform_trees_use_explicit_header(tmp_path, tree):
    params = init_random_stable(tree, 1, seed=0)
    u = random_rhs(tree, 1, rng=np.random.default_rng(6))
    path, (tree2, _, _) = roundtrip(tmp_path, tree, params, u)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["tree"] == {"level_sizes": list(tree.level_sizes),
                              "split_sizes": [list(g) for g in tree.split_sizes]}
    assert tree2 == tree


def test_compact_single_node_header_still_reads(tmp_path):
    # earlier writers gave a one-node perfect tree the compact header
    header = {"batch": 1, "block_sizes": [2], "format_version": 1, "heads": 1,
              "right_parts": 1, "tree": {"arity": 2, "leaf_count": 1}}
    payload = np.arange(6, dtype="<f8")  # A: (1, 1, 2, 2), u: (1, 1, 1, 2, 1)
    path = tmp_path / "one.bin"
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload.tobytes())
    tree, params, u = read_problem(path)
    assert tree == TreeTopology((1,), ())
    np.testing.assert_array_equal(params.A[0].reshape(-1), [0, 1, 2, 3])
    np.testing.assert_array_equal(u.levels[0].reshape(-1), [4, 5])


def test_truncated_payload_rejected(tmp_path):
    tree = build_perfect_tree(2, 4)
    params = init_random_stable(tree, 1, seed=0)
    u = random_rhs(tree, 1, rng=np.random.default_rng(4))
    path = tmp_path / "problem.bin"
    write_problem(path, tree, params, u)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="floats"):
        read_problem(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not json\n\x00\x00")
    with pytest.raises(ValueError):
        read_problem(path)
    path.write_bytes(json.dumps({"format_version": 99}).encode() + b"\n")
    with pytest.raises(ValueError, match="version"):
        read_problem(path)


def test_deeply_nested_header_rejected(tmp_path):
    # json.loads recurses once per bracket and raises RecursionError, not JSONDecodeError
    path = tmp_path / "nested.bin"
    path.write_bytes(b"[" * 5000 + b"\n")
    with pytest.raises(ValueError, match="^unreadable problem header: "):
        read_problem(path)


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_format_version_must_be_the_integer(tmp_path, version):
    # true and 1.0 compare equal to 1, but only the integer 1 is version 1
    tree = build_perfect_tree(2, 4)
    path, _ = roundtrip(tmp_path, tree, init_random_stable(tree, 1, seed=0),
                        random_rhs(tree, 1, rng=np.random.default_rng(6)))
    header, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header)
    header["format_version"] = version
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match=re.escape(f"unsupported format version {version!r}")):
        read_problem(path)


def test_payload_of_partial_floats_rejected(tmp_path):
    tree = build_perfect_tree(2, 2)  # 10 floats, 80 bytes
    path, _ = roundtrip(tmp_path, tree, init_random_stable(tree, 1, seed=0),
                        random_rhs(tree, 1, rng=np.random.default_rng(6)))
    path.write_bytes(path.read_bytes() + b"abc")
    with pytest.raises(ValueError, match="^payload holds 83 bytes, expected 80$"):
        read_problem(path)


def test_write_rejects_right_part_with_other_heads(tmp_path):
    tree = build_perfect_tree(2, 4)
    params = init_random_stable(tree, 1, heads=2, seed=0)
    u = random_rhs(tree, 1, heads=1, batch=2, rng=np.random.default_rng(5))
    with pytest.raises(ValueError, match="right part heads 1 != parameter heads 2"):
        write_problem(tmp_path / "problem.bin", tree, params, u)


_TREE = build_perfect_tree(2, 4)


@pytest.mark.parametrize("u, fragment", [
    (with_nan(random_rhs(_TREE, 1), 1), "right part level 2 contains non-finite entries"),
    (random_rhs(_TREE, 2), "right part block sizes (2, 2, 2) != parameter blocks (1, 1, 1)"),
], ids=["non-finite", "block-sizes"])
def test_write_checks_right_part_like_the_solver(tmp_path, u, fragment):
    path = tmp_path / "problem.bin"
    with pytest.raises(ValueError, match=re.escape(fragment)):
        write_problem(path, _TREE, init_random_stable(_TREE, 1, seed=0), u)
    assert not path.exists()


def _with_header(path, **changes):
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header.update(changes)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("changes, fragment", [
    ({"block_sizes": [1, 1]}, "expected 3 block sizes, got 2"),
    ({"heads": 0}, "heads must be positive, got 0"),
    ({"heads": 2.9}, "heads must be an integer, got 2.9"),
    ({"heads": "2"}, "heads must be an integer, got '2'"),
    ({"heads": True}, "heads must be an integer, got True"),
    ({"batch": 1e400}, "batch must be an integer, got inf"),
    ({"right_parts": None}, "right_parts must be an integer, got None"),
    ({"block_sizes": [1.7, 1, 1]}, "block size must be an integer, got 1.7"),
    ({"block_sizes": [[1], 1, 1]}, "block size must be an integer, got [1]"),
    ({"block_sizes": [1, -1, 1]}, "block sizes must be positive, got [1, -1, 1]"),
    ({"tree": {"arity": 2.5, "leaf_count": 4}}, "arity must be an integer, got 2.5"),
    ({"tree": {"level_sizes": [4.0, 2, 1], "split_sizes": [[2, 2], [2]]}},
     "level size must be an integer, got 4.0"),
    ({"batch": 0}, "batch must be positive, got 0"),
    ({"right_parts": -1}, "right_parts must be positive, got -1"),
    ({"block_sizes": 2}, "malformed problem header: block_sizes must be a list, got 2"),
], ids=["block-size-count", "zero-heads", "float-heads", "string-heads", "bool-heads",
        "infinite-batch", "null-right-parts", "float-block-size", "ragged-block-sizes",
        "negative-block-size", "float-arity", "float-level-size", "zero-batch",
        "negative-right-parts", "scalar-block-sizes"])
def test_header_errors(tmp_path, changes, fragment):
    tree = build_perfect_tree(2, 4)
    path = tmp_path / "problem.bin"
    write_problem(path, tree, init_random_stable(tree, 1, seed=0),
                  random_rhs(tree, 1, rng=np.random.default_rng(6)))
    _with_header(path, **changes)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        read_problem(path)


def _header_only(path, tree, block_sizes, batch=1, right_parts=1, floats=0):
    header = {"batch": batch, "block_sizes": block_sizes, "format_version": 1, "heads": 1,
              "right_parts": right_parts, "tree": tree}
    path.write_bytes(json.dumps(header).encode() + b"\n" + np.zeros(floats, "<f8").tobytes())


def test_short_payload_refused_before_the_tree_is_built(tmp_path, monkeypatch):
    import treesolve.problem_io as problem_io
    built = []
    monkeypatch.setattr(problem_io, "build_perfect_tree", lambda *a: built.append(a))
    monkeypatch.setattr(problem_io, "TreeTopology", lambda *a: built.append(a))
    path = tmp_path / "huge.bin"
    # 2^24 leaves: building the tree alone would take seconds and hundreds of MB
    _header_only(path, {"arity": 2, "leaf_count": 2 ** 24}, [1] * 25)
    with pytest.raises(ValueError, match="payload holds 0 floats, expected 134217722$"):
        read_problem(path)
    _header_only(path, {"level_sizes": [2 ** 40, 1], "split_sizes": [[2 ** 40]]}, [1, 1])
    with pytest.raises(ValueError, match=f"payload holds 0 floats, expected {2 ** 42 + 2}$"):
        read_problem(path)
    assert built == []


def test_payload_count_is_exact(tmp_path):
    # batch * right_parts = 2^64 wraps to 0 in int64, so 7 floats would have matched
    path = tmp_path / "wide.bin"
    _header_only(path, {"arity": 2, "leaf_count": 2}, [1, 1], batch=2 ** 32,
                 right_parts=2 ** 32, floats=7)
    with pytest.raises(ValueError, match=f"payload holds 7 floats, expected {7 + 3 * 2 ** 64}$"):
        read_problem(path)


_VALID_HEADERS = [
    {"batch": 1, "block_sizes": [1, 1, 1], "format_version": 1, "heads": 1, "right_parts": 1,
     "tree": tree}
    for tree in ({"arity": 2, "leaf_count": 4},
                 {"level_sizes": [4, 2, 1], "split_sizes": [[2, 2], [2]]})
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8,
)


@st.composite
def _fuzzed_headers(draw):
    """A valid 4-leaf header, up to three fields (``tree``'s too) replaced, maybe one dropped."""
    header = json.loads(json.dumps(draw(st.sampled_from(_VALID_HEADERS))))
    fields = [(k,) for k in header] + [("tree", k) for k in header["tree"]]
    for path in draw(st.lists(st.sampled_from(fields), max_size=3)):
        owner = header if len(path) == 1 else header.get("tree")
        if isinstance(owner, dict):
            owner[path[-1]] = draw(_JSON)
    if draw(st.booleans()):
        path = draw(st.sampled_from(fields))
        owner = header if len(path) == 1 else header.get("tree")
        if isinstance(owner, dict):
            owner.pop(path[-1], None)
    return header


@given(_fuzzed_headers(), st.binary(max_size=400))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_file_reads_or_raises_value_error(tmp_path, header, payload):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    try:
        read_problem(path)
    except ValueError:
        pass
