"""tools/digest.py: a one-ulp change to one output changes its group's digest and the total."""

import importlib.util
from pathlib import Path

import numpy as np

from treesolve import build_perfect_tree, init_random_stable

from helpers import random_rhs

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def _digests(groups):
    return {name: digest.digest(arrays) for name, arrays in groups}


def test_one_ulp_flips_only_its_group():
    tree = build_perfect_tree(4, 16)
    rng = np.random.default_rng(0)
    u, g = (random_rhs(tree, 2, heads=4, batch=2, right_parts=2, rng=rng) for _ in range(2))
    groups = list(digest.system_groups("small", tree, init_random_stable(tree, 2, 4), u, g))
    assert len(groups) == 8
    _assert_flips_only(groups, 0)  # a solution level
    _assert_flips_only(groups, 6)  # a block gradient
    _assert_flips_only(groups, 7, lambda a: a + 1)  # a solve_with_stats counter


def test_one_ulp_flips_only_its_layer_group():
    tree = build_perfect_tree(4, 16)
    leaf = np.random.default_rng(0).standard_normal((2, 16, 2))
    groups = list(digest.forward_groups("small", tree, init_random_stable(tree, 2, 4), leaf))
    assert len(groups) == 8
    for k in range(len(groups)):  # forward, build_input and aggregate_topk outputs
        _assert_flips_only(groups, k)


def _assert_flips_only(groups, k, change=lambda a: np.nextafter(a, np.inf)):
    """A change to the first entry of group ``k``'s last array flips its digest and the total."""
    want = _digests(groups)
    assert len(set(want.values())) > 1
    arrays = [a.copy() for a in groups[k][1]]
    a = arrays[-1]
    a.flat[0] = change(a.flat[0])
    got = _digests(groups[:k] + [(groups[k][0], arrays)] + groups[k + 1:])
    assert [name for name in want if got[name] != want[name]] == [groups[k][0]]
    assert digest.total(got) != digest.total(want)


def test_layout_does_not_change_a_digest():
    a = np.arange(12.0).reshape(3, 4)
    assert digest.digest([a]) == digest.digest([np.asfortranarray(a)])
    assert digest.digest([a]) != digest.digest([a.reshape(4, 3)])
    assert digest.digest([a]) != digest.digest([a.astype(np.float32)])
