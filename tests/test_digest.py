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
    want = _digests(groups)
    assert len(groups) == 7 and len(set(want.values())) > 1
    for k in (0, len(groups) - 1):  # a solution level, and a block gradient
        arrays = [a.copy() for a in groups[k][1]]
        a = arrays[-1]
        a.flat[0] = np.nextafter(a.flat[0], np.inf)
        got = _digests(groups[:k] + [(groups[k][0], arrays)] + groups[k + 1:])
        assert [name for name in want if got[name] != want[name]] == [groups[k][0]]
        assert digest.total(got) != digest.total(want)


def test_layout_does_not_change_a_digest():
    a = np.arange(12.0).reshape(3, 4)
    assert digest.digest([a]) == digest.digest([np.asfortranarray(a)])
    assert digest.digest([a]) != digest.digest([a.reshape(4, 3)])
    assert digest.digest([a]) != digest.digest([a.astype(np.float32)])
