"""Print a SHA-256 digest of the solver's default outputs, one per group, then their total.

Run from a checkout's root with that checkout's package on the path:

    PYTHONPATH=src python tools/digest.py

Each group is one call on one system; its digest covers every output
array's dtype, shape and bytes, in order.  The calls are ``solve`` and
``solve_transpose`` on a factor miss and on a hit, ``vjp`` with the batch-8
(or batch-2) solution and with a batch-1 one, and ``layer.forward`` under
both virtual-node policies.  The systems are the four benchmark workloads'
full-size shapes (4 heads, batch 8) and the small trees of
``tests/test_split.py`` at block sizes 1, 2, 4 and 16, one to three right
parts, and 4 and 5 heads.

No digest is stored as an expected value, because another BLAS may round
differently.  Compare two runs on one machine instead: the same script run
against two checkouts' packages, or this checkout unpinned and under
``taskset -c 0``, where no level step splits over heads.
"""

import hashlib
import sys

import numpy as np

import treesolve
from treesolve import (LayerConfig, LevelParams, TreeTopology, TreeVector, build_chain,
                       build_perfect_tree, build_quadtree, forward, init_random_stable, solve,
                       solve_transpose, vjp)
from treesolve.topology import GridShape

HEADS, BATCH, COUPLING = 4, 8, 0.9  # the benchmark's set-up


def digest(arrays) -> str:
    """SHA-256 over each array's dtype, shape and C-ordered bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def total(digests: dict) -> str:
    """One digest over every group's name and digest, in order."""
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in digests.items()).encode()).hexdigest()


def _arrays(result) -> list:
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, TreeVector):
        return list(result.levels)
    return [a for part in result for a in _arrays(part)]


def _vector(rng, tree, sizes, heads, batch, r, zero_below=0) -> TreeVector:
    return TreeVector(tuple(rng.standard_normal((batch, heads, n, d, r)) * (l >= zero_below)
                            for l, (n, d) in enumerate(zip(tree.level_sizes, sizes))))


def _nonsymmetric(rng, tree, sizes, heads) -> LevelParams:
    """General blocks kept well conditioned by diagonal dominance."""
    A, B, C = [], [], []
    for l, (n, d) in enumerate(zip(tree.level_sizes, sizes)):
        A.append(np.eye(d) + 0.25 * rng.uniform(-1, 1, (heads, n, d, d)) / d)
        if l < tree.depth - 1:
            d_up = sizes[l + 1]
            s = 0.3 / (max(tree.split_sizes[l]) * max(d, d_up))
            B.append(rng.uniform(-1, 1, (heads, n, d, d_up)) * s)
            C.append(rng.uniform(-1, 1, (heads, n, d_up, d)) * s)
    return LevelParams(tuple(A), tuple(B), tuple(C))


def system_groups(name, tree, params, u, g):
    """(group name, output arrays) for every call on one system; ``params`` has no factor yet."""
    x = solve(params, tree, u)
    x1 = _vector(np.random.default_rng(1), tree, params.block_sizes, u.heads, 1, u.right_parts)
    fresh = LevelParams(params.A, params.B, params.C)
    yield f"{name} solve miss", _arrays(x)
    yield f"{name} solve hit", _arrays(solve(params, tree, u))
    yield f"{name} solve_transpose miss", _arrays(solve_transpose(params, tree, g))
    yield f"{name} solve_transpose hit", _arrays(solve_transpose(params, tree, g))
    yield f"{name} vjp batch-{u.batch} miss", _arrays(vjp(fresh, tree, u, x, g))
    yield f"{name} vjp batch-{u.batch} hit", _arrays(vjp(params, tree, u, x, g))
    yield f"{name} vjp batch-1", _arrays(vjp(params, tree, u, x1, g))


def forward_groups(name, tree, params, leaf):
    for policy in ("zeros", "mean"):
        config = LayerConfig(tree, params.block_sizes, params.heads, policy)
        yield f"{name} forward {policy}", _arrays(
            forward(config, LevelParams(params.A, params.B, params.C), leaf))


def workload_groups():
    """The four benchmark workloads' full-size shapes, with ``init_random_stable`` blocks."""
    for name, tree, d in (("quadtree-d4", build_perfect_tree(4, 4 ** 7), 4),
                          ("quadtree-d16", build_perfect_tree(4, 4 ** 5), 16),
                          ("chain-d4", build_chain(1024), 4),
                          ("image-train-d1", build_quadtree(GridShape(128, 128)), 1)):
        rng = np.random.default_rng(0)
        params = init_random_stable(tree, d, HEADS, 0, COUPLING)
        sizes = params.block_sizes
        u, g = (_vector(rng, tree, sizes, HEADS, BATCH, 1) for _ in range(2))
        yield from system_groups(name, tree, params, u, g)
        if name == "image-train-d1":
            leaf = rng.standard_normal((BATCH, tree.level_sizes[0], d))
            yield from forward_groups(name, tree, params, leaf)


SMALL_TREES = {
    "perfect-4x16": lambda: build_perfect_tree(4, 16),
    "perfect-4x64": lambda: build_perfect_tree(4, 64),
    "perfect-2x16": lambda: build_perfect_tree(2, 16),
    "childless": lambda: TreeTopology((5, 3, 3, 1), ((2, 0, 3), (1, 1, 1), (3,))),
    "chain-9": lambda: build_chain(9),
    "root-only": lambda: build_perfect_tree(2, 1),
}


def small_groups():
    """The small trees of the head-split tests, nonsymmetric blocks, batch 2."""
    cases = [(name, make(), d, r, heads, 0) for name, make in SMALL_TREES.items()
             for d in (1, 2, 4, 16) for r in (1, 2, 3) for heads in (4, 5)]
    cases += [("mixed-1-3-2", TreeTopology((3, 2, 1), ((2, 1), (2,))), (1, 3, 2), r, heads, 0)
              for r in (1, 2, 3) for heads in (4, 5)]
    cases += [("perfect-4x64", build_perfect_tree(4, 64), 2, 2, heads, zero)
              for zero in (1, 2, 3) for heads in (4, 5)]
    for seed, (name, tree, d, r, heads, zero) in enumerate(cases):
        rng = np.random.default_rng(seed)
        sizes = [d] * tree.depth if np.isscalar(d) else list(d)
        params = _nonsymmetric(rng, tree, sizes, heads)
        u, g = (_vector(rng, tree, sizes, heads, 2, r, zero) for _ in range(2))
        label = f"{name}/d={d}/r={r}/heads={heads}" + (f"/zero-below={zero}" if zero else "")
        yield from system_groups(label, tree, params, u, g)
        if name.startswith("perfect") and r == 1 and not zero:
            yield from forward_groups(label, tree, params,
                                      rng.standard_normal((2, tree.level_sizes[0], sizes[0])))


def main() -> None:
    print(f"treesolve from {treesolve.__file__}", file=sys.stderr)
    digests = {}
    for groups in (workload_groups(), small_groups()):
        for name, arrays in groups:
            digests[name] = digest(arrays)
            print(f"{digests[name]}  {name}")
    print(f"{total(digests)}  total of {len(digests)} groups")


if __name__ == "__main__":
    main()
