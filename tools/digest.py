"""Print a SHA-256 digest of the solver's default outputs, one per group, then their total.

Run from a checkout's root with that checkout's package on the path:

    PYTHONPATH=src python tools/digest.py

Each group is one call on one system; its digest covers every output
array's dtype, shape and bytes, in order.  On each system the calls are
``solve`` and ``solve_transpose`` on a factor miss and on a hit, ``vjp``
with the batch-8 (or batch-2) solution and with a batch-1 one, and
``solve_with_stats`` with its three counters; on perfect trees and the
image also ``layer.forward`` and ``build_input`` under both virtual-node
policies and ``aggregate_topk`` of the top 1 and 2 levels.  The systems are
the four benchmark workloads' full-size shapes (4 heads, batch 8); the
small trees of ``tests/test_split.py`` at block sizes 1, 2, 4 and 16, one to
three right parts, and 4 and 5 heads; 9-ary, 16-ary, branching and 7-chain
trees, the childless tree at sizes (2, 1, 3, 2) and a seeded irregular tree
of about 4000 leaves, with ``init_random_stable`` blocks of seeds 0 and 1;
and all-zero right parts,
negated diagonals and zero couplings.  Further groups hold
``init_random_stable``'s blocks, the chain workload's ``ssm_to_chain``
system and ``bidirectional_chain_forward``, ``write_problem``'s file bytes
and ``read_problem``'s arrays, and ``finite_diff_grad`` on a tiny problem.

No digest is stored as an expected value, because another BLAS may round
differently.  Compare two runs on one machine instead: the same script run
against two checkouts' packages, or this checkout unpinned and under
``taskset -c 0``, where no level step splits over heads.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np

import treesolve
from treesolve import (LayerConfig, LevelParams, TreeTopology, TreeVector, aggregate_topk,
                       build_chain, build_perfect_tree, build_quadtree, finite_diff_grad, forward,
                       init_random_stable, read_problem, solve, solve_transpose, solve_with_stats,
                       ssm_to_chain, vjp, write_problem)
from treesolve.layer import bidirectional_chain_forward, build_input
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
    x, stats = solve_with_stats(params, tree, u)
    yield f"{name} solve_with_stats", _arrays(x) + [np.array(stats)]


def forward_groups(name, tree, params, leaf):
    for policy in ("zeros", "mean"):
        config = LayerConfig(tree, params.block_sizes, params.heads, policy)
        x = forward(config, LevelParams(params.A, params.B, params.C), leaf)
        yield f"{name} forward {policy}", _arrays(x)
        yield f"{name} build_input {policy}", _arrays(build_input(config, leaf))
        for top in (1, 2):
            config = LayerConfig(tree, params.block_sizes, params.heads, policy, top)
            yield f"{name} aggregate_topk {policy} top-{top}", [aggregate_topk(x, config)]


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


MIXED = TreeTopology((3, 2, 1), ((2, 1), (2,)))  # block sizes (1, 3, 2): B and C differ in shape
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
    cases += [("mixed-1-3-2", MIXED, (1, 3, 2), r, heads, 0)
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


def _irregular_tree(seed: int, leaves: int = 4000) -> TreeTopology:
    """Grown from the root: 0 to 7 children per node, then about ``leaves`` leaves in all."""
    rng = np.random.default_rng(seed)
    level_sizes, split_sizes = [1], []
    while True:
        n = level_sizes[0]
        last = 8 * n > leaves  # the leaf level: leaves / n children per node on average
        groups = rng.integers(0, 2 * leaves // n + 1 if last else 8, n)
        groups[0] = max(groups[0], 1)  # the new level is never empty
        split_sizes.insert(0, tuple(int(k) for k in groups))
        level_sizes.insert(0, int(groups.sum()))
        if last:
            return TreeTopology(tuple(level_sizes), tuple(split_sizes))


TREES = {
    "perfect-9x81": lambda: build_perfect_tree(9, 81),  # groups of 9 sum by reduceat
    "perfect-16x256": lambda: build_perfect_tree(16, 256),
    "branching": lambda: TreeTopology((6, 3, 3, 2, 2, 1),
                                      ((2, 1, 3), (1, 1, 1), (2, 1), (1, 1), (2,))),
    "chain-7": lambda: build_chain(7),
    "irregular-4000": lambda: _irregular_tree(0),
}


def tree_groups():
    """More trees and a mixed-size one, with ``init_random_stable`` blocks of seeds 0 and 1."""
    cases = [(name, make(), d) for name, make in TREES.items() for d in (1, 2, 4)]
    cases.append(("childless", SMALL_TREES["childless"](), (2, 1, 3, 2)))
    for name, tree, d in cases:
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for r in (1, 3):  # a new instance each time, so each "miss" misses
                params = init_random_stable(tree, d, HEADS, seed, COUPLING)
                u, g = (_vector(rng, tree, params.block_sizes, HEADS, 2, r) for _ in range(2))
                yield from system_groups(f"{name}/d={d}/r={r}/seed={seed}", tree, params, u, g)


def special_groups():
    """All-zero right parts, negated diagonals and zero couplings, on nonsymmetric blocks."""
    for name, tree, d in (("perfect-4x16", build_perfect_tree(4, 16), 1),
                          ("perfect-4x16", build_perfect_tree(4, 16), 4),
                          ("mixed-1-3-2", MIXED, (1, 3, 2))):
        rng = np.random.default_rng(0)
        sizes = [d] * tree.depth if np.isscalar(d) else list(d)
        p = _nonsymmetric(rng, tree, sizes, HEADS)
        u, g = (_vector(rng, tree, sizes, HEADS, 2, 2) for _ in range(2))
        zero = TreeVector(tuple(np.zeros_like(a) for a in u.levels))
        label = f"{name}/d={d}"
        yield from system_groups(f"{label}/zero-right-part", tree, p, zero, g)
        yield from system_groups(f"{label}/negated-diagonal", tree,
                                 LevelParams(tuple(-a for a in p.A), p.B, p.C), u, g)
        zeros = lambda blocks: tuple(np.zeros_like(b) for b in blocks)
        yield from system_groups(f"{label}/zero-coupling", tree,
                                 LevelParams(p.A, zeros(p.B), zeros(p.C)), u, g)


def init_groups():
    """``init_random_stable``'s blocks at d = 1, 4 and 16 and at sizes (1, 3, 2)."""
    for name, tree, d in (*(("perfect-4x16", build_perfect_tree(4, 16), d) for d in (1, 4, 16)),
                          ("mixed-1-3-2", MIXED, (1, 3, 2))):
        for seed in (0, 1):
            p = init_random_stable(tree, d, HEADS, seed, COUPLING)
            yield f"init_random_stable {name}/d={d}/seed={seed}", _arrays((p.A, p.B, p.C))


def chain_groups():
    """The chain workload's shape (1024 levels, d = 4), built as treebench's set-up builds it."""
    n, d = 1024, 4
    tree = build_chain(n)
    rng = np.random.default_rng([0, 3])
    q, _ = np.linalg.qr(rng.standard_normal((n - 1, d, d)))
    ssm = ssm_to_chain(0.5 * q, np.eye(d) + 0.1 / np.sqrt(d) * rng.standard_normal((n, d, d)))
    yield "chain-d4 ssm_to_chain", _arrays((ssm.A, ssm.B, ssm.C))
    u = np.random.default_rng([0, 4]).standard_normal((n, d, 2))
    yield "chain-d4 ssm_to_chain solve", _arrays(
        solve(ssm, tree, TreeVector(tuple(u[k][None, None, None] for k in range(n)))))
    params = init_random_stable(tree, d, HEADS, 0, COUPLING)
    u = _vector(np.random.default_rng(0), tree, params.block_sizes, HEADS, BATCH, 1)
    yield "chain-d4 bidirectional_chain_forward", _arrays(bidirectional_chain_forward(params, u))


def problem_groups():
    """``write_problem``'s file bytes and ``read_problem``'s arrays; ``finite_diff_grad``."""
    for name, tree, d in (("perfect-4x16", build_perfect_tree(4, 16), 2),
                          ("mixed-1-3-2", MIXED, (1, 3, 2))):
        rng = np.random.default_rng(0)
        sizes = [d] * tree.depth if np.isscalar(d) else list(d)
        params = _nonsymmetric(rng, tree, sizes, 2)
        u = _vector(rng, tree, sizes, 2, 2, 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "problem.bin")
            write_problem(path, tree, params, u)
            with open(path, "rb") as f:
                yield f"{name} write_problem", [np.frombuffer(f.read(), np.uint8)]
            _, read, v = read_problem(path)
        yield f"{name} read_problem", _arrays((read.A, read.B, read.C, v))
    tree = build_perfect_tree(2, 2)
    rng = np.random.default_rng(0)
    params = _nonsymmetric(rng, tree, [2, 2], 1)
    w = _vector(rng, tree, [2, 2], 1, 1, 2)
    loss = lambda x: float(sum(np.sum(a * b) for a, b in zip(x.levels, w.levels)))
    yield "perfect-2x2 finite_diff_grad", _arrays(
        finite_diff_grad(params, tree, _vector(rng, tree, [2, 2], 1, 1, 2), loss))


def main() -> None:
    print(f"treesolve from {treesolve.__file__}", file=sys.stderr)
    digests = {}
    for groups in (workload_groups(), small_groups(), tree_groups(), special_groups(),
                   init_groups(), chain_groups(), problem_groups()):
        for name, arrays in groups:
            if name in digests:
                raise ValueError(f"two groups named {name!r}")
            digests[name] = digest(arrays)
            print(f"{digests[name]}  {name}")
    print(f"{total(digests)}  total of {len(digests)} groups")


if __name__ == "__main__":
    main()
