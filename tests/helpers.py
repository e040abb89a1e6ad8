"""Shared builders for randomized test instances."""

import numpy as np

from treesolve import LevelParams, TreeVector, solve
from treesolve.solver import segment_sum


def random_params(tree, block_sizes=1, heads=1, rng=None, coupling=0.3,
                  diag_jitter=0.25):
    """General nonsymmetric blocks kept well conditioned by diagonal dominance."""
    rng = rng or np.random.default_rng()
    if np.isscalar(block_sizes):
        block_sizes = [int(block_sizes)] * tree.depth
    A, B, C = [], [], []
    for l, (n, d) in enumerate(zip(tree.level_sizes, block_sizes)):
        A.append(np.eye(d) + diag_jitter * rng.uniform(-1, 1, (heads, n, d, d)) / d)
        if l < tree.depth - 1:
            d_up = block_sizes[l + 1]
            k = max(tree.split_sizes[l])
            s = coupling / (k * max(d, d_up))
            B.append(rng.uniform(-1, 1, (heads, n, d, d_up)) * s)
            C.append(rng.uniform(-1, 1, (heads, n, d_up, d)) * s)
    return LevelParams(tuple(A), tuple(B), tuple(C))


def random_rhs(tree, block_sizes=1, heads=1, batch=1, right_parts=1, rng=None):
    rng = rng or np.random.default_rng()
    if np.isscalar(block_sizes):
        block_sizes = [int(block_sizes)] * tree.depth
    return TreeVector(tuple(
        rng.standard_normal((batch, heads, n, d, right_parts))
        for n, d in zip(tree.level_sizes, block_sizes)
    ))


def with_nan(v: TreeVector, level: int) -> TreeVector:
    """Copy of ``v`` whose first entry on 0-based ``level`` is NaN."""
    levels = [a.copy() for a in v.levels]
    levels[level].reshape(-1)[0] = np.nan
    return TreeVector(tuple(levels))


def rel_err(got: TreeVector, want: TreeVector) -> float:
    scale = max(want.max_abs(), np.finfo(np.float64).tiny)
    return (got - want).max_abs() / scale


def dot(a: TreeVector, b: TreeVector) -> float:
    return float(sum((x * y).sum() for x, y in zip(a.levels, b.levels)))


def jvp(params, tree, u, x, d_params, d_u):
    """Directional derivative of the solution: dx = T^{-1} (du - dT x)."""
    levels = []
    for l in range(tree.depth):
        t = d_params.A[l] @ x.levels[l]
        if l < tree.depth - 1:
            parent = tree.parent_indices(l)
            t = t + d_params.B[l] @ x.levels[l + 1][:, :, parent]
        if l > 0:
            t = t + segment_sum(d_params.C[l - 1] @ x.levels[l - 1],
                                tree.split_sizes[l - 1], axis=2)
        levels.append(d_u.levels[l] - t)
    return solve(params, tree, TreeVector(tuple(levels)))


def perturbation_like(params, rng):
    return LevelParams(
        tuple(rng.standard_normal(a.shape) for a in params.A),
        tuple(rng.standard_normal(b.shape) for b in params.B),
        tuple(rng.standard_normal(c.shape) for c in params.C),
    )
