"""Checks made apart from the solver.

Nothing here calls the level solver.  The tree operator applies the system
matrix from the stored blocks and the parent index maps in O(N); it gives
the normwise backward error of a solve at any size and the right-hand side
of the adjoint identity that certifies a vjp.  Below the dense oracle's cap
the same outputs are compared against dense LAPACK solves, and the Morton
flattening and the mean virtual inputs have vectorized references.
"""

import numpy as np

from treesolve import oracle
from treesolve.params import LevelParams, TreeVector

# A backward-stable solve leaves an error near machine epsilon; 1e-12 is the
# certification level ROADMAP item 4 sets for verify.
BACKWARD_TOL = 1e-12
# Relative to a bound on the magnitude of either side (see adjoint_gap).
ADJOINT_TOL = 1e-10
# Against a dense LAPACK solve of a well-conditioned small system.
DENSE_TOL = 1e-10
# Central differences with step 1e-5 leave an O(1e-10) truncation error.
FD_STEP, FD_TOL = 1e-5, 1e-6


class TreeMaps:
    """Parent index map and child-group starts of every non-root level."""

    def __init__(self, tree):
        self.depth = tree.depth
        self.parent, self.starts = [], []
        for sizes in tree.split_sizes:
            sizes = np.asarray(sizes, dtype=np.int64)
            if np.any(sizes == 0):
                raise ValueError("the tree operator needs every parent to have a child")
            self.parent.append(np.repeat(np.arange(len(sizes)), sizes))
            self.starts.append(np.concatenate([[0], np.cumsum(sizes)[:-1]]))


def panel(levels):
    """(batch, heads, n, d, r) levels -> (heads, n, d, batch*r) panels.

    One matrix product per block then covers every column, which is several
    times faster than broadcasting the blocks over the batch axis.
    """
    return [np.ascontiguousarray(np.moveaxis(v, 0, 3).reshape(v.shape[1:4] + (-1,)))
            for v in levels]


def apply_blocks(maps, A, B, C, x):
    """Per level of panels, A_v x_v + B_v x_parent(v) + sum over children c of C_c x_c."""
    out = []
    for l in range(maps.depth):
        y = A[l] @ x[l]
        if l + 1 < maps.depth:
            y += B[l] @ x[l + 1][:, maps.parent[l]]
        if l > 0:
            # children of one parent are contiguous, so a reduceat sums each group
            y += np.add.reduceat(C[l - 1] @ x[l - 1], maps.starts[l - 1], axis=1)
        out.append(y)
    return out


def blocks(params, transpose=False):
    """(A, B, C) of the system, or of its transpose: A^T, and B and C swapped transposed."""
    if not transpose:
        return params.A, params.B, params.C
    t = lambda arrs: tuple(a.swapaxes(-1, -2) for a in arrs)
    return t(params.A), t(params.C), t(params.B)


def _inf_norms(levels):
    """Max-norm of each (head, column) vector of a list of panels."""
    return np.max([np.max(np.abs(v), axis=(1, 2)) for v in levels], axis=0)


def matrix_inf_norm(maps, A, B, C):
    """Per-head largest absolute row sum of the matrix: |M| applied to ones."""
    ones = [np.ones(a.shape[:-1] + (1,)) for a in A]
    rows = apply_blocks(maps, *(tuple(np.abs(a) for a in arrs) for arrs in (A, B, C)), ones)
    return _inf_norms(rows)


def backward_error(maps, A, B, C, norm_m, x, u):
    """Normwise backward error ||Mx - u|| / (||M|| ||x|| + ||u||) of the worst column.

    ``x`` and ``u`` are panels; ``norm_m`` is :func:`matrix_inf_norm`'s (heads, 1).
    """
    r = [mx - ul for mx, ul in zip(apply_blocks(maps, A, B, C, x), u)]
    return float(np.max(_inf_norms(r) / (norm_m * _inf_norms(x) + _inf_norms(u))))


def random_direction(rng, params):
    """A random parameter direction delta shaped like the blocks."""
    return tuple(tuple(rng.standard_normal(a.shape) for a in arrs)
                 for arrs in (params.A, params.B, params.C))


def adjoint_gap(maps, grads, delta, x, y):
    """Relative gap in <grads, delta> = -<y, (delta M) x>.

    With x = M^{-1} u and y = M^{-T} g, the derivative of <g, x> along delta
    is -<y, (delta M) x>, which vjp's block gradients must reproduce.  ``x``
    and ``y`` are panels.  The gap is relative to the larger bound on the
    two sides' rounding: the sum of |grad|·|delta|, or ||y|| ||(delta M) x||.
    """
    pairs = [(g, d) for gs, ds in zip(grads, delta) for g, d in zip(gs, ds)]
    lhs = sum(np.vdot(g, d) for g, d in pairs)
    lhs_mag = sum(np.vdot(np.abs(g), np.abs(d)) for g, d in pairs)
    dmx = apply_blocks(maps, *delta, x)
    rhs = -sum(np.vdot(yl, v) for yl, v in zip(y, dmx))
    rhs_mag = np.sqrt(sum(np.vdot(v, v) for v in y) * sum(np.vdot(v, v) for v in dmx))
    return float(abs(lhs - rhs) / max(lhs_mag, rhs_mag))


def rel_gap(a, b):
    """max |a - b| / max |b| over level lists."""
    num = max(float(np.max(np.abs(p - q))) for p, q in zip(a, b))
    return num / max(float(np.max(np.abs(q))) for q in b)


def dense_checks(params, tree, u, g, x, xt, y, grads, delta):
    """Compare one small instance's outputs with the dense oracle.

    Returns {check name: passed}.  x = solve(u), xt = solve_transpose(g),
    (y, grads) = vjp(u, x, g), delta a parameter direction.
    """
    dense = oracle.DenseSystem(params, tree)
    maps = TreeMaps(tree)
    mt = dense.matrix.swapaxes(-1, -2)

    def dense_t_solve(v):
        return dense.unpack(np.linalg.solve(mt, dense.pack(v))).levels

    def loss(p):
        x_p = oracle.DenseSystem(p, tree).solve(u)
        return sum(np.vdot(gl, xl) for gl, xl in zip(g.levels, x_p.levels))

    def shifted(t):
        return LevelParams(*(tuple(a + t * d for a, d in zip(arrs, ds))
                             for arrs, ds in zip(blocks(params), delta)))

    probe = TreeVector(tuple(np.random.default_rng(0).standard_normal(v.shape) for v in u.levels))
    fd = (loss(shifted(FD_STEP)) - loss(shifted(-FD_STEP))) / (2 * FD_STEP)
    ad = sum(np.vdot(gr, d) for gs, ds in zip(grads, delta) for gr, d in zip(gs, ds))
    return {
        "operator_matches_dense": rel_gap(
            apply_blocks(maps, *blocks(params), panel(probe.levels)),
            panel(dense.matvec(probe).levels)) <= DENSE_TOL,
        "transpose_operator_matches_dense": rel_gap(
            apply_blocks(maps, *blocks(params, True), panel(probe.levels)),
            panel(dense.unpack(mt @ dense.pack(probe)).levels)) <= DENSE_TOL,
        "solve_matches_dense": rel_gap(x.levels, dense.solve(u).levels) <= DENSE_TOL,
        "solve_transpose_matches_dense": rel_gap(xt.levels, dense_t_solve(g)) <= DENSE_TOL,
        "vjp_cotangent_matches_dense": rel_gap(y.levels, dense_t_solve(g)) <= DENSE_TOL,
        "vjp_matches_dense_differences": abs(fd - ad) <= FD_TOL * max(abs(fd), 1e-300),
    }


def morton_positions(side):
    """0-based Z-order position of each pixel (row y, column x); x gives the lower bit."""
    y, x = np.indices((side, side), dtype=np.int64)
    code = np.zeros((side, side), dtype=np.int64)
    for bit in range(side.bit_length() - 1):
        code |= ((x >> bit) & 1) << (2 * bit)
        code |= ((y >> bit) & 1) << (2 * bit + 1)
    return code


def morton_flatten(image, positions):
    """(side, side, ...) pixels -> (side*side, ...) sequence in Z order."""
    out = np.empty((positions.size,) + image.shape[2:], dtype=image.dtype)
    out[positions.reshape(-1)] = image.reshape((positions.size,) + image.shape[2:])
    return out


def mean_levels(leaf, heads, depth):
    """Right part of a perfect 4-ary tree: leaves, then the mean of each aligned group.

    ``leaf`` is (batch, leaves, d); level l holds means over contiguous
    groups of 4**l leaves, broadcast over heads with one column.
    """
    batch, n, d = leaf.shape
    levels = []
    for l in range(depth):
        means = leaf.reshape(batch, n // 4 ** l, 4 ** l, d).mean(axis=2)
        levels.append(np.broadcast_to(means[:, None, :, :, None],
                                      (batch, heads, n // 4 ** l, d, 1)))
    return levels


def topk_mean(x_levels, k):
    """Mean over all nodes of the top k BFS levels, computed directly."""
    top = x_levels[len(x_levels) - k:]
    return sum(v.sum(axis=2) for v in top) / sum(v.shape[2] for v in top)
