"""Direct solver for block tree-structured systems by level elimination.

The system couples each node only with its parent, so Gaussian elimination
can sweep whole BFS levels at once: an upward pass folds every child level
into its parent level via Schur complements, leaving a single root block,
and a downward pass back-substitutes from the root to the leaves.  With the
per-level update

    b_hat_c = -A_c^{-1} B_c          u_hat_c = A_c^{-1} u_c
    A_p    +=  sum_children C_c b_hat_c
    u_p    -=  sum_children C_c u_hat_c

followed by x_c = u_hat_c + b_hat_c x_parent, the whole solve costs O(total
nodes) block operations and 2(D-1)+1 sequential level steps for D levels.
Within a level all (batch, head, node) blocks are independent; parameters
are shared immutably, so concurrent solves are safe.  Each u_hat is read
once, by its level's back-substitution, which writes the solution into
that same fresh buffer: the upward pass hands the downward one a plain
list of arrays, and a solve allocates no separate solution.  With 4 heads
and batch 8, a cached solve's tracemalloc peak is 55.9 MB on a 16384-leaf
quadtree with d = 4 and 1.26 MB on a 1024-node chain.  The sweeps carry no
instrumentation:
:func:`solve_with_stats` computes its operation counters as closed forms
of the shapes.

Factor, then apply.  The inverses, the b_hat blocks and the root's inverse
depend only on the parameters and the tree, so :func:`_factor` builds them
once, on the first solve of a :class:`LevelParams` instance on a tree, with
:func:`upward_step` on every level, and caches them on the instance as one
read-only factor, keyed by the tree and the direction.  ``upward_step(a, B,
C, a_parent, split)`` mirrors ``downward_step(u_hat, b_hat, x_parent,
split)``: both take one level's plain block arrays and its parents', and
the upward one returns the parents' carry diagonal, b_hat and the inverse.
A factor also keeps its system's couplings C, so :func:`upward_sweep`'s one
right-part loop (u_hat and the u_p message) reads nothing else: it is the
same loop on a first call and on every later one, with bit-identical
results.  A transpose factor is eliminated from read-only transposed views
of the parameters (:func:`transpose_params`), so nothing is copied and its
couplings are views of ``params.B``.  The cache holds, per tree and
direction, one inverse and one b_hat block per non-root node: 22 MB per
direction, 45 MB for both, on a 16384-leaf quadtree with 4 heads and d =
4.  It lives as long as the instance.  Concurrent first calls may each build a factor; they store equal
ones.  A singular block anywhere, the root included, raises before anything
is cached, so every call raises it again.

Scalar blocks multiply elementwise.  Every block product goes through
:func:`_block_product`, which multiplies elementwise where the contracted
size is 1, as on every level of a layer with d = 1, instead of making one
BLAS call per block (about 9x faster on a 16384-leaf level).  A one-term
sum is one rounded product on every ``matmul`` path, so results are the
same to the bit, signed zeros included.

Index data from the tree's own counts.  The sweeps read each level's
child counts per parent straight from ``TreeTopology.split_sizes`` and
keep nothing between calls; :func:`_arity` finds the count k > 0 that
every parent of a level shares, if any, in one pass over the counts.  A
level takes one of three paths.  With one child per parent (k = 1), as on
every level of a chain, its segment sums are their input, and
back-substitution and :func:`vjp` use the parent solutions as they are.
With 2 <= k <= 8 it sums its messages by adding the k slices of a
``(parents, k)`` view, in the order ``np.add.reduceat`` adds them
(:func:`segment_sum`), 1.7 to 7.6x faster than ``reduceat`` on the leaf
levels of 16384- and 1024-leaf quadtrees.  Any other level, with unequal
or empty groups or k > 8, uses ``reduceat`` on the counts.  Parent
solutions are repeated with ``np.repeat``, by the scalar k on a level of
equal groups and by the counts on any other.  :func:`vjp` gathers parent
solutions that way, laid out as an index gather would be, straight into
each outer product, so it holds one gather at a time: with 4 heads and
batch 8 its tracemalloc peak is 64.3 MB on a 16384-leaf quadtree with d =
4, 39.3 MB with 1024 leaves and d = 16, 14.0 MB with 16384 leaves and d =
1, and 3.35 MB on a 1024-node chain.  Results are unchanged to the bit.
"""

from typing import NamedTuple, Optional

import numpy as np

from .linalg import invert_level
from .params import BlockGrads, LevelParams, TreeVector
from .topology import TreeTopology

__all__ = ["SolveStats", "solve", "solve_with_stats", "solve_transpose", "upward_step", "vjp"]


class _Factor(NamedTuple):
    """The parameter half of one elimination, cached per instance, tree and direction.

    ``inv[l]`` and ``b_hat[l]`` are non-root level l's carry inverse and
    -inv B, ``C[l]`` the system's coupling of level l into its parent, and
    ``root_inv`` the inverse of the root's carry diagonal.  A right part is
    eliminated with these alone.
    """

    inv: tuple
    b_hat: tuple
    C: tuple
    root_inv: np.ndarray


class SolveStats(NamedTuple):
    """Operation counters for one solve, closed forms of the tree's and the blocks' shapes.

    level_steps counts sequential phases (each upward step, the root solve,
    each downward step).  block_ops counts small-block primitives (inverse,
    multiply), one unit per (batch, head, node) block.
    aux_floats counts the float64 values that carry from the upward pass to
    the downward one: every non-root level's b_hat and u_hat blocks (the
    downward pass then writes the solution into the u_hat buffers).  They
    count the whole elimination, also on a call whose parameter half came
    from the cache.
    """

    level_steps: int
    block_ops: int
    aux_floats: int


def _arity(split) -> Optional[int]:
    """The child count k > 0 that every parent in ``split`` has, or None."""
    split = tuple(split)  # a tuple is itself, so a level's split_sizes entry costs nothing
    k = split[0]
    return k if k > 0 and split.count(k) == len(split) else None


def segment_sum(values: np.ndarray, split, axis: int) -> np.ndarray:
    """Sum contiguous groups of ``split`` along ``axis``; empty groups give 0.

    ``split`` holds the child counts per parent, as in
    ``TreeTopology.split_sizes``.  With one child per parent the sums are
    ``values`` itself.  Where every parent has the same k children, 2 <= k
    <= 8, the groups are slices of a ``(parents, k)`` view, added as ``v0 +
    (((v1 + v2) + v3) + ...)``.  That is the order in which
    ``np.add.reduceat`` sums a group whose tail after the first entry is
    shorter than 8, so the bytes are the same, signed zeros included; from 8
    on it sums the tail pairwise, so larger or unequal groups use
    ``reduceat`` itself.
    """
    k = _arity(split)
    if k == 1:
        return values
    if k is not None and k <= 8:
        axis %= values.ndim
        parts = values.reshape(values.shape[:axis] + (-1, k) + values.shape[axis + 1:])
        part = [parts[(slice(None),) * (axis + 1) + (j,)] for j in range(k)]
        if k == 2:
            return part[0] + part[1]
        tail = part[1] + part[2]
        for p in part[3:]:
            tail += p
        return np.add(part[0], tail, out=tail)
    sizes = np.array(split)
    full = sizes > 0  # reduceat cannot express an empty group
    sums = np.add.reduceat(values, (np.cumsum(sizes) - sizes)[full], axis=axis)
    if full.all():
        return sums
    shape = list(values.shape)
    shape[axis] = len(sizes)
    out = np.zeros(shape, dtype=sums.dtype)
    np.moveaxis(out, axis, 0)[full] = np.moveaxis(sums, axis, 0)
    return out


def _gather_parents(v: np.ndarray, split) -> np.ndarray:
    """Each child's parent entry of a right-part-shaped ``v``; ``v`` itself with one child each.

    The node axis is repeated outermost in memory, as an index gather lays
    it out: :func:`vjp`'s ``einsum`` sums in an order that follows its
    operands' strides, so a C-ordered repeat changes bits when r > 1.
    """
    k = _arity(split)
    if k == 1:
        return v
    return np.moveaxis(np.repeat(np.moveaxis(v, 2, 0), k or split, axis=0), 0, 2)


def _block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over stacks of blocks; scalar blocks multiply elementwise.

    When the contracted size is 1 the product is one rounded multiplication
    on every ``matmul`` path, which also starts its sum from +0.0; ``+= 0.0``
    turns a -0.0 product into +0.0 the same way, so the bytes are equal.
    """
    if a.shape[-1] == 1 == b.shape[-2]:
        out = a * b
        out += 0.0
        return out
    return a @ b


def upward_step(a: np.ndarray, B: np.ndarray, C: np.ndarray, a_parent: np.ndarray, split, *,
                child_level: int):
    """Eliminate one child level's parameter blocks into its parent level.

    ``a`` is the child level's carry diagonal (already Schur-updated by the
    levels below), ``B`` and ``C`` its couplings to and from the parents,
    ``a_parent`` the parents' diagonal, ``split`` the child counts per
    parent, as in ``TreeTopology.split_sizes``, and ``child_level`` the
    child level's 0-based index, for naming a singular block.  Returns the
    parents' carry diagonal a_parent + sum_children C b_hat, the child's
    b_hat = -a^{-1} B and a^{-1}.
    """
    inv = invert_level(a, child_level + 1)
    b_hat = -_block_product(inv, B)
    return a_parent + segment_sum(_block_product(C, b_hat), split, axis=1), b_hat, inv


def downward_step(u_hat: np.ndarray, b_hat: np.ndarray, x_parent: np.ndarray,
                  split) -> np.ndarray:
    """Recover a child level from its parent solutions: x_c = u_hat_c + b_hat_c x_p.

    ``split`` holds the child counts per parent, as in
    ``TreeTopology.split_sizes``.  x_c is written into ``u_hat`` and
    returned, so ``u_hat`` must be a buffer that nothing else reads.
    """
    k = _arity(split)
    x_up = x_parent if k == 1 else np.repeat(x_parent, k or split, axis=2)
    return np.add(u_hat, _block_product(b_hat, x_up), out=u_hat)


def _factor(params: LevelParams, tree: TreeTopology, transposed: bool) -> _Factor:
    """The factor of ``params`` on ``tree`` in one direction; the first call builds it."""
    factor = params._factors.get((tree, transposed))
    if factor is not None:
        return factor
    A, B, C = transpose_params(params) if transposed else (params.A, params.B, params.C)
    a, b_hats, invs = A[0], [], []
    for l in range(1, tree.depth):
        a, b_hat, inv = upward_step(a, B[l - 1], C[l - 1], A[l], tree.split_sizes[l - 1],
                                    child_level=l - 1)
        b_hats.append(b_hat)
        invs.append(inv)
    factor = _Factor(tuple(invs), tuple(b_hats), C, invert_level(a, tree.depth))
    for m in (*invs, *b_hats, factor.root_inv):
        m.setflags(write=False)  # every later solve shares them
    params._factors[(tree, transposed)] = factor
    return factor


def upward_sweep(params: LevelParams, tree: TreeTopology, u: TreeVector, *,
                 transposed: bool = False):
    """Eliminate every level's right part into its parent, leaf to root.

    ``transposed`` selects the transposed system.  The parameter half comes
    from :func:`_factor`; only the right part is eliminated here.  Returns
    the factor and a list of each non-root level's u_hat, then the root's
    carry right part.  Every u_hat is a fresh array; the root entry is
    ``u.levels[0]`` itself on a one-level tree.
    """
    params.check_vector(tree, u)
    factor = _factor(params, tree, transposed)
    levels = [u.levels[0]]
    for l in range(1, tree.depth):
        levels[-1] = u_hat = _block_product(factor.inv[l - 1], levels[-1])
        levels.append(u.levels[l] - segment_sum(_block_product(factor.C[l - 1], u_hat),
                                                tree.split_sizes[l - 1], axis=2))
    return factor, levels


def downward_sweep(factor: _Factor, levels: list, tree: TreeTopology) -> TreeVector:
    """Solve the root system and back-substitute down to the leaves.

    ``levels`` is :func:`upward_sweep`'s list; each u_hat in it is
    overwritten with its level's solution, which is returned.
    """
    levels[-1] = _block_product(factor.root_inv, levels[-1])
    for l in range(tree.depth - 2, -1, -1):
        levels[l] = downward_step(levels[l], factor.b_hat[l], levels[l + 1], tree.split_sizes[l])
    return TreeVector(tuple(levels))


def solve(params: LevelParams, tree: TreeTopology, u: TreeVector) -> TreeVector:
    """Solve the block tree system for ``u``; returns x shaped like ``u``.

    Raises :class:`SingularBlockError` (naming the 1-based level and node)
    when a diagonal pivot block degenerates during elimination.
    """
    return downward_sweep(*upward_sweep(params, tree, u), tree)


def solve_with_stats(params: LevelParams, tree: TreeTopology, u: TreeVector):
    """Like :func:`solve`, also returning operation counters.

    They are closed forms of the shapes.  Each non-root level takes an
    upward and a downward step: three block ops per parameter block
    (inverse, b_hat, A message) and per right-part block (u_hat, u message,
    back-substitution).  The root adds an inverse and a product.  A level
    l keeps b_hat (d_l x d_{l+1}) and u_hat (d_l x r per batch entry) per
    node and head.
    """
    x = solve(params, tree, u)
    n, d = tree.level_sizes, u.block_sizes
    return x, SolveStats(
        level_steps=2 * (tree.depth - 1) + 1,
        block_ops=u.heads * (1 + u.batch) * (3 * tree.total_nodes - 2),
        aux_floats=sum(u.heads * n[l] * d[l] * (d[l + 1] + u.batch * u.right_parts)
                       for l in range(tree.depth - 1)),
    )


def transpose_params(params: LevelParams) -> tuple:
    """Blocks (A, B, C) of the transposed system: A -> A^T and B/C swap transposed.

    They are read-only views of ``params``'s blocks, laid out as a copy in
    ``LevelParams`` would be, so results are the same to the bit.
    """
    return tuple(tuple(m.swapaxes(-1, -2) for m in blocks)
                 for blocks in (params.A, params.C, params.B))


def solve_transpose(params: LevelParams, tree: TreeTopology, g: TreeVector) -> TreeVector:
    """Solve the transposed system for a cotangent-shaped right part g.

    Its factor is cached on ``params`` beside the system's own.
    """
    return downward_sweep(*upward_sweep(params, tree, g, transposed=True), tree)


def vjp(params: LevelParams, tree: TreeTopology, u: TreeVector, x: TreeVector,
        g: TreeVector):
    """Pull a cotangent of the solution back onto the right part and every block.

    Given x = solve(params, tree, u) and g = dL/dx, one transpose solve gives
    y = dL/du; the block cotangents are minus the outer products of y's block
    row with x's block column, summed over batch and right-part columns:
    dL/dA_v = -y_v x_v^T, dL/dB_v = -y_v x_{parent}^T, dL/dC_v = -y_{parent} x_v^T.
    u and x are checked like right parts.  g must match u's batch and right
    parts; x must match g's right parts, with g's batch or batch 1 (one x
    shared by every g).
    Nothing is recomputed beyond the single transpose solve, which checks g.
    """
    params.check_vector(tree, u)
    params.check_vector(tree, x, "solution")
    u_shape, x_shape, g_shape = ((v.batch, v.right_parts) for v in (u, x, g))
    if g_shape != u_shape or x_shape[1] != g_shape[1] or x_shape[0] not in (1, g_shape[0]):
        raise ValueError(f"(batch, right parts): cotangent {g_shape} must equal right "
                         f"part {u_shape}, solution {x_shape} must match it or have batch 1")
    y = solve_transpose(params, tree, g)
    grad_A, grad_B, grad_C = [], [], []
    for l in range(tree.depth):
        grad_A.append(-np.einsum("bhnir,bhnjr->hnij", y.levels[l], x.levels[l]))
        if l < tree.depth - 1:  # each parent gather is freed before the next is made
            split = tree.split_sizes[l]
            grad_B.append(-np.einsum("bhnir,bhnjr->hnij", y.levels[l],
                                     _gather_parents(x.levels[l + 1], split)))
            grad_C.append(-np.einsum("bhnir,bhnjr->hnij",
                                     _gather_parents(y.levels[l + 1], split), x.levels[l]))
    return y, BlockGrads(tuple(grad_A), tuple(grad_B), tuple(grad_C))
