"""Direct solver for block tree-structured systems by level elimination.

Each node couples only with its parent.  The upward pass folds every child
level into its parents, leaf to root,

    b_hat_c = -A_c^{-1} B_c              u_hat_c = A_c^{-1} u_c
    A_p += sum_children C_c b_hat_c      u_p -= sum_children C_c u_hat_c

and the downward pass sets x_c = u_hat_c + b_hat_c x_parent, root to leaf:
2(D-1)+1 sequential level steps for D levels, each over all (batch, head,
node) blocks of its level.  The parameter half is built once per
:class:`LevelParams` instance, tree and direction (:func:`_factor`), and a
solve eliminates only its right part against it.  Parameters and factors
are read-only, so concurrent solves are safe.

A level step's large per-head block products run on ranges of heads at
once, bit for bit a serial run's; :func:`_split` holds the rules.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional

import numpy as np

from .linalg import invert_level
from .params import BlockGrads, LevelParams, TreeVector
from .topology import TreeTopology

__all__ = ["SolveStats", "solve", "solve_with_stats", "solve_transpose", "upward_step", "vjp"]


class _Factor(NamedTuple):
    """The read-only parameter half of one elimination.

    ``inv[l]`` and ``b_hat[l]`` are non-root level l's carry inverse and -inv B,
    ``C[l]`` its coupling into its parent, ``root_inv`` the root's carry inverse.
    """

    inv: tuple
    b_hat: tuple
    C: tuple
    root_inv: np.ndarray


class SolveStats(NamedTuple):
    """Counters of one whole elimination, also when its factor came from the cache.

    level_steps counts sequential phases (upward steps, root solve, downward
    steps); block_ops counts block inverses and products, one per (batch, head,
    node) block; aux_floats counts the float64 values of the non-root levels'
    b_hat and u_hat, which the upward pass hands to the downward one.  The
    all-zero lowest levels that :func:`upward_sweep` skips count in full too.
    """

    level_steps: int
    block_ops: int
    aux_floats: int


# Work (output elements x contracted size) from which a product splits over
# heads.  Measured on two cores, a split back-substitution or outer product
# gained from 2**16 at block size 4 but lost there at sizes 1 and 16, where
# handing a range to the pool costs more than it saves; from 2**18 it gained
# or broke even at all three.
_SPLIT_WORK = 1 << 18


def _cores() -> int:
    """The cores this process may run on now."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool():
    """Make the split's pool, at import and in a forked child; no thread starts until a split."""
    global _pool
    _pool = ThreadPoolExecutor(max(_cores() - 1, 1), thread_name_prefix="treesolve")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _split(kernel, *operands) -> np.ndarray:
    """``kernel(*operands)``, its heads cut into contiguous ranges that run at once.

    In every operand and in the result the head axis is the fourth from the
    end and the node axis the third.  Ranges hold two heads or more, one per
    core: a range of one head would drop the head axis from ``einsum``'s
    iteration, which can change the order in which it sums.  Under four heads
    or on one core ``kernel`` runs whole.  A split writes ``kernel(..., out=)``
    per range into ``np.empty_like`` of the kernel's result on two-node slices
    of the operands: numpy lays out what it allocates, and ``einsum`` orders
    its sum, by its operands' strides and by which axes have length 1, so that
    is the whole call's layout.  The first range runs on this thread, the
    others on the pool.  The cores are read at every call, so an affinity
    change takes effect at the next split.  ``invert_level`` never splits, so
    a singular block is named as on one thread.  Kernels call only numpy:
    they never submit to the pool, so calls from many threads cannot
    deadlock, and no name that a tracer may wrap runs off the calling thread.
    """
    heads = operands[0].shape[-4]
    n = min(_cores(), heads // 2)
    if n < 2:
        return kernel(*operands)
    probe = kernel(*(x[..., :2, :, :] for x in operands))
    out = np.empty_like(probe, shape=probe.shape[:-3] + operands[0].shape[-3:-2]
                        + probe.shape[-2:])

    def run(h0, h1):
        kernel(*(x[..., h0:h1, :, :, :] for x in operands), out=out[..., h0:h1, :, :, :])

    cuts = [heads * i // n for i in range(n + 1)]
    futures = [_pool.submit(run, cuts[i], cuts[i + 1]) for i in range(1, n)]
    try:
        run(cuts[0], cuts[1])
    finally:
        for f in futures:
            f.result()
    return out


def _arity(split) -> Optional[int]:
    """The child count k > 0 that every parent in ``split`` has, or None."""
    split = tuple(split)  # a tuple is itself, so a level's split_sizes entry costs nothing
    k = split[0]
    return k if k > 0 and split.count(k) == len(split) else None


def segment_sum(values: np.ndarray, split, axis: int) -> np.ndarray:
    """Sum contiguous groups of ``split`` along ``axis``; empty groups give 0.

    ``split`` holds the child counts per parent, as in
    ``TreeTopology.split_sizes``.  With one child per parent the result is
    ``values`` itself.  Otherwise the bits are ``np.add.reduceat``'s, signed
    zeros included: equal groups of 2 <= k <= 8 add the slices of a
    ``(parents, k)`` view as ``v0 + (((v1 + v2) + v3) + ...)``, the order
    ``reduceat`` uses there, and any other level calls ``reduceat``.
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

    The node axis is repeated outermost in memory, as an index gather lays it
    out, because :func:`vjp`'s ``einsum`` sums in an order that follows its
    operands' strides: a C-ordered repeat changes bits when r > 1.
    """
    k = _arity(split)
    if k == 1:
        return v
    return np.moveaxis(np.repeat(np.moveaxis(v, 2, 0), k or split, axis=0), 0, 2)


def _block_product(a: np.ndarray, b: np.ndarray, add: Optional[np.ndarray] = None) -> np.ndarray:
    """``a @ b`` over stacks of blocks, to the bit; scalar blocks multiply elementwise.

    With a contracted size of 1, ``matmul`` rounds one product and starts its
    sum from +0.0; ``+= 0.0`` turns a -0.0 product into +0.0 the same way.
    Given ``add``, returns ``add + a @ b``, written over the product.  A
    product whose work reaches ``_SPLIT_WORK`` goes to :func:`_split`; any
    other runs :func:`_product_into`'s body inline, because a chain makes
    thousands of products and a call per product costs time.  For the same
    reason a cheaper test comes first: ``a.size`` bounds ``a.shape[-2]``.
    """
    if a.size * b.size >= _SPLIT_WORK and b.size * a.shape[-2] >= _SPLIT_WORK:
        return _split(_product_into, a, b) if add is None else _split(_product_into, a, b, add)
    if a.shape[-1] == 1 == b.shape[-2]:
        out = a * b
        out += 0.0
    else:
        out = a @ b
    if add is not None:
        np.add(add, out, out=out)
    return out


def _product_into(a: np.ndarray, b: np.ndarray, add: Optional[np.ndarray] = None, *,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`_block_product` on one thread, written into ``out`` if given."""
    if a.shape[-1] == 1 == b.shape[-2]:
        out = np.multiply(a, b, out=out)
        out += 0.0
    else:
        out = np.matmul(a, b, out=out)
    if add is not None:
        np.add(add, out, out=out)
    return out


def _outer(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """-sum over batch and right parts of y x^T per block; large work goes to :func:`_split`.

    As in :func:`_block_product`, ``x.size`` bounds ``x.shape[-2]`` in a cheaper first test.
    """
    if y.size * x.size >= _SPLIT_WORK and y.size * x.shape[-2] >= _SPLIT_WORK:
        return _split(_outer_into, y, x)
    return -np.einsum("bhnir,bhnjr->hnij", y, x)


def _outer_into(y: np.ndarray, x: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`_outer` on one thread, written into ``out`` if given."""
    return np.negative(np.einsum("bhnir,bhnjr->hnij", y, x, out=out), out=out)


def upward_step(a: np.ndarray, B: np.ndarray, C: np.ndarray, a_parent: np.ndarray, split, *,
                child_level: int):
    """Eliminate one child level's parameter blocks into its parent level.

    ``a`` is the child level's carry diagonal, ``B`` and ``C`` its couplings to
    and from the parents, ``a_parent`` the parents' diagonal and ``split`` the
    child counts per parent.  Returns a_parent + sum_children C b_hat, b_hat =
    -a^{-1} B and a^{-1}.  A singular block of ``a`` raises
    :class:`SingularBlockError` naming 1-based level ``child_level + 1``.
    """
    inv = invert_level(a, child_level + 1)
    b_hat = -_block_product(inv, B)
    return a_parent + segment_sum(_block_product(C, b_hat), split, axis=1), b_hat, inv


def downward_step(u_hat: np.ndarray, b_hat: np.ndarray, x_parent: np.ndarray,
                  split) -> np.ndarray:
    """Recover a child level from its parent solutions: x_c = u_hat_c + b_hat_c x_p.

    ``split`` holds the child counts per parent.  x_c is a fresh array, written
    over the product b_hat_c x_p, with the bits of ``u_hat + b_hat_c x_p``; no
    argument is written into.
    """
    k = _arity(split)
    x_up = x_parent if k == 1 else np.repeat(x_parent, k or split, axis=2)
    return _block_product(b_hat, x_up, u_hat)


def _factor(params: LevelParams, tree: TreeTopology, transposed: bool) -> _Factor:
    """The factor of ``params`` on ``tree`` in one direction; the first call builds it.

    It is cached on ``params``, one per tree and direction, for the instance's
    lifetime.  A singular block, the root's included, raises before anything is
    cached.  Concurrent first calls may each build a factor; they store equal ones.
    """
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

    Checks ``u`` with :meth:`LevelParams.check_vector`, then returns the factor
    (transposed if ``transposed``) and a list of every non-root level's u_hat,
    then the root's carry right part.  Elimination starts at the lowest level
    below the root with a nonzero entry.  Each all-zero level under it, whose
    u_hat the full pass would make +0.0, holds the read-only zero view
    ``np.broadcast_to(0.0, level.shape)``; it keeps the level's shape, by which
    treebench charges each :func:`downward_step` to its level.  The carries are
    bit for bit the full pass's, because a level above only +0.0 messages gets
    its own right part minus +0.0, which is that right part.
    The root's carry is ``u.levels[-1]`` itself when no level below the root
    has a nonzero entry, a one-level tree included.
    """
    params.check_vector(tree, u)
    factor = _factor(params, tree, transposed)
    low = 0  # the first entry decides a random level; only a leading 0 reads the rest
    while low < tree.depth - 1 and not (u.levels[low].flat[0] or u.levels[low].any()):
        low += 1
    levels = [np.broadcast_to(0.0, level.shape) for level in u.levels[:low]]
    levels.append(u.levels[low])
    for l in range(low + 1, tree.depth):
        levels[-1] = u_hat = _block_product(factor.inv[l - 1], levels[-1])
        levels.append(u.levels[l] - segment_sum(_block_product(factor.C[l - 1], u_hat),
                                                tree.split_sizes[l - 1], axis=2))
    return factor, levels


def downward_sweep(factor: _Factor, levels: list, tree: TreeTopology) -> TreeVector:
    """Solve the root and back-substitute to the leaves.

    ``levels`` is :func:`upward_sweep`'s list; the solution is returned.  Each
    entry is replaced by its level's solution, which frees its u_hat as soon as
    that level is solved.
    """
    levels[-1] = _block_product(factor.root_inv, levels[-1])
    for l in range(tree.depth - 2, -1, -1):
        levels[l] = downward_step(levels[l], factor.b_hat[l], levels[l + 1], tree.split_sizes[l])
    return TreeVector(tuple(levels))


def solve(params: LevelParams, tree: TreeTopology, u: TreeVector) -> TreeVector:
    """Solve the block tree system for ``u``; returns x shaped like ``u``.

    Raises ValueError when ``u`` does not fit the system, and
    :class:`SingularBlockError`, naming the 1-based level and node, when a
    diagonal pivot block degenerates during elimination.
    """
    return downward_sweep(*upward_sweep(params, tree, u), tree)


def solve_with_stats(params: LevelParams, tree: TreeTopology, u: TreeVector):
    """Like :func:`solve`, also returning its :class:`SolveStats`."""
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

    They are read-only views laid out as a copy in ``LevelParams`` would be, so
    solves give the same bits as on a copy.
    """
    return tuple(tuple(m.swapaxes(-1, -2) for m in blocks)
                 for blocks in (params.A, params.C, params.B))


def solve_transpose(params: LevelParams, tree: TreeTopology, g: TreeVector) -> TreeVector:
    """Solve the transposed system for ``g``; its factor is cached beside the system's own."""
    return downward_sweep(*upward_sweep(params, tree, g, transposed=True), tree)


def vjp(params: LevelParams, tree: TreeTopology, u: TreeVector, x: TreeVector,
        g: TreeVector):
    """Pull a cotangent of the solution back onto the right part and every block.

    Given x = solve(params, tree, u) and g = dL/dx, returns ``(y, grads)``: one
    transpose solve gives y = dL/du, and the :class:`BlockGrads` are minus the
    outer products of y's block row with x's block column, summed over batch
    and right-part columns: dL/dA_v = -y_v x_v^T, dL/dB_v = -y_v x_{parent}^T,
    dL/dC_v = -y_{parent} x_v^T.  u, x and g are checked like right parts;
    ValueError is raised unless g matches u's batch and right parts and x
    matches g's right parts with g's batch or batch 1.
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
        grad_A.append(_outer(y.levels[l], x.levels[l]))
        if l < tree.depth - 1:  # each parent gather is freed before the next is made
            split = tree.split_sizes[l]
            grad_B.append(_outer(y.levels[l], _gather_parents(x.levels[l + 1], split)))
            grad_C.append(_outer(_gather_parents(y.levels[l + 1], split), x.levels[l]))
    return y, BlockGrads(tuple(grad_A), tuple(grad_B), tuple(grad_C))
