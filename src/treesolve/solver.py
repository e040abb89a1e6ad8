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
are shared immutably, so concurrent solves are safe.  The sweeps carry no
instrumentation: :func:`solve_with_stats` reads its operation counters off
the elimination state the upward pass retains.

Factor once, apply many.  The inverses, the b_hat blocks and the root's
carry diagonal depend only on the parameters and the tree, so the first
solve of a :class:`LevelParams` instance on a tree caches them on the
instance, keyed by the tree.  Later solves replay only the right part
(u_hat, the u_p message, the root solve and the downward pass) with the
same expressions, so their results are bit-identical to a first call's.
:func:`solve_transpose` and :func:`vjp` cache the transposed parameters on
the instance too, so they reuse one transposed factor.  The cache holds,
per tree and direction, one inverse and one b_hat block per non-root node
(22 MB per direction on a 16384-leaf quadtree with 4 heads and d = 4), plus
one transposed copy of the parameters (34 MB there); it lives as long as
the instance.  Concurrent first calls may each build a factor; they store
equal ones.  A singular block below the root caches nothing; a singular
root is met by the downward pass, so every call raises it again.

Index data once per tree.  Each :class:`TreeTopology` instance computes its
levels' child groups (sizes, ``reduceat`` starts, non-empty mask and parent
indices) on first use and keeps them, so a sweep only reads them.  A level
on which every parent has exactly one child is the shared marker
``ONE_CHILD`` and costs no index work at all: its segment sums are their
input, back-substitution uses the parent solutions without ``np.repeat``,
and :func:`vjp` skips the parent gather.  Results are unchanged to the bit.
The data costs one shared reference per one-child level (8 KB for a
1024-level chain) and, per branching level, 16 bytes per parent and 8 per
child (262 KB for a 16384-leaf quadtree).
"""

from typing import NamedTuple, Optional

import numpy as np

from .linalg import invert_level
from .params import BlockGrads, LevelParams, TreeVector
from .topology import ONE_CHILD, ChildGroups, TreeTopology

__all__ = ["LevelData", "SolveStats", "solve", "solve_with_stats", "solve_transpose",
           "upward_step", "vjp"]


class LevelData(NamedTuple):
    """Working data of one level during the sweeps; B/C are None at the root."""

    A: np.ndarray
    B: Optional[np.ndarray]
    C: Optional[np.ndarray]
    u: np.ndarray


class SolveState(NamedTuple):
    """Everything the upward pass retains for back-substitution.

    ``u_hat[l]`` and ``b_hat[l]`` hold, for each non-root level l, the
    modified right parts A_c^{-1} u_c and couplings -A_c^{-1} B_c, where A_c
    is the level's carry diagonal (already Schur-updated by the levels
    below).  ``root_matrix``/``root_rhs`` are the final carry: the root
    system left after every other level has been eliminated.
    """

    u_hat: tuple
    b_hat: tuple
    root_matrix: np.ndarray
    root_rhs: np.ndarray


class _Factor(NamedTuple):
    """The parameter half of one elimination, cached per instance and tree.

    ``inv[l]`` and ``b_hat[l]`` are non-root level l's carry inverse and
    -inv B; ``root_matrix`` is the root's carry diagonal.
    """

    inv: tuple
    b_hat: tuple
    root_matrix: np.ndarray


# the key of the transposed parameters in a LevelParams instance's cache
_TRANSPOSE = "transpose"


class SolveStats(NamedTuple):
    """Operation counters for one solve.

    level_steps counts sequential phases (each upward step, the root solve,
    each downward step).  block_ops counts small-block primitives (inverse,
    multiply), one unit per (batch, head, node) block.
    aux_floats counts float64 values retained between the passes.
    They count the whole elimination, also on a call whose parameter half
    came from the cache.
    """

    level_steps: int
    block_ops: int
    aux_floats: int


def segment_sum(values: np.ndarray, sizes, axis: int) -> np.ndarray:
    """Sum contiguous groups of ``sizes`` along ``axis``; empty groups give 0.

    ``sizes`` is a level's :class:`ChildGroups` or its child counts per
    parent.  With one child per parent the sums are ``values`` itself.
    """
    groups = ChildGroups.of(sizes)
    if groups is ONE_CHILD:
        return values
    sums = np.add.reduceat(values, groups.starts, axis=axis)
    if groups.full is None:
        return sums
    shape = list(values.shape)
    shape[axis] = len(groups.sizes)
    out = np.zeros(shape, dtype=sums.dtype)
    np.moveaxis(out, axis, 0)[groups.full] = np.moveaxis(sums, axis, 0)
    return out


def upward_step(carry: LevelData, parent: LevelData, split, *, child_level: int = 0):
    """Eliminate one child level into its parent level.

    ``carry`` holds the child level (diagonal already Schur-updated by
    previous steps), ``parent`` the untouched parent level, ``split`` the
    child groups, as for :func:`segment_sum`.  Returns the new parent-level
    carry (A_hat, B_p, C_p, u_hat) plus the retained (u_hat_c, b_hat_c,
    inv_c): the downward pass needs the first two, and a later solve reuses
    the last two.
    """
    if carry.B is None or carry.C is None:
        raise ValueError("upward_step needs a child level with parent couplings")
    split = ChildGroups.of(split)
    inv = invert_level(carry.A, child_level + 1)
    b_hat = -(inv @ carry.B)
    a_new = parent.A + segment_sum(carry.C @ b_hat, split, axis=1)
    u_hat, u_new = _right_part_step(inv, carry.C, carry.u, parent.u, split)
    return LevelData(a_new, parent.B, parent.C, u_new), (u_hat, b_hat, inv)


def _right_part_step(inv, C, u, parent_u, split):
    """The right-part half of :func:`upward_step`: u_hat_c and the parent's new u."""
    u_hat = inv @ u
    return u_hat, parent_u - segment_sum(C @ u_hat, split, axis=2)


def downward_step(u_hat: np.ndarray, b_hat: np.ndarray, x_parent: np.ndarray,
                  split) -> np.ndarray:
    """Recover a child level from its parent solutions: x_c = u_hat_c + b_hat_c x_p.

    ``split`` holds the child groups, as for :func:`segment_sum`.
    """
    groups = ChildGroups.of(split)
    x_up = x_parent if groups is ONE_CHILD else np.repeat(x_parent, groups.sizes, axis=2)
    return u_hat + b_hat @ x_up


def upward_sweep(params: LevelParams, tree: TreeTopology, u: TreeVector) -> SolveState:
    """Eliminate every level into its parent, leaf to root.

    The first call for ``params`` on ``tree`` runs :func:`upward_step` on
    every level and caches the parameter half on ``params``; later calls
    eliminate only the right part against it.
    """
    params.check_vector(tree, u)
    depth = tree.depth
    factor = params._factors.get(tree)
    if factor is not None:
        carry_u, u_hats = u.levels[0], []
        for l in range(1, depth):
            u_hat, carry_u = _right_part_step(factor.inv[l - 1], params.C[l - 1], carry_u,
                                              u.levels[l], tree.child_groups(l - 1))
            u_hats.append(u_hat)
        return SolveState(tuple(u_hats), factor.b_hat, factor.root_matrix, carry_u)

    def level_data(l):
        has_up = l < depth - 1
        return LevelData(params.A[l], params.B[l] if has_up else None,
                         params.C[l] if has_up else None, u.levels[l])

    carry = level_data(0)
    u_hats, b_hats, invs = [], [], []
    for l in range(1, depth):
        carry, (u_hat, b_hat, inv) = upward_step(carry, level_data(l),
                                                 tree.child_groups(l - 1), child_level=l - 1)
        u_hats.append(u_hat)
        b_hats.append(b_hat)
        invs.append(inv)
    for a in (*invs, *b_hats, carry.A):
        a.setflags(write=False)  # every later solve shares them
    params._factors[tree] = _Factor(tuple(invs), tuple(b_hats), carry.A)
    return SolveState(tuple(u_hats), tuple(b_hats), carry.A, carry.u)


def downward_sweep(state: SolveState, tree: TreeTopology) -> TreeVector:
    """Solve the root system and back-substitute down to the leaves."""
    xs = [invert_level(state.root_matrix, tree.depth) @ state.root_rhs]
    for l in range(tree.depth - 2, -1, -1):
        xs.append(downward_step(state.u_hat[l], state.b_hat[l], xs[-1], tree.child_groups(l)))
    return TreeVector(tuple(reversed(xs)))


def solve(params: LevelParams, tree: TreeTopology, u: TreeVector) -> TreeVector:
    """Solve the block tree system for ``u``; returns x shaped like ``u``.

    Raises :class:`SingularBlockError` (naming the 1-based level and node)
    when a diagonal pivot block degenerates during elimination.
    """
    return downward_sweep(upward_sweep(params, tree, u), tree)


def solve_with_stats(params: LevelParams, tree: TreeTopology, u: TreeVector):
    """Like :func:`solve`, also returning operation counters.

    They are read off the retained state.  Each non-root level took an upward
    and a downward step: three block ops per parameter block (inverse, b_hat,
    A message) and per right-part block (u_hat, u message, back-substitution).
    The root adds an inverse and a product.
    """
    state = upward_sweep(params, tree, u)
    x = downward_sweep(state, tree)

    def lead(a):
        return int(np.prod(a.shape[:-2], dtype=np.int64))

    return x, SolveStats(
        level_steps=2 * len(state.b_hat) + 1,
        block_ops=sum(3 * (lead(b) + lead(v)) for b, v in zip(state.b_hat, state.u_hat))
        + lead(state.root_matrix) + lead(state.root_rhs),
        aux_floats=sum(b.size + v.size for b, v in zip(state.b_hat, state.u_hat)),
    )


def transpose_params(params: LevelParams) -> LevelParams:
    """Parameters of the transposed system: A -> A^T and B/C swap transposed."""
    return LevelParams(
        tuple(a.swapaxes(-1, -2) for a in params.A),
        tuple(c.swapaxes(-1, -2) for c in params.C),
        tuple(b.swapaxes(-1, -2) for b in params.B),
    )


def solve_transpose(params: LevelParams, tree: TreeTopology, g: TreeVector) -> TreeVector:
    """Solve the transposed system for a cotangent-shaped right part g.

    The transposed parameters are built once and cached on ``params``, and
    their own cache keeps the transposed factor.
    """
    transposed = params._factors.get(_TRANSPOSE)
    if transposed is None:
        transposed = params._factors[_TRANSPOSE] = transpose_params(params)
    return solve(transposed, tree, g)


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
        if l < tree.depth - 1:
            x_up, y_up = x.levels[l + 1], y.levels[l + 1]
            groups = tree.child_groups(l)
            if groups is not ONE_CHILD:  # with one child per parent the gather is the identity
                x_up, y_up = x_up[:, :, groups.parents], y_up[:, :, groups.parents]
            grad_B.append(-np.einsum("bhnir,bhnjr->hnij", y.levels[l], x_up))
            grad_C.append(-np.einsum("bhnir,bhnjr->hnij", y_up, x.levels[l]))
    return y, BlockGrads(tuple(grad_A), tuple(grad_B), tuple(grad_C))
