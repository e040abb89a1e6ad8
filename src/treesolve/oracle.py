"""Independent dense references that certify the level solver.

Deliberately naive (dense LAPACK, O(L^3) work, O(L^2) memory, capped node
counts) and sharing no solver code, so agreement between the two is meaningful.
"""

import numbers
from typing import NamedTuple

import numpy as np

from .params import BlockGrads, LevelParams, TreeVector, _flat, _recurrence_shape, _unflat
from .topology import TreeTopology, _float64, _integer, dfs_postorder_perm

__all__ = [
    "MAX_DENSE_NODES",
    "DenseSystem",
    "ssm_reference",
    "chain_inverse_entry",
    "BidiagonalFactors",
    "tridiag_bidiagonal_factor",
    "bidiagonal_solve",
    "chain_tridiagonal_blocks",
    "finite_diff_grad",
]

MAX_DENSE_NODES = 4096


class DenseSystem:
    """Explicit matrix of a tree system under depth-first post-ordering.

    The matrix has shape (heads, N, N) with N the sum of node block sizes.
    Block rows follow the post-order permutation: node v's diagonal block
    sits at its own rows, B_v in v's rows under the parent's columns, C_v in
    the parent's rows under v's columns; everything else is zero.
    """

    def __init__(self, params: LevelParams, tree: TreeTopology,
                 max_nodes: int = MAX_DENSE_NODES):
        params.validate_for(tree)
        if tree.total_nodes > max_nodes:
            raise ValueError(
                f"dense oracle capped at {max_nodes} nodes, got {tree.total_nodes}"
            )
        self.tree, self.params = tree, params
        perm = dfs_postorder_perm(tree)
        offsets_bfs = tree.level_offsets()
        d_of_node = np.concatenate([
            np.full(n, d, dtype=np.int64)
            for n, d in zip(tree.level_sizes, params.block_sizes)
        ])
        # row offset of each node, indexed by BFS position
        d_by_pos = np.empty_like(d_of_node)
        d_by_pos[perm] = d_of_node
        pos_offsets = np.concatenate([[0], np.cumsum(d_by_pos)])
        self.size = int(pos_offsets[-1])
        self._row_start = pos_offsets[perm]  # by BFS node index
        # per level: (n_l, d_l) row indices into the dense matrix
        self._rows = []
        for l, (n, d) in enumerate(zip(tree.level_sizes, params.block_sizes)):
            starts = self._row_start[offsets_bfs[l] : offsets_bfs[l + 1]]
            self._rows.append(starts[:, None] + np.arange(d)[None, :])
        self.matrix = np.zeros((params.heads, self.size, self.size))
        for l in range(tree.depth):
            rows = self._rows[l]
            self.matrix[:, rows[:, :, None], rows[:, None, :]] = params.A[l]
            if l < tree.depth - 1:
                parent_rows = self._rows[l + 1][tree.parent_indices(l)]
                self.matrix[:, rows[:, :, None], parent_rows[:, None, :]] = params.B[l]
                self.matrix[:, parent_rows[:, :, None], rows[:, None, :]] = params.C[l]

    def pack(self, v: TreeVector, what: str = "right part") -> np.ndarray:
        """Level-structured vector -> (batch, heads, N, r) in post-order rows.

        ``v`` is checked like the solver checks it; ``what`` names its role.
        """
        self.params.check_vector(self.tree, v, what)
        flat = np.zeros((v.batch, v.heads, self.size, v.right_parts))
        for l, rows in enumerate(self._rows):
            flat[:, :, rows.reshape(-1), :] = v.levels[l].reshape(
                v.batch, v.heads, -1, v.right_parts
            )
        return flat

    def unpack(self, flat: np.ndarray) -> TreeVector:
        levels = []
        for l, rows in enumerate(self._rows):
            n, d = rows.shape
            levels.append(
                flat[:, :, rows.reshape(-1), :].reshape(flat.shape[0], flat.shape[1], n, d, -1)
            )
        return TreeVector(tuple(levels))

    def solve(self, u: TreeVector) -> TreeVector:
        return self.unpack(np.linalg.solve(self.matrix, self.pack(u)))

    def matvec(self, x: TreeVector) -> TreeVector:
        return self.unpack(self.matrix @ self.pack(x, "solution"))

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def residual(self, x: TreeVector, u: TreeVector) -> float:
        r = self.matrix @ self.pack(x, "solution") - self.pack(u)
        return float(np.max(np.abs(r)))


def ssm_reference(interaction: np.ndarray, input_maps: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """Sequential state recurrence x_1 = S_1 u_1, x_k = I_{k-1} x_{k-1} + S_k u_k.

    ``input_maps`` S: (L, d, d), ``interaction`` I: (L-1, d, d), u: (L, d, r), else ValueError.
    """
    S = _float64(input_maps, "input maps")
    I = _float64(interaction, "interaction")
    u = _float64(u, "right part")
    L, d = _recurrence_shape(S, I)
    if u.ndim != 3 or u.shape[:2] != (L, d):
        raise ValueError(f"right part must be ({L}, {d}, r), got {u.shape}")
    x = np.empty_like(u)
    x[0] = S[0] @ u[0]
    for k in range(1, L):
        x[k] = I[k - 1] @ x[k - 1] + S[k] @ u[k]
    return x


def chain_inverse_entry(sub_blocks: np.ndarray, i: int, j: int) -> np.ndarray:
    """Entry (i, j), 1-based, of the inverse of a unit-diagonal lower bidiagonal chain.

    ``sub_blocks[k]`` is the block on row k+2 (1-based), one below the
    diagonal.  The inverse is block lower triangular: identity on the
    diagonal, zero above, and alternating-sign products
    (-1)^(i-j) C_i C_{i-1} ... C_{j+1} below.
    """
    sub = _float64(sub_blocks, "subdiagonal blocks")
    if sub.ndim != 3 or sub.shape[-1] != sub.shape[-2]:
        raise ValueError(f"subdiagonal blocks must be (L-1, d, d), got {sub.shape}")
    length = sub.shape[0] + 1
    i, j = _integer(i, "index i"), _integer(j, "index j")
    if not (1 <= i <= length and 1 <= j <= length):
        raise ValueError(f"indices ({i}, {j}) outside chain of length {length}")
    d = sub.shape[-1]
    if i == j:
        return np.eye(d)
    if i < j:
        return np.zeros((d, d))
    prod = sub[i - 2]
    for k in range(i - 1, j, -1):
        prod = prod @ sub[k - 2]
    return ((-1) ** (i - j)) * prod


class BidiagonalFactors(NamedTuple):
    """T = L U with unit-lower-bidiagonal L and upper-bidiagonal U.

    ``lower_sub[k]`` is L's block at (k+2, k+1), 1-based; ``upper_diag[k]`` U's
    k+1-th diagonal block; ``upper_super`` U's superdiagonal, T's own.
    """

    lower_sub: np.ndarray
    upper_diag: np.ndarray
    upper_super: np.ndarray


def tridiag_bidiagonal_factor(diag: np.ndarray, sub: np.ndarray,
                              sup: np.ndarray) -> BidiagonalFactors:
    """Factor a block tridiagonal matrix into bidiagonal sweeps.

    diag: (..., L, d, d); sub/sup: (..., L-1, d, d), the blocks below and
    above the diagonal.  Requires all leading principal block minors to be
    nonsingular; a vanishing minor raises ValueError naming the 1-based
    blocking index.
    """
    diag = _float64(diag, "diagonal blocks")
    sub = _float64(sub, "subdiagonal blocks")
    sup = _float64(sup, "superdiagonal blocks")
    L, d = diag.shape[-3], diag.shape[-1]
    for what, m in (("subdiagonal", sub), ("superdiagonal", sup)):
        if m.shape[-3:] != (L - 1, d, d):
            raise ValueError(f"{what} blocks must be (..., {L - 1}, {d}, {d}), got {m.shape}")
    u_diag = np.empty_like(diag)
    l_sub = np.empty_like(sub)
    u_diag[..., 0, :, :] = diag[..., 0, :, :]
    for k in range(1, L):
        pivot = u_diag[..., k - 1, :, :]
        sv = np.linalg.svd(pivot, compute_uv=False)
        if np.any(sv[..., -1] <= 1e-13 * sv[..., 0]):
            raise ValueError(f"vanishing leading principal minor at block {k}")
        # l = sub @ pivot^{-1}, via a transposed solve
        l_sub[..., k - 1, :, :] = np.linalg.solve(
            pivot.swapaxes(-1, -2), sub[..., k - 1, :, :].swapaxes(-1, -2)
        ).swapaxes(-1, -2)
        u_diag[..., k, :, :] = diag[..., k, :, :] - (
            l_sub[..., k - 1, :, :] @ sup[..., k - 1, :, :]
        )
    return BidiagonalFactors(l_sub, u_diag, sup)


def bidiagonal_solve(factors: BidiagonalFactors, u: np.ndarray) -> np.ndarray:
    """Solve T x = u, u (..., L, d, r), by a forward sweep on L and a backward one on U."""
    l_sub, u_diag, u_sup = factors
    u = _float64(u, "right part")
    L, d = u_diag.shape[-3], u_diag.shape[-1]
    if u.ndim < 3 or u.shape[-3:-1] != (L, d):
        raise ValueError(f"right part must be (..., {L}, {d}, r), got {u.shape}")
    y = np.empty_like(u)
    y[..., 0, :, :] = u[..., 0, :, :]
    for k in range(1, L):
        y[..., k, :, :] = u[..., k, :, :] - l_sub[..., k - 1, :, :] @ y[..., k - 1, :, :]
    x = np.empty_like(y)
    x[..., L - 1, :, :] = np.linalg.solve(u_diag[..., L - 1, :, :], y[..., L - 1, :, :])
    for k in range(L - 2, -1, -1):
        rhs = y[..., k, :, :] - u_sup[..., k, :, :] @ x[..., k + 1, :, :]
        x[..., k, :, :] = np.linalg.solve(u_diag[..., k, :, :], rhs)
    return x


def chain_tridiagonal_blocks(params: LevelParams):
    """A chain system's blocks as (heads, L, d, d) tridiagonal arrays (diag, sub, sup).

    sub[k] sits below the diagonal (the stored C blocks), sup[k] above it (the
    stored B blocks).  Raises ValueError unless the system is a chain of one block size.
    """
    if any(n != 1 for n in params.node_counts):
        raise ValueError("chain blocks need a chain system (one node per level)")
    d = params.block_sizes[0]
    if any(dl != d for dl in params.block_sizes):
        raise ValueError(f"uniform block size required, got {params.block_sizes}")
    diag = np.stack([a[:, 0] for a in params.A], axis=1)
    if params.depth == 1:
        empty = np.zeros((params.heads, 0, d, d))
        return diag, empty, empty
    sub = np.stack([c[:, 0] for c in params.C], axis=1)
    sup = np.stack([b[:, 0] for b in params.B], axis=1)
    return diag, sub, sup


def finite_diff_grad(params: LevelParams, tree: TreeTopology, u: TreeVector,
                     loss, eps: float = 1e-5):
    """Central-difference gradients of ``loss(solve(...))`` for every scalar.

    ``loss`` maps a solution TreeVector to a float.  Each parameter entry and
    each right-part entry is perturbed by +/- eps and re-solved densely, so
    cost grows quadratically with the entry count; intended for small trees.
    Returns (grad_u, BlockGrads).
    """
    if not (isinstance(eps, numbers.Real) and np.isfinite(eps) and eps > 0):
        raise ValueError(f"step must be positive and finite, got {eps}")
    arrays = [np.array(a) for a in _flat(params.A, params.B, params.C, u.levels)]
    grads = [np.zeros_like(a) for a in arrays]

    def loss_at(arr, idx, value):
        # writes value into arr in place; the caller restores the entry
        arr[idx] = value
        A, B, C, levels = _unflat(arrays, params.depth)
        return float(loss(DenseSystem(LevelParams(A, B, C), tree).solve(TreeVector(levels))))

    for arr, g in zip(arrays, grads):
        for idx in np.ndindex(arr.shape):
            x = arr[idx]
            g[idx] = (loss_at(arr, idx, x + eps) - loss_at(arr, idx, x - eps)) / (2 * eps)
            arr[idx] = x
    A, B, C, levels = _unflat(grads, params.depth)
    return TreeVector(levels), BlockGrads(A, B, C)
