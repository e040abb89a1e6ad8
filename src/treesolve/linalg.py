"""Batched inversion and LU factorization of stacks of small square blocks.

All leading axes index independent blocks.  A block counts as singular when
partial-pivoted elimination meets a pivot below PIVOT_RTOL times the block's
largest entry magnitude; :func:`lu_factor` is the reference that decides
this, with a loop over the (small) block dimension vectorized across the
stack.

The solver's hot path uses :func:`invert_blocks` instead: one batched LAPACK
inverse per stack (an elementwise reciprocal for 1x1 blocks) behind a cheap
screen that proves no pivot can fall under the threshold.  A stack the
screen cannot clear is handed to :func:`lu_factor`, which raises exactly
where it always did.
"""

import numpy as np

__all__ = ["PIVOT_RTOL", "SingularBlockError", "invert_blocks", "lu_factor", "lu_solve",
           "solve_blocks"]

PIVOT_RTOL = 1e-12


class SingularBlockError(np.linalg.LinAlgError):
    """A diagonal block has no usable pivot.

    ``block_index`` locates the offending block within the stack's leading
    axes.  The tree solver fills in ``level``/``node``/``head`` (all 1-based)
    when the block belongs to a level array.
    """

    def __init__(self, block_index: tuple, pivot_step: int):
        super().__init__()
        self.block_index = block_index
        self.pivot_step = pivot_step
        self.level = None
        self.node = None
        self.head = None

    def __str__(self) -> str:
        if self.level is not None:
            where = f"level {self.level}, node {self.node}"
            if self.head is not None:
                where += f", head {self.head}"
        else:
            where = f"block {self.block_index}"
        return f"singular diagonal block at {where} (pivot step {self.pivot_step})"


def lu_factor(a: np.ndarray, rtol: float = PIVOT_RTOL):
    """Factor a stack of square blocks, P A = L U.

    Returns ``(lu, perm)`` where ``lu`` packs the unit-lower and upper factors
    and ``perm[..., i]`` is the original row that ended up at position ``i``.
    Raises :class:`SingularBlockError` on the first block whose pivot falls
    below ``rtol`` times the block's max absolute entry.
    """
    lu = np.array(a, dtype=np.float64)
    if lu.ndim < 2 or lu.shape[-1] != lu.shape[-2]:
        raise ValueError(f"expected a stack of square blocks, got shape {lu.shape}")
    lead = lu.shape[:-2]
    d = lu.shape[-1]
    perm = np.broadcast_to(np.arange(d), lead + (d,)).copy()
    scale = np.max(np.abs(lu), axis=(-2, -1))
    for k in range(d):
        col = np.abs(lu[..., k:, k])
        rel = np.argmax(col, axis=-1)
        pivmag = np.take_along_axis(col, rel[..., None], axis=-1)[..., 0]
        bad = pivmag <= rtol * scale
        if np.any(bad):
            flat = int(np.argmax(bad.reshape(-1)))
            index = np.unravel_index(flat, lead) if lead else ()
            raise SingularBlockError(tuple(int(i) for i in index), k)
        pos = rel + k
        # swap rows k <-> pos (identity where pos == k), vectorized over the stack
        pidx = np.broadcast_to(pos[..., None, None], lead + (1, d))
        row_p = np.take_along_axis(lu, pidx, axis=-2)
        row_k = lu[..., k : k + 1, :].copy()
        np.put_along_axis(lu, pidx, row_k, axis=-2)
        lu[..., k, :] = row_p[..., 0, :]
        perm_p = np.take_along_axis(perm, pos[..., None], axis=-1)
        perm_k = perm[..., k].copy()
        np.put_along_axis(perm, pos[..., None], perm_k[..., None], axis=-1)
        perm[..., k] = perm_p[..., 0]
        if k + 1 < d:
            lu[..., k + 1 :, k] /= lu[..., k, k][..., None]
            lu[..., k + 1 :, k + 1 :] -= lu[..., k + 1 :, k : k + 1] * lu[..., k : k + 1, k + 1 :]
    return lu, perm


def lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B from an lu_factor result; leading axes broadcast."""
    d = lu.shape[-1]
    if b.shape[-2] != d:
        raise ValueError(f"rhs rows {b.shape[-2]} do not match block size {d}")
    lead = np.broadcast_shapes(lu.shape[:-2], b.shape[:-2])
    lu_b = np.broadcast_to(lu, lead + (d, d))
    idx = np.broadcast_to(perm[..., :, None], lead + (d, b.shape[-1]))
    x = np.take_along_axis(np.broadcast_to(b, lead + b.shape[-2:]), idx, axis=-2)
    for i in range(1, d):
        x[..., i, :] -= (lu_b[..., i : i + 1, :i] @ x[..., :i, :])[..., 0, :]
    for i in range(d - 1, -1, -1):
        if i + 1 < d:
            x[..., i, :] -= (lu_b[..., i : i + 1, i + 1 :] @ x[..., i + 1 :, :])[..., 0, :]
        x[..., i, :] /= lu_b[..., i, i][..., None]
    return x


def invert_blocks(a: np.ndarray, rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Invert a stack of square blocks, rejecting exactly what :func:`lu_factor` rejects.

    Uses one batched LAPACK inverse, or the elementwise reciprocal for 1x1
    blocks.  Partial pivoting keeps every multiplier at most 1 in magnitude,
    so every pivot is at least 1 / ||A^-1||_inf.  A stack where every block
    has ``2 rtol max|A| ||A^-1||_inf < 1`` (the factor 2 absorbs rounding)
    therefore has no pivot under ``rtol max|A|`` and is returned directly.
    Any other stack, or one LAPACK finds exactly singular, goes through
    :func:`lu_factor`, which raises :class:`SingularBlockError` with the
    same ``block_index`` and ``pivot_step`` as always.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a stack of square blocks, got shape {a.shape}")
    # zero, infinite or NaN blocks make inf/NaN here; they fail the screen instead
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            inv = 1.0 / a if a.shape[-1] == 1 else np.linalg.inv(a)
        except np.linalg.LinAlgError:
            inv = None
        if inv is not None:
            scale = np.max(np.abs(a), axis=(-2, -1))
            inv_norm = np.max(np.sum(np.abs(inv), axis=-1), axis=-1)
            if np.all(2.0 * rtol * scale * inv_norm < 1.0):
                return inv
    lu, perm = lu_factor(a, rtol)
    if inv is None:  # LAPACK met an exact zero the reference LU did not
        inv = lu_solve(lu, perm, np.broadcast_to(np.eye(a.shape[-1]), a.shape))
    return inv


def solve_blocks(a: np.ndarray, b: np.ndarray, rtol: float = PIVOT_RTOL) -> np.ndarray:
    """One-shot blockwise solve, factoring ``a`` on the fly."""
    lu, perm = lu_factor(a, rtol)
    return lu_solve(lu, perm, b)
