"""Batched inversion and LU factorization of stacks of small square blocks.

All leading axes index independent blocks.  A block is singular when
partial-pivoted elimination meets a pivot not above PIVOT_RTOL times the
block's largest entry magnitude, or below the smallest normal float64
(whose reciprocal can overflow), as the reference :func:`lu_factor`
decides.  :func:`invert_blocks` inverts with batched LAPACK and rejects
exactly what :func:`lu_factor` rejects, and :func:`invert_level` names the
level, node and head of a singular block.
"""

import numpy as np

from .topology import _float64

__all__ = ["PIVOT_RTOL", "SingularBlockError", "invert_blocks", "invert_level", "lu_factor",
           "lu_solve"]

PIVOT_RTOL = 1e-12
_TINY = np.finfo(np.float64).tiny  # the smallest normal float64; a pivot under it is refused


class SingularBlockError(np.linalg.LinAlgError):
    """A diagonal block has no usable pivot.

    ``block_index`` locates it within the stack's leading axes; :func:`invert_level`
    fills in its 1-based ``level``, ``node`` and ``head``.
    """

    def __init__(self, block_index: tuple, pivot_step: int):
        super().__init__()
        self.block_index = block_index
        self.pivot_step = pivot_step
        self.level = None
        self.node = None
        self.head = None

    def __str__(self) -> str:
        if self.level is None:
            where = f"block {self.block_index}"
        else:
            where = f"level {self.level}, node {self.node}, head {self.head}"
        return f"singular diagonal block at {where} (pivot step {self.pivot_step})"


def _check_square_stack(a: np.ndarray) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a stack of square blocks of size >= 1, got shape {a.shape}")


def lu_factor(a: np.ndarray):
    """Factor a stack of square blocks, P A = L U.

    Returns ``(lu, perm)`` where ``lu`` packs the unit-lower and upper factors
    and ``perm[..., i]`` is the original row that ended up at position ``i``.
    Raises :class:`SingularBlockError` on the first block whose pivot is not
    above ``PIVOT_RTOL`` times the block's max absolute entry (so also on NaN),
    or is below the smallest normal float64, since its reciprocal can overflow.
    """
    lu = np.array(_float64(a, "blocks"))
    _check_square_stack(lu)
    lead, d = lu.shape[:-2], lu.shape[-1]
    lu = lu.reshape(-1, d, d)  # one flat stack, so block n's row k is lu[n, k]
    n = np.arange(len(lu))
    perm = np.tile(np.arange(d), (len(n), 1))
    scale = np.max(np.abs(lu), axis=(-2, -1))
    for k in range(d):
        col = np.abs(lu[:, k:, k])
        rel = np.argmax(col, axis=-1)  # the first of equal maxima
        pivot = col[n, rel]
        bad = ~(pivot > PIVOT_RTOL * scale) | (pivot < _TINY)  # a NaN pivot or scale is bad too
        if bad.any():
            index = np.unravel_index(np.argmax(bad), lead)
            raise SingularBlockError(tuple(int(i) for i in index), k)
        pos = k + rel
        lu[n, k], lu[n, pos] = lu[n, pos], lu[n, k]
        perm[n, k], perm[n, pos] = perm[n, pos], perm[n, k]
        lu[:, k + 1 :, k] /= lu[:, k, k, None]
        lu[:, k + 1 :, k + 1 :] -= lu[:, k + 1 :, k : k + 1] * lu[:, k : k + 1, k + 1 :]
    return lu.reshape(lead + (d, d)), perm.reshape(lead + (d,))


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
        x[..., i, :] -= (lu_b[..., i : i + 1, i + 1 :] @ x[..., i + 1 :, :])[..., 0, :]
        x[..., i, :] /= lu_b[..., i, i][..., None]
    return x


def invert_blocks(a: np.ndarray) -> np.ndarray:
    """Invert a stack of square blocks, rejecting exactly what :func:`lu_factor` rejects.

    Uses batched LAPACK, or the reciprocal for 1x1 blocks.  Partial pivoting
    keeps every pivot at least 1 / ||A^-1||_inf, so a stack whose every block
    has ``2 max(PIVOT_RTOL max|A|, tiny) ||A^-1||_inf < 1`` (the 2 absorbs
    rounding; tiny is the smallest normal float64) has no pivot under
    ``PIVOT_RTOL max|A|`` or tiny and is returned.  Any other stack, or
    one LAPACK finds singular, goes through :func:`lu_factor`, so a
    :class:`SingularBlockError` carries its ``block_index`` and ``pivot_step``.
    """
    a = _float64(a, "blocks")
    _check_square_stack(a)
    # zero, infinite or NaN blocks make inf/NaN here; they fail the screen instead
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            inv = 1.0 / a if a.shape[-1] == 1 else np.linalg.inv(a)
        except np.linalg.LinAlgError:
            inv = None
        if inv is not None:
            scale = np.max(np.abs(a), axis=(-2, -1))
            inv_norm = np.max(np.sum(np.abs(inv), axis=-1), axis=-1)
            if np.all(2.0 * np.maximum(PIVOT_RTOL * scale, _TINY) * inv_norm < 1.0):
                return inv
    lu, perm = lu_factor(a)
    if inv is None:  # LAPACK met an exact zero the reference LU did not
        inv = lu_solve(lu, perm, np.broadcast_to(np.eye(a.shape[-1]), a.shape))
    return inv


def invert_level(a: np.ndarray, level: int) -> np.ndarray:
    """:func:`invert_blocks` on one level's (heads, nodes, d, d) blocks.

    A :class:`SingularBlockError` names the given 1-based ``level`` and the
    1-based node and head of the offending block.
    """
    try:
        return invert_blocks(a)
    except SingularBlockError as e:
        e.level = level
        e.head = e.block_index[0] + 1
        e.node = e.block_index[1] + 1
        raise
