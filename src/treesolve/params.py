"""Per-level block parameters and right-hand sides, with parameter transforms.

A problem's array layout is stated here and nowhere else.  Shapes, for 0-based
level l of D and H heads (the blocks' are :func:`_block_shapes`):

* ``A[l]``: (H, n_l, d_l, d_l) diagonal blocks.
* ``B[l]``, l < D-1: (H, n_l, d_l, d_{l+1}), the parent's value in the node's block row.
* ``C[l]``, l < D-1: (H, n_l, d_{l+1}, d_l), the node's value in its parent's block row.
* right parts: (batch, H, n_l, d_l, r), with r simultaneous columns.

Listed flat (:func:`_flat`, undone by :func:`_unflat`), the arrays run A for
levels 1..D, then B and C for levels 1..D-1, then the right parts for levels 1..D.

Containers are immutable; transforms return new ones.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import SingularBlockError, invert_level, lu_factor, lu_solve
from .topology import TreeTopology, _float64, _integer, _positive

__all__ = [
    "LevelParams",
    "TreeVector",
    "BlockGrads",
    "init_random_stable",
    "apply_gauge",
    "scale_rhs",
    "ssm_to_chain",
]


def _frozen_f64(a, what, level):
    arr = np.array(_float64(a, what, level))
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} {level} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _block_shapes(heads: int, node_counts, block_sizes):
    """The shapes of A, B and C, level by level, for a system of these sizes."""
    n, d = node_counts, block_sizes
    return ([(heads, n[l], d[l], d[l]) for l in range(len(n))],
            [(heads, n[l], d[l], d[l + 1]) for l in range(len(n) - 1)],
            [(heads, n[l], d[l + 1], d[l]) for l in range(len(n) - 1)])


def _flat(A, B, C, levels) -> list:
    """A problem's per-level arrays (or their shapes) in the flat order."""
    return [*A, *B, *C, *levels]


def _unflat(flat, depth: int):
    """Split :func:`_flat`'s list for ``depth`` levels back into (A, B, C, levels) tuples."""
    D = depth
    return (tuple(flat[:D]), tuple(flat[D : 2 * D - 1]),
            tuple(flat[2 * D - 1 : 3 * D - 2]), tuple(flat[3 * D - 2 :]))


@dataclass(frozen=True)
class LevelParams:
    """Block parameters of one tree system, stored per level.

    ``A`` has one array per level; ``B`` and ``C`` have one per non-root
    level.  Invertibility of the A blocks is not checked here; the solver
    rejects blocks whose pivots degenerate.
    """

    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]

    def __post_init__(self):
        A = tuple(_frozen_f64(a, "A level", l) for l, a in enumerate(self.A, 1))
        B = tuple(_frozen_f64(b, "B level", l) for l, b in enumerate(self.B, 1))
        C = tuple(_frozen_f64(c, "C level", l) for l, c in enumerate(self.C, 1))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "_factors", {})  # the solver's cache, not a field
        if not A:
            raise ValueError("need at least one level of A blocks")
        if len(B) != len(A) - 1 or len(C) != len(A) - 1:
            raise ValueError(
                f"expected {len(A) - 1} coupling levels, got {len(B)} B and {len(C)} C"
            )
        for l, a in enumerate(A, 1):  # level 1's shape is checked before its head count is read
            if a.ndim != 4 or a.shape[-1] != a.shape[-2] or min(a.shape) < 1:
                raise ValueError(f"A level {l} must be (heads, nodes, d, d), got {a.shape}")
            if a.shape[0] != self.heads:
                raise ValueError(f"A level {l} head count {a.shape[0]} != {self.heads}")
        _, B_shapes, C_shapes = _block_shapes(self.heads, self.node_counts, self.block_sizes)
        for name, blocks, shapes in (("B", B, B_shapes), ("C", C, C_shapes)):
            for l, (x, shape) in enumerate(zip(blocks, shapes), 1):
                if x.shape != shape:
                    raise ValueError(f"{name} level {l} shape {x.shape} != expected {shape}")

    @property
    def depth(self) -> int:
        return len(self.A)

    @property
    def heads(self) -> int:
        return self.A[0].shape[0]

    @property
    def node_counts(self) -> tuple[int, ...]:
        return tuple(a.shape[1] for a in self.A)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(a.shape[-1] for a in self.A)

    def validate_for(self, tree: TreeTopology) -> None:
        if self.node_counts != tree.level_sizes:
            raise ValueError(
                f"parameter node counts {self.node_counts} do not match "
                f"tree levels {tree.level_sizes}"
            )

    def check_vector(self, tree: TreeTopology, v: "TreeVector", what: str = "right part") -> None:
        """Check that ``v``, named ``what``, fits this system on ``tree`` and is finite.

        Raises ValueError for the first failing check, in this order: the
        parameters against the tree, ``v``'s depth, heads, node counts and block
        sizes, then its entries level by level.
        """
        self.validate_for(tree)
        if v.depth != tree.depth:
            raise ValueError(f"{what} has {v.depth} levels, tree has {tree.depth}")
        if v.heads != self.heads:
            raise ValueError(f"{what} heads {v.heads} != parameter heads {self.heads}")
        if v.node_counts != tree.level_sizes:
            raise ValueError(
                f"{what} node counts {v.node_counts} do not match tree {tree.level_sizes}"
            )
        if v.block_sizes != self.block_sizes:
            raise ValueError(
                f"{what} block sizes {v.block_sizes} != parameter blocks {self.block_sizes}"
            )
        for l, level in enumerate(v.levels):
            if not np.isfinite(level).all():
                raise ValueError(f"{what} level {l + 1} contains non-finite entries")


@dataclass(frozen=True)
class TreeVector:
    """Level-structured stack of per-node vectors (inputs, right parts, solutions).

    Each entry of ``levels`` has shape (batch, heads, n_l, d_l, r); batch,
    heads and r agree across levels.
    """

    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        levels = tuple(_float64(v, "level", l) for l, v in enumerate(self.levels, 1))
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("need at least one level")
        b, h, _, _, r = levels[0].shape if levels[0].ndim == 5 else (None,) * 5
        for l, v in enumerate(levels):
            if v.ndim != 5 or min(v.shape) < 1:
                raise ValueError(
                    f"level {l + 1} must be (batch, heads, nodes, d, r) with "
                    f"positive sizes, got shape {v.shape}"
                )
            if v.shape[0] != b or v.shape[1] != h or v.shape[4] != r:
                raise ValueError(
                    f"level {l + 1} batch/heads/right-part dims {v.shape} "
                    f"disagree with level 1 {levels[0].shape}"
                )

    @classmethod
    def zeros(cls, tree: TreeTopology, block_sizes, heads: int = 1,
              batch: int = 1, right_parts: int = 1) -> "TreeVector":
        """An all-zero vector on ``tree``; ``block_sizes`` is one size or one per level."""
        return cls(tuple(
            np.zeros((batch, heads, n, d, right_parts))
            for n, d in zip(tree.level_sizes, _block_size_list(block_sizes, tree.depth))
        ))

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def batch(self) -> int:
        return self.levels[0].shape[0]

    @property
    def heads(self) -> int:
        return self.levels[0].shape[1]

    @property
    def right_parts(self) -> int:
        return self.levels[0].shape[4]

    @property
    def node_counts(self) -> tuple[int, ...]:
        return tuple(v.shape[2] for v in self.levels)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(v.shape[3] for v in self.levels)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.levels)

    def __sub__(self, other: "TreeVector") -> "TreeVector":
        return TreeVector(tuple(a - b for a, b in zip(self.levels, other.levels)))


class BlockGrads(NamedTuple):
    """Cotangents for every A/B/C block, shaped like the parameter arrays."""

    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]


def _block_size_list(block_sizes, depth: int) -> list[int]:
    # a list is never one size, and np.ndim would refuse a ragged one like [[1], 1]
    if not isinstance(block_sizes, (list, tuple)) and np.ndim(block_sizes) == 0:
        sizes = [_integer(block_sizes, "block size")] * depth
    else:
        sizes = [_integer(d, "block size") for d in block_sizes]
        if len(sizes) != depth:
            raise ValueError(f"expected {depth} block sizes, got {len(sizes)}")
    if any(d < 1 for d in sizes):
        raise ValueError(f"block sizes must be positive, got {block_sizes}")
    return sizes


def init_random_stable(tree: TreeTopology, block_sizes=1, heads: int = 1,
                       seed: int = 0, coupling_scale: float = 0.5) -> LevelParams:
    """Identity diagonal with bounded skew couplings: A = I, C = -B^T.

    B entries are i.i.d. uniform with magnitude at most
    ``coupling_scale / (k * d)``, k the largest child group at the transition
    and d the larger adjacent block size.  Every Schur complement of the
    elimination is then I plus Gram terms, symmetric positive definite, so no
    pivot degenerates.  Deterministic in the integer ``seed``; a ``coupling_scale``
    that is not a finite nonnegative real number is a ValueError.
    """
    if not (isinstance(coupling_scale, numbers.Real) and np.isfinite(coupling_scale)
            and coupling_scale >= 0):
        raise ValueError(f"coupling scale must be finite and nonnegative, got {coupling_scale}")
    heads = _positive(heads, "heads")
    sizes = _block_size_list(block_sizes, tree.depth)
    rng = np.random.default_rng(_integer(seed, "seed"))
    A_shapes, B_shapes, _ = _block_shapes(heads, tree.level_sizes, sizes)
    A = tuple(np.broadcast_to(np.eye(s[-1]), s).copy() for s in A_shapes)
    B = []
    for shape, split in zip(B_shapes, tree.split_sizes):
        bound = coupling_scale / (max(split) * max(shape[-2:]))  # shape ends (d_l, d_{l+1})
        B.append(rng.uniform(-bound, bound, size=shape))
    return LevelParams(A, tuple(B), tuple(-b.swapaxes(-1, -2) for b in B))


def _as_gauge_levels(gauge, shapes) -> list[np.ndarray]:
    levels = [_float64(g, "gauge level", l) for l, g in enumerate(gauge, 1)]
    if len(levels) != len(shapes):
        raise ValueError(f"expected {len(shapes)} gauge levels, got {len(levels)}")
    for l, (g, shape) in enumerate(zip(levels, shapes)):
        if g.shape != shape:
            raise ValueError(
                f"gauge blocks at level {l + 1} have shape {g.shape}, expected {shape}"
            )
    return levels


def apply_gauge(params: LevelParams, tree: TreeTopology, gauge) -> LevelParams:
    """Left-multiply every node's block row by the inverse of its gauge block.

    ``gauge`` holds one invertible block per node, shaped like ``params.A``.
    A_v and B_v are scaled by v's gauge, the C blocks stored at v by its
    parent's.  Solving the result against :func:`scale_rhs`-rescaled right
    parts reproduces the original solution.
    """
    params.validate_for(tree)
    levels = _as_gauge_levels(gauge, [a.shape for a in params.A])
    inv = [invert_level(g, l + 1) for l, g in enumerate(levels)]
    A = tuple(i @ a for i, a in zip(inv, params.A))
    B = tuple(inv[l] @ b for l, b in enumerate(params.B))
    C = tuple(inv[l + 1][:, tree.parent_indices(l)] @ c for l, c in enumerate(params.C))
    return LevelParams(A, B, C)


def scale_rhs(u: TreeVector, gauge) -> TreeVector:
    """Apply the same per-node row scaling to a right-hand side: u_v -> D_v^{-1} u_v."""
    levels = _as_gauge_levels(gauge, _block_shapes(u.heads, u.node_counts, u.block_sizes)[0])
    return TreeVector(tuple(invert_level(g, l + 1) @ v
                            for l, (g, v) in enumerate(zip(levels, u.levels))))


def ssm_to_chain(interaction: np.ndarray, input_maps: np.ndarray) -> LevelParams:
    """Chain parameters whose solve reproduces a causal linear state recurrence.

    For x_1 = S_1 u_1, x_k = I_{k-1} x_{k-1} + S_k u_k with ``input_maps`` S
    (L, d, d), L, d >= 1, and ``interaction`` I (L-1, d, d), the chain gets
    diagonal blocks S_k^{-1}, subdiagonal blocks -S_{k+1}^{-1} I_k and no
    superdiagonal.  Raises ValueError on other shapes, non-finite entries or a
    singular S_k.
    """
    S = _float64(input_maps, "input maps")
    I = _float64(interaction, "interaction")
    if S.ndim != 3 or S.shape[-1] != S.shape[-2] or min(S.shape) < 1:
        raise ValueError(f"input maps must be (L, d, d) with L, d >= 1, got {S.shape}")
    L, d = S.shape[0], S.shape[-1]
    if I.shape != (L - 1, d, d) and not (L == 1 and I.size == 0):
        raise ValueError(f"interaction must be ({L - 1}, {d}, {d}), got {I.shape}")
    for what, m in (("input map", S), ("interaction", I)):
        bad = np.flatnonzero(~np.isfinite(m))
        if bad.size:
            raise ValueError(f"{what} at position {bad[0] // (d * d) + 1} "
                             "contains non-finite entries")
    try:
        lu, p = lu_factor(S)
    except SingularBlockError as e:
        raise ValueError(f"input map at position {e.block_index[0] + 1} is singular") from e
    eye = np.broadcast_to(np.eye(d), (L, d, d))
    A = lu_solve(lu, p, eye)
    sub = -lu_solve(lu[1:], p[1:], I) if L > 1 else np.zeros((0, d, d))
    A_levels = tuple(A[k].reshape(1, 1, d, d) for k in range(L))
    B_levels = tuple(np.zeros((1, 1, d, d)) for _ in range(L - 1))
    C_levels = tuple(sub[k].reshape(1, 1, d, d) for k in range(L - 1))
    return LevelParams(A_levels, B_levels, C_levels)
