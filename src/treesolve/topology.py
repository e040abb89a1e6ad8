"""Rooted-tree topologies stored as breadth-first levels, plus grid flattening orders.

Level 1 holds the leaves and level D the single root.  Code indexes from 0;
documentation, error messages and file formats count from 1.  The package's
input rules live here too: :func:`_integer` and :func:`_positive` for counts,
:func:`_float64` for arrays.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridShape",
    "TreeTopology",
    "build_perfect_tree",
    "build_quadtree",
    "build_chain",
    "order_indices",
    "flatten_image",
    "dfs_postorder_perm",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _integer(value, what: str) -> int:
    """``value`` as a Python int; a bool, float, string or other non-integer is a ValueError."""
    if not isinstance(value, bool):  # numpy bools have no __index__, Python ones do
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _positive(value, what: str) -> int:
    """``value`` by :func:`_integer`; a count below 1 is a ValueError."""
    value = _integer(value, what)
    if value < 1:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


def _float64(a, what: str, index=None) -> np.ndarray:
    """``a`` as a float64 array; a complex ``a`` is a ValueError, not cut to its real part.

    The error names ``what``, then ``index`` if given: no name is built unless needed.
    """
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        name = what if index is None else f"{what} {index}"
        raise ValueError(f"{name} must be real, got {arr.dtype}")
    return np.asarray(arr, dtype=np.float64)


@dataclass(frozen=True)
class GridShape:
    """Pixel grid dimensions. Quadtree/Morton use requires a 2^d x 2^d grid."""

    height: int
    width: int

    def __post_init__(self):
        object.__setattr__(self, "height", _positive(self.height, "grid height"))
        object.__setattr__(self, "width", _positive(self.width, "grid width"))

    @property
    def pixels(self) -> int:
        return self.height * self.width

    def is_pow2_square(self) -> bool:
        return self.height == self.width and _is_power_of_two(self.height)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TreeTopology:
    """A rooted tree as per-level node counts and contiguous child groups.

    ``level_sizes`` holds the node count per level, leaves first; the root's,
    last, is 1.  ``split_sizes[l]`` holds, for every parent at 0-based level
    ``l + 1`` in breadth-first order, its child count at level ``l``; the counts
    sum to ``level_sizes[l]``, and a parent's children are contiguous.
    """

    level_sizes: tuple[int, ...]
    split_sizes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = tuple(_positive(n, "level size") for n in self.level_sizes)
        splits = tuple(tuple(_integer(s, "split size") for s in grp) for grp in self.split_sizes)
        object.__setattr__(self, "level_sizes", sizes)
        object.__setattr__(self, "split_sizes", splits)
        if not self.level_sizes:
            raise ValueError("a tree needs at least one level")
        if self.level_sizes[-1] != 1:
            raise ValueError(f"root level must hold exactly one node, got {self.level_sizes[-1]}")
        if len(self.split_sizes) != len(self.level_sizes) - 1:
            raise ValueError(
                f"expected {len(self.level_sizes) - 1} split lists, got {len(self.split_sizes)}"
            )
        for l, groups in enumerate(self.split_sizes):
            if len(groups) != self.level_sizes[l + 1]:
                raise ValueError(
                    f"level {l + 2} has {self.level_sizes[l + 1]} parents "
                    f"but {len(groups)} split entries"
                )
            if any(s < 0 for s in groups):
                raise ValueError(f"negative child-group size at level {l + 2}")
            if sum(groups) != self.level_sizes[l]:
                raise ValueError(
                    f"split sizes at level {l + 2} sum to {sum(groups)}, "
                    f"expected {self.level_sizes[l]}"
                )

    @property
    def depth(self) -> int:
        """Number of BFS levels D."""
        return len(self.level_sizes)

    @property
    def total_nodes(self) -> int:
        return sum(self.level_sizes)

    def parent_indices(self, child_level: int) -> np.ndarray:
        """Index within level ``child_level + 1`` of each node's parent."""
        parents = np.arange(self.level_sizes[child_level + 1])
        return _read_only(np.repeat(parents, self.split_sizes[child_level]))

    def level_offsets(self) -> np.ndarray:
        """Global BFS offset of each level (length depth + 1)."""
        return np.concatenate([[0], np.cumsum(self.level_sizes)])


def build_perfect_tree(arity: int, leaf_count: int) -> TreeTopology:
    """Perfect k-ary tree; ``leaf_count = arity**d`` gives sizes ``arity**d, ..., 1``.

    Raises ValueError unless ``leaf_count`` is a power of ``arity``.
    """
    sizes = _perfect_level_sizes(arity, leaf_count)
    return TreeTopology(sizes, tuple((n // p,) * p for n, p in zip(sizes, sizes[1:])))


def _perfect_level_sizes(arity: int, leaf_count: int) -> tuple[int, ...]:
    """Level sizes of :func:`build_perfect_tree`, without building the tree."""
    arity, leaf_count = _positive(arity, "arity"), _positive(leaf_count, "leaf count")
    sizes = [leaf_count]
    while sizes[-1] > 1:
        if arity == 1 or sizes[-1] % arity != 0:
            raise ValueError(f"leaf count {leaf_count} is not a power of arity {arity}")
        sizes.append(sizes[-1] // arity)
    return tuple(sizes)


def build_quadtree(grid: GridShape) -> TreeTopology:
    """Perfect 4-ary tree over a square power-of-two grid, leaves in Morton order.

    The 0-based leaf k is the pixel of Morton index k + 1, so aligned 2x2 pixel
    blocks share a parent, 4x4 blocks a grandparent, and so on.
    """
    if not grid.is_pow2_square():
        raise ValueError(
            f"quadtree requires a square power-of-two grid, got {grid.height}x{grid.width}"
        )
    return build_perfect_tree(4, grid.pixels)


def build_chain(length: int) -> TreeTopology:
    """Chain of ``length`` nodes: one node per level, leaf at one end, root at the other.

    Calls with one length may return one shared instance.
    """
    return _chain(_positive(length, "chain length"))


@lru_cache(maxsize=8)
def _chain(length: int) -> TreeTopology:
    return TreeTopology((1,) * length, ((1,),) * (length - 1))


def _morton(x, y, grid: GridShape):
    """1-based Z-order position for integer arrays of columns x and rows y.

    Bits of x and y are interleaved with x contributing the lower bit of each
    pair; on a 4x4 grid this is (x mod 2) + 2(y mod 2) + 4(x//2) + 8(y//2) + 1.
    """
    if not grid.is_pow2_square():
        raise ValueError(
            f"Morton order requires a square power-of-two grid, got {grid.height}x{grid.width}"
        )
    code = x & 0  # zeros shaped like x, also on a 1x1 grid, which has no bits
    for bit in range(grid.width.bit_length() - 1):
        code |= ((x >> bit) & 1) << (2 * bit) | ((y >> bit) & 1) << (2 * bit + 1)
    return code + 1


def _snake(x, y, grid: GridShape):
    """1-based boustrophedon position: even rows run left to right, odd rows reversed."""
    return y * grid.width + 1 + x + (y % 2) * (grid.width - 1 - 2 * x)


_ORDERS = {"morton": _morton, "snake": _snake}


def order_indices(grid: GridShape, order: str) -> np.ndarray:
    """(height, width) array of 1-based positions under the given order."""
    try:
        formula = _ORDERS[order]
    except KeyError:
        raise ValueError(f"unknown order {order!r}, expected one of {sorted(_ORDERS)}")
    y, x = np.indices((grid.height, grid.width), dtype=np.int64)
    return formula(x, y, grid)


def flatten_image(image: np.ndarray, order: str = "morton") -> np.ndarray:
    """Reorder an (H, W, ...) pixel array into a (H*W, ...) sequence.

    Position k holds the pixel of 1-based order index k + 1; ``"morton"`` gives
    the leaf order of :func:`build_quadtree`.
    """
    image = np.asarray(image)
    if image.ndim < 2:
        raise ValueError("image must have at least two (row, column) axes")
    grid = GridShape(image.shape[0], image.shape[1])
    idx = order_indices(grid, order)
    out = np.empty((grid.pixels,) + image.shape[2:], dtype=image.dtype)
    out[idx.reshape(-1) - 1] = image.reshape((grid.pixels,) + image.shape[2:])
    return out


def dfs_postorder_perm(tree: TreeTopology) -> np.ndarray:
    """Map BFS node index to depth-first post-order position (both 0-based).

    Every node is placed after all nodes of its subtree; subtrees are visited
    in breadth-first child order.  For a chain this is the identity.
    """
    sizes = [np.ones(tree.level_sizes[0], dtype=np.int64)]
    for l in range(tree.depth - 1):
        below = np.bincount(tree.parent_indices(l), sizes[l], tree.level_sizes[l + 1])
        sizes.append(1 + below.astype(np.int64))
    perms = [np.array([tree.total_nodes - 1], dtype=np.int64)]
    for l in range(tree.depth - 2, -1, -1):
        # child c of p sits at first(p) - 1 + the sizes of c and its earlier siblings;
        # the level-wide cumsum adds the subtrees under earlier parents, `before` removes them
        before = perms[0] - np.cumsum(sizes[l + 1] - 1) - 1
        perms.insert(0, np.repeat(before, tree.split_sizes[l]) + np.cumsum(sizes[l]))
    return np.concatenate(perms)
