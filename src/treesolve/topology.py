"""Rooted-tree topologies stored as breadth-first levels, plus grid flattening orders.

Levels are numbered from the leaves: level 1 holds the leaves, level D the
single root.  Internally everything is 0-based; 1-based numbering is used in
documentation, error messages and file formats.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "GridShape",
    "ChildGroups",
    "ONE_CHILD",
    "TreeTopology",
    "build_perfect_tree",
    "build_quadtree",
    "build_chain",
    "morton_index",
    "snake_index",
    "order_indices",
    "flatten_image",
    "dfs_postorder_perm",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _integer(value, what: str) -> int:
    """``value`` as a Python int; floats, strings and other non-integers are a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _positive(value, what: str) -> int:
    """``value`` by :func:`_integer`; a count below 1 is a ValueError."""
    value = _integer(value, what)
    if value < 1:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


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


class ChildGroups(NamedTuple):
    """Read-only index data of one level's child groups, one group per parent.

    ``sizes`` counts each parent's children and ``parents`` gives each
    child's parent.  ``starts`` are the ``np.add.reduceat`` offsets of the
    non-empty groups, and ``full`` marks those groups, or is None when no
    group is empty.  :data:`ONE_CHILD`, whose fields are all None, stands for
    every level on which each parent has exactly one child: there all of this
    is an identity, so nothing is stored.
    """

    sizes: Optional[np.ndarray]
    starts: Optional[np.ndarray]
    full: Optional[np.ndarray]
    parents: Optional[np.ndarray]

    @classmethod
    def of(cls, split) -> "ChildGroups":
        """The groups of ``split``, child counts per parent; ChildGroups pass through."""
        if isinstance(split, ChildGroups):
            return split
        split = tuple(split)  # a tuple is itself, so a chain allocates nothing per level
        if split.count(1) == len(split):
            return ONE_CHILD
        sizes = np.array(split, dtype=np.int64)
        full = sizes > 0
        return cls(_read_only(sizes), _read_only((np.cumsum(sizes) - sizes)[full]),
                   None if full.all() else _read_only(full),
                   _read_only(np.repeat(np.arange(len(sizes)), sizes)))


ONE_CHILD = ChildGroups(None, None, None, None)


@dataclass(frozen=True)
class TreeTopology:
    """A rooted tree as per-level node counts and contiguous child groups.

    Attributes
    ----------
    level_sizes : tuple[int, ...]
        Node count per level, leaves first, root last.  The last entry is 1.
    split_sizes : tuple[tuple[int, ...], ...]
        ``split_sizes[l]`` lists, for every parent at level ``l+1`` (0-based),
        how many children it has at level ``l``, in breadth-first order.  The
        entries sum to ``level_sizes[l]``.  Children of a common parent are
        contiguous by construction; the representation cannot express
        anything else.

    Each level's :class:`ChildGroups` are computed on first use and kept on
    the instance, outside the fields, so equality, hashing and ``repr`` see
    only the two tuples above.
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

    @cached_property
    def _child_groups(self) -> tuple:
        return tuple(ChildGroups.of(grp) for grp in self.split_sizes)

    def child_groups(self, child_level: int) -> ChildGroups:
        """Child groups of the parents above 0-based level ``child_level``."""
        return self._child_groups[child_level]

    def splits(self, child_level: int) -> np.ndarray:
        """Child-group sizes for the parents above 0-based level ``child_level``."""
        sizes = self.child_groups(child_level).sizes
        if sizes is None:
            return _read_only(np.ones(self.level_sizes[child_level], dtype=np.int64))
        return sizes

    def parent_indices(self, child_level: int) -> np.ndarray:
        """Index within level ``child_level + 1`` of each node's parent."""
        parents = self.child_groups(child_level).parents
        if parents is None:
            return _read_only(np.arange(self.level_sizes[child_level]))
        return parents

    def level_offsets(self) -> np.ndarray:
        """Global BFS offset of each level (length depth + 1)."""
        return np.concatenate([[0], np.cumsum(self.level_sizes)])


def build_perfect_tree(arity: int, leaf_count: int) -> TreeTopology:
    """Perfect k-ary tree: ``leaf_count`` must be a power of ``arity``.

    ``leaf_count = arity**d`` gives ``d + 1`` levels with sizes
    ``arity**d, arity**(d-1), ..., 1``.
    """
    arity, leaf_count = _positive(arity, "arity"), _positive(leaf_count, "leaf count")
    sizes = [leaf_count]
    n = leaf_count
    while n > 1:
        if arity == 1 or n % arity != 0:
            raise ValueError(f"leaf count {leaf_count} is not a power of arity {arity}")
        n //= arity
        sizes.append(n)
    splits = tuple(tuple([arity] * sizes[l + 1]) for l in range(len(sizes) - 1))
    return TreeTopology(tuple(sizes), splits)


def build_quadtree(grid: GridShape) -> TreeTopology:
    """Perfect 4-ary tree over a 2^d x 2^d grid.

    Leaf k (1-based, in BFS order) corresponds to the pixel with Morton index
    k, so aligned 2x2 pixel blocks share a parent, 4x4 blocks a grandparent,
    and so on.
    """
    if not grid.is_pow2_square():
        raise ValueError(
            f"quadtree requires a square power-of-two grid, got {grid.height}x{grid.width}"
        )
    return build_perfect_tree(4, grid.pixels)


def build_chain(length: int) -> TreeTopology:
    """Chain of ``length`` nodes: one node per level, leaf at one end, root at the other."""
    length = _positive(length, "chain length")
    return TreeTopology((1,) * length, ((1,),) * (length - 1))


def _pixel(x, y, grid: GridShape) -> tuple[int, int]:
    """Integer coordinates (x, y) of a pixel inside ``grid``."""
    x, y = _integer(x, "pixel column"), _integer(y, "pixel row")
    if not (0 <= x < grid.width and 0 <= y < grid.height):
        raise ValueError(f"pixel ({x}, {y}) outside {grid.height}x{grid.width} grid")
    return x, y


def _morton(x, y, grid: GridShape):
    """1-based Z-order position for integer scalars or arrays of columns x and rows y."""
    if not grid.is_pow2_square():
        raise ValueError(
            f"Morton order requires a square power-of-two grid, got {grid.height}x{grid.width}"
        )
    code = x & 0  # stays an array for array input on a 1x1 grid, which has no bits
    for bit in range(grid.width.bit_length() - 1):
        code |= ((x >> bit) & 1) << (2 * bit) | ((y >> bit) & 1) << (2 * bit + 1)
    return code + 1


def _snake(x, y, grid: GridShape):
    """1-based boustrophedon position for integer scalars or arrays."""
    return y * grid.width + 1 + x + (y % 2) * (grid.width - 1 - 2 * x)


_ORDERS = {"morton": _morton, "snake": _snake}


def morton_index(x: int, y: int, grid: GridShape) -> int:
    """1-based Z-order position of pixel (column x, row y).

    Bits of x and y are interleaved with x contributing the lower bit of each
    pair; on a 4x4 grid this is (x mod 2) + 2(y mod 2) + 4(x//2) + 8(y//2) + 1.
    """
    return _morton(*_pixel(x, y, grid), grid)


def snake_index(x: int, y: int, grid: GridShape) -> int:
    """1-based boustrophedon position: even rows run left to right, odd rows reversed."""
    return _snake(*_pixel(x, y, grid), grid)


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

    Position ``k`` of the result holds the pixel whose 1-based order index is
    ``k + 1``; with ``order="morton"`` this is the leaf order of
    :func:`build_quadtree`.
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
    in breadth-first child order.  For a chain this is the identity.  Subtree
    sizes are summed bottom-up and positions handed down, a level at a time.
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
        perms.insert(0, np.repeat(before, tree.splits(l)) + np.cumsum(sizes[l]))
    return np.concatenate(perms)
