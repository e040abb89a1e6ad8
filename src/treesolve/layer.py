"""Sequence-to-sequence view of the tree solve.

Leaf inputs become the leaf level's right part, the other nodes get zeros or
the mean of the leaves they cover, the system is solved, and the top BFS
levels of the output can be averaged.  Under the zeros policy the layer is
linear in the leaf inputs.
"""

from dataclasses import dataclass

import numpy as np

from .params import LevelParams, TreeVector, _block_size_list
from .solver import segment_sum, solve
from .topology import TreeTopology, _float64, _integer, _positive, build_chain

__all__ = ["LayerConfig", "build_input", "forward", "aggregate_topk",
           "bidirectional_chain_forward"]

_VIRTUAL_POLICIES = ("zeros", "mean")


@dataclass(frozen=True)
class LayerConfig:
    tree: TreeTopology
    block_sizes: tuple[int, ...]
    heads: int = 1
    virtual_input: str = "zeros"
    top_levels: int = 1  # BFS levels averaged by aggregate_topk, root first

    def __post_init__(self):
        sizes = tuple(_block_size_list(self.block_sizes, self.tree.depth))
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "heads", _positive(self.heads, "heads"))
        object.__setattr__(self, "top_levels", _integer(self.top_levels, "top_levels"))
        if self.virtual_input not in _VIRTUAL_POLICIES:
            raise ValueError(
                f"virtual-input policy {self.virtual_input!r} not in {_VIRTUAL_POLICIES}"
            )
        if not 1 <= self.top_levels <= self.tree.depth:
            raise ValueError(
                f"top_levels must be in [1, {self.tree.depth}], got {self.top_levels}"
            )
        if self.virtual_input == "mean":
            if len(set(self.block_sizes)) > 1:
                raise ValueError("mean virtual-input policy requires a uniform block size")
            # a node that covers no leaves is, or sits above, a childless non-leaf node
            for l, split in enumerate(self.tree.split_sizes):
                if 0 in split:
                    raise ValueError(
                        f"mean virtual-input policy needs every node to cover a leaf, but "
                        f"node {split.index(0) + 1} of level {l + 2} covers none"
                    )


def build_input(config: LayerConfig, leaf_inputs: np.ndarray) -> TreeVector:
    """Lift (batch, leaves, d) leaf vectors to a full right part.

    The leaf sequence is broadcast over heads with one right-part column;
    virtual levels are filled per the configured policy.
    """
    leaf = _float64(leaf_inputs, "leaf inputs")
    if leaf.ndim == 2:
        leaf = leaf[None]
    tree = config.tree
    if leaf.ndim != 3 or leaf.shape[1] != tree.level_sizes[0]:
        raise ValueError(
            f"expected (batch, {tree.level_sizes[0]}, {config.block_sizes[0]}) "
            f"leaf inputs, got {leaf.shape}"
        )
    if leaf.shape[2] != config.block_sizes[0]:
        raise ValueError(
            f"leaf vectors have dim {leaf.shape[2]}, expected {config.block_sizes[0]}"
        )
    batch = leaf.shape[0]
    levels = [np.broadcast_to(
        leaf[:, None, :, :, None],
        (batch, config.heads, tree.level_sizes[0], config.block_sizes[0], 1),
    ).copy()]
    if config.virtual_input == "zeros":
        for l in range(1, tree.depth):
            levels.append(np.zeros(
                (batch, config.heads, tree.level_sizes[l], config.block_sizes[l], 1)
            ))
    else:
        sums = levels[0]
        counts = np.ones(tree.level_sizes[0])
        for l in range(1, tree.depth):
            split = tree.split_sizes[l - 1]
            sums = segment_sum(sums, split, axis=2)
            counts = segment_sum(counts, split, axis=0)
            levels.append(sums / counts[None, None, :, None, None])
    return TreeVector(tuple(levels))


def forward(config: LayerConfig, params: LevelParams,
            leaf_inputs: np.ndarray) -> TreeVector:
    """Embed leaf inputs, solve the tree system, return all node outputs."""
    u = build_input(config, leaf_inputs)
    return solve(params, config.tree, u)


def aggregate_topk(x: TreeVector, config: LayerConfig) -> np.ndarray:
    """Mean output over all nodes in the top ``config.top_levels`` BFS levels.

    Counting from the root downward inclusive, so ``top_levels=1`` returns
    exactly the root state.  Result shape: (batch, heads, d, r).
    """
    if x.node_counts != config.tree.level_sizes:
        raise ValueError(f"solution node counts {x.node_counts} != tree level sizes "
                         f"{config.tree.level_sizes}")
    picked = x.levels[x.depth - config.top_levels :]
    dims = {v.shape[3] for v in picked}
    if len(dims) > 1:
        raise ValueError(f"aggregated levels have mixed block sizes {sorted(dims)}")
    stacked = np.concatenate(picked, axis=2)
    return stacked.mean(axis=2)


def bidirectional_chain_forward(params: LevelParams, u: TreeVector) -> TreeVector:
    """Solve a chain system carrying both coupling directions.

    This is the tree solve on a chain; it equals a forward sweep followed by a
    backward sweep of the block tridiagonal matrix's two bidiagonal factors.
    """
    if any(n != 1 for n in params.node_counts):
        raise ValueError("bidirectional chain forward requires a chain system")
    return solve(params, build_chain(params.depth), u)
