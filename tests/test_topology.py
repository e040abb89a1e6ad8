import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesolve import (GridShape, LayerConfig, TreeTopology, TreeVector, build_chain,
                       build_perfect_tree, build_quadtree, flatten_image, forward,
                       init_random_stable, order_indices, solve, solve_transpose, vjp)
from treesolve.solver import segment_sum
from treesolve.topology import dfs_postorder_perm
from helpers import irregular_trees

GRID4 = GridShape(4, 4)

# 4x4 reference tables: morton is (x%2) + 2(y%2) + 4(x//2) + 8(y//2) + 1,
# snake runs even rows left-to-right and odd rows reversed.
MORTON_4x4 = [
    [1, 2, 5, 6],
    [3, 4, 7, 8],
    [9, 10, 13, 14],
    [11, 12, 15, 16],
]
SNAKE_4x4 = [
    [1, 2, 3, 4],
    [8, 7, 6, 5],
    [9, 10, 11, 12],
    [16, 15, 14, 13],
]


class TestBuilders:
    def test_binary_8_leaves(self):
        tree = build_perfect_tree(2, 8)
        assert tree.depth == 4
        assert tree.level_sizes == (8, 4, 2, 1)
        assert all(grp == tuple([2] * len(grp)) for grp in tree.split_sizes)

    def test_one_level_star(self):
        tree = build_perfect_tree(4, 4)
        assert tree.depth == 2
        assert tree.level_sizes == (4, 1)

    def test_not_a_power_rejected(self):
        with pytest.raises(ValueError, match="not a power"):
            build_perfect_tree(3, 10)

    def test_single_node(self):
        tree = build_perfect_tree(2, 1)
        assert tree.level_sizes == (1,)
        assert tree.split_sizes == ()

    @pytest.mark.parametrize("side,levels", [
        (4, (16, 4, 1)),
        (1, (1,)),
        (8, (64, 16, 4, 1)),
    ])
    def test_quadtree_levels(self, side, levels):
        tree = build_quadtree(GridShape(side, side))
        assert tree.level_sizes == levels

    def test_quadtree_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            build_quadtree(GridShape(4, 8))
        with pytest.raises(ValueError):
            build_quadtree(GridShape(3, 3))

    def test_chain(self):
        tree = build_chain(5)
        assert tree.level_sizes == (1, 1, 1, 1, 1)
        assert tree.split_sizes == ((1,),) * 4
        # one shared instance per length, however the length is given
        assert build_chain(5) is build_chain(np.int32(5)) is build_chain(np.array(5)) is tree

    def test_equality_is_structural(self):
        assert [f.name for f in dataclasses.fields(TreeTopology)] == ["level_sizes",
                                                                     "split_sizes"]
        explicit = TreeTopology((4, 2, 1), ((2, 2), (2,)))
        assert build_perfect_tree(2, 4) == explicit
        assert hash(build_perfect_tree(2, 4)) == hash(explicit)
        assert build_chain(3) == TreeTopology([1, 1, 1], [[1], [1]])
        assert build_perfect_tree(2, 1) == build_chain(1) == TreeTopology((1,), ())
        assert build_perfect_tree(2, 4) != TreeTopology((4, 2, 1), ((3, 1), (2,)))

    def test_split_sizes_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            TreeTopology((3, 2, 1), ((2, 2), (2,)))
        with pytest.raises(ValueError, match="root"):
            TreeTopology((2, 2), ((1, 1),))


class TestOrders:
    def test_morton_reference_table(self):
        assert order_indices(GRID4, "morton").tolist() == MORTON_4x4

    def test_snake_reference_table(self):
        assert order_indices(GRID4, "snake").tolist() == SNAKE_4x4

    def test_corner_cases(self):
        morton, snake = order_indices(GRID4, "morton"), order_indices(GRID4, "snake")
        assert morton[0, 0] == 1 and morton[1, 1] == 4 and morton[3, 3] == 16
        assert snake[0, 0] == 1 and snake[1, 3] == 5 and snake[3, 0] == 16

    def test_morton_needs_pow2_square(self):
        with pytest.raises(ValueError):
            order_indices(GridShape(4, 8), "morton")

    @pytest.mark.parametrize("side", [1, 2, 4, 8, 16])
    def test_morton_bijection(self, side):
        grid = GridShape(side, side)
        seen = order_indices(grid, "morton")
        assert sorted(seen.reshape(-1)) == list(range(1, side * side + 1))

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 5), (7, 3), (16, 16)])
    def test_snake_bijection(self, h, w):
        seen = order_indices(GridShape(h, w), "snake")
        assert sorted(seen.reshape(-1)) == list(range(1, h * w + 1))

    @pytest.mark.parametrize("side", [2, 4, 8])
    def test_morton_blocks_are_contiguous(self, side):
        # every aligned 2x2 block fills 4 consecutive positions, recursively
        grid = GridShape(side, side)
        idx = order_indices(grid, "morton")
        block = 2
        while block <= side:
            for by in range(0, side, block):
                for bx in range(0, side, block):
                    vals = np.sort(idx[by:by + block, bx:bx + block].reshape(-1))
                    assert vals[0] % (block * block) == 1
                    assert (vals == np.arange(vals[0], vals[0] + block * block)).all()
            block *= 2

    @pytest.mark.parametrize("k", range(9))
    def test_morton_matches_quadrant_construction(self, k):
        # reshaping 0..N-1 into 2k binary axes (most significant bit first) and
        # moving the even axes (y bits) before the odd ones (x bits) lays out Z order
        side = 2 ** k
        axes = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
        want = np.arange(side * side).reshape((2,) * 2 * k).transpose(axes).reshape(side, side)
        np.testing.assert_array_equal(order_indices(GridShape(side, side), "morton"), want + 1)

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 6), (5, 1), (2, 3), (7, 5), (4, 9)])
    def test_snake_reverses_odd_rows(self, h, w):
        want = np.arange(h * w).reshape(h, w) + 1
        want[1::2] = want[1::2, ::-1]
        np.testing.assert_array_equal(order_indices(GridShape(h, w), "snake"), want)

    @pytest.mark.parametrize("order,h,w", [("morton", 8, 8), ("snake", 8, 8), ("snake", 3, 5)])
    def test_scalar_index_matches_array(self, order, h, w):
        # each pixel's position worked out on its own: Morton interleaves the
        # binary digits of y and x (x the lower of each pair), snake reverses odd rows
        def scalar(x, y):
            if order == "snake":
                return y * w + (x if y % 2 == 0 else w - 1 - x) + 1
            bits = w.bit_length() - 1
            xs, ys = format(x, f"0{bits}b"), format(y, f"0{bits}b")
            return int("".join(b + a for a, b in zip(xs, ys)), 2) + 1

        idx = order_indices(GridShape(h, w), order)
        for y in range(h):
            for x in range(w):
                assert idx[y, x] == scalar(x, y)

    def test_flatten_image_matches_indices(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((4, 4, 3))
        seq = flatten_image(img, "morton")
        for y in range(4):
            for x in range(4):
                np.testing.assert_array_equal(seq[MORTON_4x4[y][x] - 1], img[y, x])


class TestPostorder:
    def test_chain_is_identity(self):
        assert dfs_postorder_perm(build_chain(3)).tolist() == [0, 1, 2]

    def test_single_node(self):
        assert dfs_postorder_perm(build_perfect_tree(2, 1)).tolist() == [0]

    def test_binary_four_leaves(self):
        # BFS (1,2,3,4,[1;2],[3;4],[1;4]) maps to rows (1,2,4,5,3,6,7)
        perm = dfs_postorder_perm(build_perfect_tree(2, 4))
        assert (perm + 1).tolist() == [1, 2, 4, 5, 3, 6, 7]

    def test_eight_leaf_binary(self):
        tree = build_perfect_tree(2, 8)
        perm = dfs_postorder_perm(tree)
        assert sorted(perm.tolist()) == list(range(tree.total_nodes))
        assert perm[-1] == tree.total_nodes - 1  # root comes last

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=2, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_subtree_precedes_root_property(self, depth_pow, arity):
        tree = build_perfect_tree(arity, arity ** depth_pow)
        perm = dfs_postorder_perm(tree)
        assert sorted(perm.tolist()) == list(range(tree.total_nodes))
        offsets = tree.level_offsets()
        # parent's position exceeds every child's position
        for l in range(tree.depth - 1):
            parents = tree.parent_indices(l)
            child_pos = perm[offsets[l]:offsets[l + 1]]
            parent_pos = perm[offsets[l + 1] + parents]
            assert (parent_pos > child_pos).all()

    @given(irregular_trees())
    @settings(max_examples=200, deadline=None)
    def test_subtrees_are_contiguous_property(self, tree):
        perm = dfs_postorder_perm(tree)
        n = tree.total_nodes
        assert sorted(perm.tolist()) == list(range(n))
        # global BFS index of every node's parent, from parent_indices
        offsets = tree.level_offsets()
        parent = {}
        for l in range(tree.depth - 1):
            for c, p in enumerate(tree.parent_indices(l)):
                parent[int(offsets[l] + c)] = int(offsets[l + 1] + p)
        subtree = {v: [v] for v in range(n)}
        children = {v: [] for v in range(n)}
        for v in range(n):
            if v in parent:
                children[parent[v]].append(v)  # BFS order is child order
            a = v
            while a in parent:
                a = parent[a]
                subtree[a].append(v)
        for v in range(n):
            size = len(subtree[v])
            first = int(perm[v]) - size + 1
            # the subtree fills the positions ending at v ...
            assert sorted(perm[subtree[v]].tolist()) == list(range(first, first + size))
            # ... with the children's subtrees one after another in child order
            for c in children[v]:
                assert perm[c] - len(subtree[c]) + 1 == first
                first = int(perm[c]) + 1
            assert first == perm[v]

    def test_irregular_tree(self):
        # level sizes (3, 2, 1); first parent takes two children
        tree = TreeTopology((3, 2, 1), ((2, 1), (2,)))
        perm = dfs_postorder_perm(tree)
        # post-order: c1, c2, p1, c3, p2, root
        assert perm.tolist() == [0, 1, 3, 2, 4, 5]


def test_splits_accessors():
    tree = build_perfect_tree(3, 9)
    np.testing.assert_array_equal(tree.parent_indices(0), [0, 0, 0, 1, 1, 1, 2, 2, 2])
    np.testing.assert_array_equal(tree.level_offsets(), [0, 9, 12, 13])


# levels: branching with a childless parent, one child each, branching without empty groups
_MIXED = TreeTopology((5, 3, 3, 1), ((2, 0, 3), (1, 1, 1), (3,)))


def test_parent_indices_and_sums_of_each_level():
    np.testing.assert_array_equal(_MIXED.parent_indices(0), [0, 0, 2, 2, 2])
    np.testing.assert_array_equal(_MIXED.parent_indices(1), [0, 1, 2])
    np.testing.assert_array_equal(_MIXED.parent_indices(2), [0, 0, 0])
    # the childless parent's sum is 0, and a one-child level's sums are their input
    np.testing.assert_array_equal(segment_sum(np.arange(1.0, 6.0), (2, 0, 3), axis=0),
                                  [3.0, 0.0, 12.0])
    values = np.arange(3.0)
    assert segment_sum(values, _MIXED.split_sizes[1], axis=0) is values


def test_parent_indices_are_read_only():
    for l in range(_MIXED.depth - 1):
        a = _MIXED.parent_indices(l)
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7


def test_a_tree_keeps_no_state_beyond_its_fields():
    used, fresh = (TreeTopology(_MIXED.level_sizes, _MIXED.split_sizes) for _ in range(2))
    before = repr(used)
    rng = np.random.default_rng(0)
    params = init_random_stable(used, 2, heads=2, seed=0)
    u, g = (TreeVector(tuple(rng.standard_normal((1, 2, n, 2, 1)) for n in used.level_sizes))
            for _ in range(2))
    x = solve(params, used, u)
    solve_transpose(params, used, g)
    vjp(params, used, u, x, g)
    forward(LayerConfig(used, 2, heads=2), params, rng.standard_normal((1, 5, 2)))
    used.parent_indices(1)
    assert vars(used).keys() == {"level_sizes", "split_sizes"}
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == before
    assert [f.name for f in dataclasses.fields(used)] == ["level_sizes", "split_sizes"]


@pytest.mark.parametrize("call, message", [
    (lambda: TreeTopology((), ()), "a tree needs at least one level"),
    (lambda: TreeTopology((2, 1), ()), "expected 1 split lists, got 0"),
    (lambda: TreeTopology((3, 2, 1), ((3,), (2,))), "level 2 has 2 parents but 1 split entries"),
    (lambda: TreeTopology((2, 2, 1), ((3, -1), (2,))), "negative child-group size at level 2"),
    (lambda: order_indices(GRID4, "hilbert"),
     "unknown order 'hilbert', expected one of ['morton', 'snake']"),
    (lambda: flatten_image(np.zeros(4)), "image must have at least two (row, column) axes"),
], ids=["no-levels", "split-count", "parent-count", "negative-split", "order", "image-axes"])
def test_structure_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, fragment", [
    (lambda: TreeTopology((4.5, 2, 1), ((2, 2), (2,))), "level size must be an integer, got 4.5"),
    (lambda: TreeTopology((4, 2, 1), ((2, 2.0), (2,))), "split size must be an integer, got 2.0"),
    (lambda: GridShape(4.5, 4), "grid height must be an integer, got 4.5"),
    (lambda: GridShape(4, "4"), "grid width must be an integer, got '4'"),
    (lambda: build_perfect_tree(2.0, 4), "arity must be an integer, got 2.0"),
    (lambda: build_perfect_tree(2, 4.0), "leaf count must be an integer, got 4.0"),
    (lambda: build_chain(3.7), "chain length must be an integer, got 3.7"),
    (lambda: build_chain(True), "chain length must be an integer, got True"),
], ids=["level-size", "split-size", "grid-height", "grid-width", "arity", "leaf-count",
        "chain-length", "bool-chain-length"])
def test_sizes_must_be_integers(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: TreeTopology((2, 0, 1), ((2,), (0,))), "level size must be positive, got 0"),
    (lambda: GridShape(0, 4), "grid height must be positive, got 0"),
    (lambda: GridShape(4, -1), "grid width must be positive, got -1"),
    (lambda: build_perfect_tree(0, 4), "arity must be positive, got 0"),
    (lambda: build_perfect_tree(2, 0), "leaf count must be positive, got 0"),
    (lambda: build_chain(0), "chain length must be positive, got 0"),
], ids=["level-size", "grid-height", "grid-width", "arity", "leaf-count", "chain-length"])
def test_counts_must_be_positive(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_sizes_accepted():
    n = np.int64
    tree = TreeTopology((n(4), n(2), n(1)), ((n(2), np.int32(2)), (n(2),)))
    assert tree == build_perfect_tree(n(2), n(4)) == TreeTopology((4, 2, 1), ((2, 2), (2,)))
    assert build_chain(n(3)) == build_chain(3)
    grid = GridShape(n(4), np.int32(4))
    assert grid == GRID4 and build_quadtree(grid) == build_quadtree(GRID4)
    assert order_indices(grid, "morton")[1, 1] == 4 and order_indices(grid, "snake")[1, 3] == 5
