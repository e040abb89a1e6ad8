import re

import numpy as np
import pytest

from treesolve import (DenseSystem, GridShape, LayerConfig, LevelParams,
                       TreeTopology, TreeVector, aggregate_topk, bidiagonal_solve,
                       build_chain, build_perfect_tree, build_quadtree,
                       flatten_image, forward, init_random_stable, solve,
                       ssm_reference, tridiag_bidiagonal_factor)
from treesolve.layer import bidirectional_chain_forward, build_input
from treesolve.oracle import chain_tridiagonal_blocks
from helpers import random_params, rel_err


def config_for(tree, d=1, heads=1, **kw):
    return LayerConfig(tree, (d,) * tree.depth, heads=heads, **kw)


class TestForward:
    def test_identity_system_passes_inputs_through(self):
        tree = build_perfect_tree(2, 8)
        cfg = config_for(tree, d=2)
        params = init_random_stable(tree, 2, seed=0, coupling_scale=0.0)
        rng = np.random.default_rng(0)
        leaf = rng.standard_normal((3, 8, 2))
        x = forward(cfg, params, leaf)
        np.testing.assert_allclose(x.levels[0][:, 0, :, :, 0], leaf, atol=1e-15)
        for lvl in x.levels[1:]:
            np.testing.assert_array_equal(lvl, 0)  # zero virtual inputs stay zero

    def test_matches_dense_on_padded_input(self):
        rng = np.random.default_rng(1)
        tree = build_perfect_tree(2, 4)
        cfg = config_for(tree, d=1, heads=2)
        params = random_params(tree, 1, heads=2, rng=rng)
        leaf = rng.standard_normal((2, 4, 1))
        x = forward(cfg, params, leaf)
        u = build_input(cfg, leaf)
        want = DenseSystem(params, tree).solve(u)
        assert rel_err(x, want) < 1e-12

    def test_mean_pool_of_constant_is_constant(self):
        tree = build_perfect_tree(4, 16)
        cfg = config_for(tree, d=3, virtual_input="mean")
        leaf = np.broadcast_to(np.array([1.0, -2.0, 0.5]), (1, 16, 3)).copy()
        u = build_input(cfg, leaf)
        for lvl in u.levels:
            np.testing.assert_allclose(
                lvl[..., 0], np.broadcast_to(np.array([1.0, -2.0, 0.5]), lvl.shape[:-1]),
                atol=1e-15)

    def test_mean_pool_sums_covered_leaves(self):
        tree = build_perfect_tree(2, 4)
        cfg = config_for(tree, d=1, virtual_input="mean")
        leaf = np.array([[1.0], [2.0], [3.0], [4.0]])[None]
        u = build_input(cfg, leaf)
        np.testing.assert_allclose(u.levels[1][0, 0, :, 0, 0], [1.5, 3.5])
        np.testing.assert_allclose(u.levels[2][0, 0, :, 0, 0], [2.5])

    def test_linear_in_leaf_inputs_under_zeros_policy(self):
        rng = np.random.default_rng(2)
        tree = build_perfect_tree(2, 8)
        cfg = config_for(tree, d=1)
        params = random_params(tree, 1, rng=rng)
        f = rng.standard_normal((1, 8, 1))
        g = rng.standard_normal((1, 8, 1))
        lhs = forward(cfg, params, 2.0 * f - 3.0 * g)
        rhs = TreeVector(tuple(2.0 * a - 3.0 * b for a, b in zip(
            forward(cfg, params, f).levels, forward(cfg, params, g).levels)))
        assert rel_err(lhs, rhs) < 1e-12

    def test_wrong_length_rejected(self):
        tree = build_perfect_tree(2, 8)
        cfg = config_for(tree)
        with pytest.raises(ValueError):
            forward(cfg, init_random_stable(tree, 1, seed=0), np.zeros((1, 7, 1)))


class TestAggregate:
    def test_root_only(self):
        tree = build_perfect_tree(2, 4)
        cfg = config_for(tree, d=2, top_levels=1)
        rng = np.random.default_rng(3)
        x = TreeVector(tuple(rng.standard_normal((2, 1, n, 2, 1))
                             for n in tree.level_sizes))
        np.testing.assert_array_equal(aggregate_topk(x, cfg), x.levels[-1][:, :, 0])

    def test_full_depth_identity_mean(self):
        # identity system, zero virtual inputs: mean over all nodes is
        # (sum of leaf inputs) / total nodes
        tree = build_perfect_tree(2, 4)
        cfg = config_for(tree, d=1, top_levels=tree.depth)
        params = init_random_stable(tree, 1, seed=0, coupling_scale=0.0)
        leaf = np.array([[1.0], [2.0], [3.0], [4.0]])[None]
        out = aggregate_topk(forward(cfg, params, leaf), cfg)
        np.testing.assert_allclose(out.reshape(-1), [10.0 / 7.0])

    def test_constant_outputs(self):
        tree = build_perfect_tree(2, 8)
        v = np.array([0.5, -1.5])
        x = TreeVector(tuple(
            np.broadcast_to(v[:, None], (1, 1, n, 2, 1)).copy()
            for n in tree.level_sizes))
        for k in range(1, tree.depth + 1):
            cfg = config_for(tree, d=2, top_levels=k)
            np.testing.assert_allclose(aggregate_topk(x, cfg).reshape(-1), v)

    def test_linear_in_outputs(self):
        tree = build_perfect_tree(2, 4)
        cfg = config_for(tree, d=1, top_levels=2)
        rng = np.random.default_rng(4)
        x = TreeVector(tuple(rng.standard_normal((1, 1, n, 1, 1))
                             for n in tree.level_sizes))
        y = TreeVector(tuple(rng.standard_normal((1, 1, n, 1, 1))
                             for n in tree.level_sizes))
        np.testing.assert_allclose(
            aggregate_topk(TreeVector(tuple(3.0 * a - 1.0 * b
                                            for a, b in zip(x.levels, y.levels))), cfg),
            3.0 * aggregate_topk(x, cfg) - aggregate_topk(y, cfg), atol=1e-14)

    def test_k_top_bounds_checked(self):
        tree = build_perfect_tree(2, 4)
        with pytest.raises(ValueError):
            config_for(tree, top_levels=4)

    def test_solution_of_another_tree_refused(self):
        # top_levels=4 on a depth-2 solution would average its 2 levels, 1 and 2, to 1.333
        x = TreeVector((np.ones((1, 1, 2, 1, 1)), np.full((1, 1, 1, 1, 1), 2.0)))
        with pytest.raises(ValueError, match=re.escape(
                "solution node counts (2, 1) != tree level sizes (8, 4, 2, 1)")):
            aggregate_topk(x, config_for(build_perfect_tree(2, 8), top_levels=4))
        with pytest.raises(ValueError, match=re.escape(
                "solution node counts (2, 1) != tree level sizes (3, 1)")):
            aggregate_topk(x, config_for(build_perfect_tree(3, 3), top_levels=2))


class TestBidirectionalChain:
    @staticmethod
    def chain_params(diag, sub, sup):
        L, d = diag.shape[0], diag.shape[-1]
        return LevelParams(
            tuple(diag[k].reshape(1, 1, d, d) for k in range(L)),
            tuple(sup[k].reshape(1, 1, d, d) for k in range(L - 1)),
            tuple(sub[k].reshape(1, 1, d, d) for k in range(L - 1)),
        )

    def test_causal_reduction_when_upper_coupling_absent(self):
        rng = np.random.default_rng(5)
        L = 12
        S = 1.0 + rng.uniform(0.2, 0.8, (L, 1, 1))
        I = rng.uniform(-0.7, 0.7, (L - 1, 1, 1))
        u_seq = rng.standard_normal((L, 1, 1))
        from treesolve import ssm_to_chain
        params = ssm_to_chain(I, S)
        u = TreeVector(tuple(u_seq[k].reshape(1, 1, 1, 1, 1) for k in range(L)))
        x = bidirectional_chain_forward(params, u)
        got = np.stack([v[0, 0, 0] for v in x.levels])
        np.testing.assert_allclose(got, ssm_reference(I, S, u_seq), atol=1e-12)

    def test_anti_causal_when_lower_coupling_absent(self):
        rng = np.random.default_rng(6)
        L = 10
        diag = np.ones((L, 1, 1))
        sup = rng.uniform(-0.8, 0.8, (L - 1, 1, 1))
        sub = np.zeros((L - 1, 1, 1))
        u_seq = rng.standard_normal((L, 1, 1))
        params = self.chain_params(diag, sub, sup)
        u = TreeVector(tuple(u_seq[k].reshape(1, 1, 1, 1, 1) for k in range(L)))
        x = bidirectional_chain_forward(params, u)
        got = np.stack([v[0, 0, 0] for v in x.levels])
        # reversed-sequence recurrence: x_L = u_L, x_k = u_k - sup_k x_{k+1}
        want = np.empty_like(u_seq)
        want[-1] = u_seq[-1]
        for k in range(L - 2, -1, -1):
            want[k] = u_seq[k] - sup[k] @ want[k + 1]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_two_sweep_and_dense(self, d):
        rng = np.random.default_rng(7 + d)
        L = 32
        diag = np.eye(d) * 2 + 0.2 * rng.uniform(-1, 1, (L, d, d))
        sub = 0.4 * rng.uniform(-1, 1, (L - 1, d, d)) / d
        sup = 0.4 * rng.uniform(-1, 1, (L - 1, d, d)) / d
        u_seq = rng.standard_normal((L, d, 1))
        params = self.chain_params(diag, sub, sup)
        u = TreeVector(tuple(u_seq[k].reshape(1, 1, 1, d, 1) for k in range(L)))
        x = bidirectional_chain_forward(params, u)
        got = np.stack([v[0, 0, 0] for v in x.levels])
        fac = tridiag_bidiagonal_factor(*chain_tridiagonal_blocks(params))
        sweep = bidiagonal_solve(fac, u_seq[None])[0]
        np.testing.assert_allclose(got, sweep, atol=1e-10)
        dense = DenseSystem(params, build_chain(L)).solve(u)
        assert rel_err(x, dense) < 1e-10

    def test_requires_chain(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 1, seed=0)
        u = TreeVector(tuple(np.zeros((1, 1, n, 1, 1)) for n in tree.level_sizes))
        with pytest.raises(ValueError, match="chain"):
            bidirectional_chain_forward(params, u)


class TestPermutationConsistency:
    def test_quadtree_forward_depends_only_on_pixel_positions(self):
        rng = np.random.default_rng(8)
        grid = GridShape(4, 4)
        tree = build_quadtree(grid)
        cfg = config_for(tree, d=2)
        params = random_params(tree, 2, rng=rng)
        img = rng.standard_normal((4, 4, 2))
        # route 1: library flattening
        seq = flatten_image(img, "morton")[None]
        x1 = forward(cfg, params, seq)
        # route 2: raster order plus an explicit gather through the 4x4 Z-order,
        # (x mod 2) + 2(y mod 2) + 4(x//2) + 8(y//2)
        raster = img.reshape(16, 2)
        gathered = np.empty_like(raster)
        for y in range(4):
            for x in range(4):
                gathered[x % 2 + 2 * (y % 2) + 4 * (x // 2) + 8 * (y // 2)] = raster[y * 4 + x]
        x2 = forward(cfg, params, gathered[None])
        assert rel_err(x1, x2) == 0.0


_PAIR = build_perfect_tree(2, 2)  # two leaves under one root


@pytest.mark.parametrize("call, fragment", [
    (lambda: LayerConfig(_PAIR, (1,)), "expected 2 block sizes, got 1"),
    (lambda: LayerConfig(_PAIR, (1, 1), virtual_input="copy"), "virtual-input policy 'copy'"),
    (lambda: LayerConfig(_PAIR, (1, 2), virtual_input="mean"), "requires a uniform block size"),
    (lambda: LayerConfig(_PAIR, (1.5, 1)), "block size must be an integer, got 1.5"),
    (lambda: LayerConfig(_PAIR, [[1], 1]), "block size must be an integer, got [1]"),
    (lambda: LayerConfig(_PAIR, (1, 1), heads=1.5), "heads must be an integer, got 1.5"),
    (lambda: LayerConfig(_PAIR, (1, 1), top_levels=1.5), "top_levels must be an integer, got 1.5"),
    (lambda: LayerConfig(_PAIR, (0, 1)), "block sizes must be positive, got (0, 1)"),
    (lambda: LayerConfig(_PAIR, (1, -2)), "block sizes must be positive, got (1, -2)"),
    (lambda: LayerConfig(_PAIR, (1, 1), heads=0), "heads must be positive, got 0"),
    (lambda: build_input(config_for(_PAIR), np.zeros((3, 1))), "leaf inputs, got (1, 3, 1)"),
    (lambda: build_input(config_for(_PAIR), np.zeros((1, 2, 2))), "leaf vectors have dim 2"),
    (lambda: aggregate_topk(TreeVector((np.zeros((1, 1, 2, 1, 1)), np.zeros((1, 1, 1, 2, 1)))),
                            LayerConfig(_PAIR, (1, 2), top_levels=2)), "mixed block sizes"),
], ids=["block-size-count", "policy", "mean-mixed-sizes", "float-block-size",
        "ragged-block-sizes", "float-heads", "float-top-levels", "zero-block-size",
        "negative-block-size", "zero-heads", "leaf-count", "leaf-dim", "aggregate-mixed-sizes"])
def test_config_and_input_errors(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


def test_scalar_block_size_covers_every_level():
    tree = build_perfect_tree(2, 8)
    for size in (2, np.int64(2), np.array(2)):
        assert LayerConfig(tree, size).block_sizes == (2,) * tree.depth


@pytest.mark.parametrize("tree, where", [
    (TreeTopology((3, 2, 1), ((3, 0), (2,))), "node 2 of level 2"),
    (TreeTopology((2, 1, 2, 1), ((2,), (0, 1), (2,))), "node 1 of level 3"),
    # node 2 of level 3 covers no leaves through its one childless child, which is named
    (TreeTopology((2, 2, 2, 1), ((2, 0), (1, 1), (2,))), "node 2 of level 2"),
], ids=["childless", "childless-higher-level", "childless-subtree"])
def test_mean_policy_refuses_nodes_that_cover_no_leaves(tree, where):
    with pytest.raises(ValueError, match=f"^mean virtual-input policy .*{where} covers none$"):
        LayerConfig(tree, 1, virtual_input="mean")
    LayerConfig(tree, 1, virtual_input="zeros")  # zeros needs no covered leaves


def test_numpy_integer_config_accepted():
    config = LayerConfig(_PAIR, (np.int64(1), np.int32(1)), heads=np.int64(2),
                         top_levels=np.int64(2))
    assert config == LayerConfig(_PAIR, (1, 1), heads=2, top_levels=2)
    assert aggregate_topk(forward(config, init_random_stable(_PAIR, 1, heads=2),
                                  np.ones((1, 2, 1))), config).shape == (1, 2, 1, 1)


def test_two_dimensional_leaf_input_is_one_batch():
    config = config_for(_PAIR, d=2, virtual_input="mean")
    leaf = np.random.default_rng(7).standard_normal((2, 2))
    for got, want in zip(build_input(config, leaf).levels, build_input(config, leaf[None]).levels):
        assert np.array_equal(got, want)
