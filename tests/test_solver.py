import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesolve import (DenseSystem, GridShape, LayerConfig, LevelParams, SingularBlockError,
                       TreeTopology, TreeVector, build_chain, build_perfect_tree,
                       build_quadtree, forward, init_random_stable, solve,
                       solve_transpose, solve_with_stats, upward_step, vjp)
from treesolve.linalg import invert_level
from treesolve.solver import (_block_product, _gather_parents, downward_step, downward_sweep,
                              segment_sum, transpose_params, upward_sweep)
from helpers import (dot, irregular_trees, jvp, perturbation_like, random_params, random_rhs,
                     rel_err)


def scalar(v):
    return np.array(v, dtype=np.float64).reshape(1, 1, 1, 1)


class TestUpwardStep:
    def test_scalar_star_example(self):
        # A1=2, B1=1, C1=1, A_root=3, u1=2, u_root=1
        a_root, b_hat, _ = upward_step(scalar(2), scalar(1), scalar(1), scalar(3), [1],
                                       child_level=0)
        assert b_hat.reshape(-1)[0] == -0.5
        assert a_root.reshape(-1)[0] == 2.5
        params = LevelParams((scalar(2), scalar(3)), (scalar(1),), (scalar(1),))
        u = TreeVector((scalar(2)[None], scalar(1)[None]))
        _, (u_hat, root_rhs) = upward_sweep(params, build_chain(2), u)
        assert u_hat.reshape(-1)[0] == 1.0
        assert root_rhs.reshape(-1)[0] == 0.0

    def test_zero_couplings_pass_through(self):
        rng = np.random.default_rng(0)
        a_c, a_p = rng.standard_normal((1, 3, 2, 2)) + 3 * np.eye(2), scalar(4)
        u_c, u_p = rng.standard_normal((1, 1, 3, 2, 1)), scalar(7)[None]
        b_c, c_c = np.zeros((1, 3, 2, 1)), np.zeros((1, 3, 1, 2))
        a_root, b_hat, _ = upward_step(a_c, b_c, c_c, a_p, [3], child_level=0)
        np.testing.assert_allclose(a_root, a_p)
        np.testing.assert_array_equal(b_hat, 0)
        _, (u_hat, root_rhs) = upward_sweep(LevelParams((a_c, a_p), (b_c,), (c_c,)),
                                            TreeTopology((3, 1), ((3,),)), TreeVector((u_c, u_p)))
        np.testing.assert_allclose(root_rhs, u_p)
        np.testing.assert_allclose(u_hat, np.linalg.solve(a_c, u_c))

    def test_two_identical_children_schur(self):
        # k=2 children, A=1, B=C=b: parent diagonal becomes A_p - 2 b^2
        b = 0.3
        a_root, _, _ = upward_step(np.ones((1, 2, 1, 1)), np.full((1, 2, 1, 1), b),
                                   np.full((1, 2, 1, 1), b), scalar(5), [2], child_level=0)
        np.testing.assert_allclose(a_root.reshape(-1)[0], 5 - 2 * b * b)

    def test_singular_child_named(self):
        blocks = (np.zeros((1, 2, 1, 1)),) * 3 + (scalar(1),)
        with pytest.raises(SingularBlockError) as info:
            upward_step(*blocks, [2], child_level=0)
        assert info.value.level == 1
        assert info.value.node == 1
        with pytest.raises(TypeError, match="child_level"):  # no default to report level 1
            upward_step(*blocks, [2])

    def test_nan_schur_complement_raises(self):
        # two leaves with B = 1e200 and C = +-1e200: the root's A becomes inf - inf = NaN
        one = np.ones((1, 2, 1, 1))
        params = LevelParams((one, scalar(1)), (1e200 * one,),
                             (np.array([1e200, -1e200]).reshape(1, 2, 1, 1),))
        tree = build_perfect_tree(2, 2)
        u = random_rhs(tree, 1, rng=np.random.default_rng(1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularBlockError, match="level 2, node 1"):
                solve(params, tree, u)


class TestDownwardStep:
    def test_zero_coupling_returns_u_hat(self):
        u_hat = np.arange(6.0).reshape(1, 1, 3, 2, 1)
        x = downward_step(u_hat.copy(), np.zeros((1, 3, 2, 2)), np.ones((1, 1, 1, 2, 1)), [3])
        np.testing.assert_array_equal(x, u_hat)

    def test_star_back_substitution(self):
        # continuing the scalar star: x_root = 0 so x_1 = u_hat = 1
        x = downward_step(scalar(1)[None], scalar(-0.5), scalar(0)[None], [1])
        assert x.reshape(-1)[0] == 1.0

    def test_affine_in_parent(self):
        rng = np.random.default_rng(3)
        u_hat = rng.standard_normal((2, 1, 4, 3, 2))
        b_hat = rng.standard_normal((1, 4, 3, 3))
        xp = rng.standard_normal((2, 1, 2, 3, 2))
        want = u_hat + b_hat @ np.repeat(xp, [2, 2], axis=2)
        got = downward_step(u_hat, b_hat, xp, [2, 2])
        np.testing.assert_array_equal(got, want)
        assert got is u_hat  # the solution overwrites the u_hat buffer


class TestBlockProduct:
    """Scalar blocks multiply elementwise, with the bytes ``@`` gives."""

    @pytest.mark.parametrize("m, p", [(1, 1), (1, 3), (3, 1), (3, 3), (1, 2), (3, 2)])
    @pytest.mark.parametrize("b_lead", [(2, 5), (4, 2, 5)], ids=["blocks", "right-parts"])
    def test_bytes_equal_matmul(self, m, p, b_lead):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 5, m, 1))
        b = rng.standard_normal((*b_lead, 1, p))
        a[:, ::2] = 0.0  # zeros times negative entries: -0.0 under a plain multiply
        b[..., 1::2, :, :] = -np.abs(b[..., 1::2, :, :])
        b[..., 0, :, :] = -0.0
        assert np.signbit((a * b)[a * b == 0]).any()
        got, want = _block_product(a, b), a @ b
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signs of zeros included

    def test_inner_size_mismatch_raises_like_matmul(self):
        a, b = np.ones((2, 5, 3, 1)), np.ones((2, 5, 2, 2))
        for product in (np.matmul, _block_product):
            with pytest.raises(ValueError):
                product(a, b)


class TestSolve:
    def test_identity_system(self):
        tree = build_perfect_tree(4, 16)
        params = init_random_stable(tree, 2, heads=2, seed=0, coupling_scale=0.0)
        u = random_rhs(tree, 2, heads=2, rng=np.random.default_rng(1))
        assert rel_err(solve(params, tree, u), u) == 0.0

    def test_forward_substitution_chain(self):
        # A=I, C=(2,3), u=(1,0,0): x = (1, -2, 6)
        tree = build_chain(3)
        ones = np.ones((1, 1, 1, 1))
        params = LevelParams((ones, ones, ones), (0 * ones, 0 * ones),
                             (2 * ones, 3 * ones))
        u = TreeVector((scalar(1)[None], scalar(0)[None], scalar(0)[None]))
        x = solve(params, tree, u)
        got = [float(v.reshape(-1)[0]) for v in x.levels]
        np.testing.assert_allclose(got, [1.0, -2.0, 6.0], atol=1e-15)

    @pytest.mark.parametrize("builder,size,d,heads,batch,r", [
        (build_perfect_tree, (2, 4), 1, 1, 1, 1),
        (build_perfect_tree, (2, 64), 2, 2, 2, 3),
        (build_perfect_tree, (4, 64), 3, 1, 1, 2),
        (build_chain, (17,), 2, 2, 1, 1),
    ])
    def test_matches_dense_oracle(self, builder, size, d, heads, batch, r):
        rng = np.random.default_rng(hash(size) % 2**31)
        tree = builder(*size)
        params = random_params(tree, d, heads=heads, rng=rng)
        u = random_rhs(tree, d, heads=heads, batch=batch, right_parts=r, rng=rng)
        x = solve(params, tree, u)
        system = DenseSystem(params, tree)
        assert rel_err(x, system.solve(u)) < 1e-11
        assert system.residual(x, u) < 1e-10 * max(1.0, u.max_abs())

    def test_varying_block_sizes_per_level(self):
        rng = np.random.default_rng(5)
        tree = build_perfect_tree(2, 8)
        sizes = [1, 2, 3, 2]
        params = random_params(tree, sizes, heads=2, rng=rng)
        u = random_rhs(tree, sizes, heads=2, batch=2, right_parts=2, rng=rng)
        x = solve(params, tree, u)
        assert rel_err(x, DenseSystem(params, tree).solve(u)) < 1e-11

    def test_irregular_tree_with_childless_parent(self):
        rng = np.random.default_rng(6)
        tree = TreeTopology((2, 2, 1), ((2, 0), (2,)))
        params = random_params(tree, 2, rng=rng)
        u = random_rhs(tree, 2, rng=rng)
        x = solve(params, tree, u)
        assert rel_err(x, DenseSystem(params, tree).solve(u)) < 1e-12

    def test_single_node_tree(self):
        tree = build_perfect_tree(2, 1)
        params = LevelParams((scalar(4),), (), ())
        u = TreeVector((scalar(8)[None],))
        x, stats = solve_with_stats(params, tree, u)
        assert x.levels[0].reshape(-1)[0] == 2.0
        assert stats.level_steps == 1

    def test_linearity(self):
        rng = np.random.default_rng(8)
        tree = build_perfect_tree(2, 16)
        params = random_params(tree, 2, rng=rng)
        u = random_rhs(tree, 2, rng=rng)
        v = random_rhs(tree, 2, rng=rng)
        def combine(a, b):
            return TreeVector(tuple(2.5 * p + (-1.25) * q for p, q in zip(a.levels, b.levels)))

        lhs = solve(params, tree, combine(u, v))
        rhs = combine(solve(params, tree, u), solve(params, tree, v))
        assert rel_err(lhs, rhs) < 1e-12

    def test_shape_mismatch_rejected_before_compute(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 2, seed=0)
        bad = random_rhs(tree, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="block sizes"):
            solve(params, tree, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("call", ["solve", "solve_transpose", "vjp_u", "vjp_g"])
    def test_non_finite_right_part_rejected(self, call, bad):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 2, seed=0)
        u = random_rhs(tree, 2, rng=np.random.default_rng(0))
        x = solve(params, tree, u)
        levels = [v.copy() for v in u.levels]
        levels[1][0, 0, 1, 0, 0] = bad
        poisoned = TreeVector(tuple(levels))
        calls = {
            "solve": lambda: solve(params, tree, poisoned),
            "solve_transpose": lambda: solve_transpose(params, tree, poisoned),
            "vjp_u": lambda: vjp(params, tree, poisoned, x, u),
            "vjp_g": lambda: vjp(params, tree, u, x, poisoned),
        }
        with pytest.raises(ValueError, match="level 2 contains non-finite"):
            calls[call]()

    def test_singularity_names_level_and_node(self):
        tree = build_chain(3)
        ones = np.ones((1, 1, 1, 1))
        params = LevelParams((ones, 0 * ones, ones), (0 * ones, 0 * ones),
                             (ones, ones))
        u = random_rhs(tree, 1, rng=np.random.default_rng(0))
        with pytest.raises(SingularBlockError) as info:
            solve(params, tree, u)
        assert info.value.level == 2
        assert info.value.node == 1
        assert "level 2, node 1" in str(info.value)


class TestStats:
    @pytest.mark.parametrize("arity,leaves,want", [
        (4, 4, 3), (4, 16, 5), (4, 64, 7), (4, 256, 9), (4, 1024, 11), (2, 1, 1),
    ])
    def test_level_steps_formula(self, arity, leaves, want):
        tree = build_perfect_tree(arity, leaves)
        params = init_random_stable(tree, 1, seed=0, coupling_scale=0.5)
        u = random_rhs(tree, 1, rng=np.random.default_rng(0))
        _, stats = solve_with_stats(params, tree, u)
        assert stats.level_steps == want == 2 * (tree.depth - 1) + 1

    @pytest.mark.parametrize("tree,sizes", [
        (build_perfect_tree(2, 1), [3]),
        (build_chain(5), [2] * 5),
        (build_perfect_tree(4, 16), [1, 3, 2]),
        (TreeTopology((2, 2, 1), ((2, 0), (2,))), [2, 1, 3]),
    ], ids=["single-node", "chain", "quadtree-mixed-d", "irregular-childless"])
    def test_counter_values(self, tree, sizes):
        # exact values, not only growth ratios: treesolve bench writes them out
        heads, batch, cols = 2, 3, 2
        rng = np.random.default_rng(0)
        params = random_params(tree, sizes, heads=heads, rng=rng)
        u = random_rhs(tree, sizes, heads=heads, batch=batch, right_parts=cols, rng=rng)
        _, stats = solve_with_stats(params, tree, u)
        n, d = tree.level_sizes, sizes
        assert stats.level_steps == 2 * (tree.depth - 1) + 1
        assert stats.block_ops == heads * (1 + batch) * (3 * tree.total_nodes - 2)
        assert stats.aux_floats == sum(heads * n[l] * d[l] * (d[l + 1] + batch * cols)
                                       for l in range(tree.depth - 1))

    def test_linear_work_and_memory(self):
        ops, aux = [], []
        for leaves in (16, 64, 256, 1024):
            tree = build_perfect_tree(2, leaves)
            params = init_random_stable(tree, 1, seed=0, coupling_scale=0.5)
            u = random_rhs(tree, 1, rng=np.random.default_rng(0))
            _, stats = solve_with_stats(params, tree, u)
            ops.append(stats.block_ops / tree.total_nodes)
            aux.append(stats.aux_floats / tree.total_nodes)
        assert max(ops) / min(ops) < 1.1
        assert max(aux) / min(aux) < 1.1


class TestTransposeAndVjp:
    @pytest.mark.parametrize("make_tree", [
        lambda: build_perfect_tree(2, 16),
        lambda: build_chain(24),
    ])
    def test_transpose_matches_dense(self, make_tree):
        rng = np.random.default_rng(9)
        tree = make_tree()
        params = random_params(tree, 2, heads=2, rng=rng)
        g = random_rhs(tree, 2, heads=2, rng=rng)
        y = solve_transpose(params, tree, g)
        system = DenseSystem(params, tree)
        want = system.unpack(np.linalg.solve(system.matrix.swapaxes(-1, -2),
                                             system.pack(g)))
        assert rel_err(y, want) < 1e-11

    @given(irregular_trees(), st.sampled_from([1, 2]), st.sampled_from([1, 2]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_irregular_trees_match_the_dense_oracle(self, tree, d, r, seed):
        # random child counts reach the slice, reduceat and empty-group paths
        rng = np.random.default_rng(seed)
        params = random_params(tree, d, heads=2, rng=rng)
        u, g = (random_rhs(tree, d, heads=2, batch=2, right_parts=r, rng=rng) for _ in range(2))
        system = DenseSystem(params, tree)
        x = solve(params, tree, u)
        assert rel_err(x, system.solve(u)) < 1e-11
        y = solve_transpose(params, tree, g)
        want = system.unpack(np.linalg.solve(system.matrix.swapaxes(-1, -2), system.pack(g)))
        assert rel_err(y, want) < 1e-11
        _assert_identical(vjp(params, tree, u, x, g)[0], y)

    def test_transpose_equals_solve_for_symmetric_system(self):
        rng = np.random.default_rng(10)
        tree = build_perfect_tree(3, 9)
        base = random_params(tree, 2, rng=rng)
        sym_A = tuple((a + a.swapaxes(-1, -2)) / 2 + np.eye(2) for a in base.A)
        params = LevelParams(sym_A, base.B, tuple(b.swapaxes(-1, -2) for b in base.B))
        g = random_rhs(tree, 2, rng=rng)
        assert rel_err(solve_transpose(params, tree, g), solve(params, tree, g)) < 1e-12

    def test_identity_transpose(self):
        tree = build_chain(4)
        params = init_random_stable(tree, 1, seed=0, coupling_scale=0.0)
        g = random_rhs(tree, 1, rng=np.random.default_rng(2))
        assert rel_err(solve_transpose(params, tree, g), g) == 0.0

    def test_vjp_zero_cotangent(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 1, seed=1, coupling_scale=0.5)
        u = random_rhs(tree, 1, rng=np.random.default_rng(3))
        x = solve(params, tree, u)
        g = TreeVector(tuple(0.0 * v for v in u.levels))
        grad_u, grads = vjp(params, tree, u, x, g)
        assert grad_u.max_abs() == 0.0
        assert all(np.max(np.abs(a)) == 0 for a in grads.A + grads.B + grads.C)

    def test_vjp_two_node_closed_form(self):
        # 2x2 system: L = g.x with x = T^{-1}u; check against the symbolic
        # derivative dL/dT = -(T^{-T}g) x^T restricted to the block pattern
        a, b, c, p = 2.0, 0.7, -0.4, 3.0
        u1, u2, g1, g2 = 1.3, -0.2, 0.5, 2.0
        tree = build_chain(2)
        params = LevelParams((scalar(a), scalar(p)), (scalar(b),), (scalar(c),))
        u = TreeVector((scalar(u1)[None], scalar(u2)[None]))
        g = TreeVector((scalar(g1)[None], scalar(g2)[None]))
        x = solve(params, tree, u)
        grad_u, grads = vjp(params, tree, u, x, g)
        T = np.array([[a, b], [c, p]])
        xv = np.linalg.solve(T, [u1, u2])
        yv = np.linalg.solve(T.T, [g1, g2])
        np.testing.assert_allclose(
            [float(grad_u.levels[0].reshape(-1)[0]), float(grad_u.levels[1].reshape(-1)[0])],
            yv, atol=1e-14)
        np.testing.assert_allclose(float(grads.A[0].reshape(-1)[0]), -yv[0] * xv[0], atol=1e-14)
        np.testing.assert_allclose(float(grads.A[1].reshape(-1)[0]), -yv[1] * xv[1], atol=1e-14)
        np.testing.assert_allclose(float(grads.B[0].reshape(-1)[0]), -yv[0] * xv[1], atol=1e-14)
        np.testing.assert_allclose(float(grads.C[0].reshape(-1)[0]), -yv[1] * xv[0], atol=1e-14)

    def test_vjp_dot_product_adjoint(self):
        rng = np.random.default_rng(12)
        tree = build_perfect_tree(2, 8)
        params = random_params(tree, 2, heads=2, rng=rng)
        u = random_rhs(tree, 2, heads=2, batch=2, rng=rng)
        x = solve(params, tree, u)
        g = random_rhs(tree, 2, heads=2, batch=2, rng=rng)
        d_params = perturbation_like(params, rng)
        d_u = random_rhs(tree, 2, heads=2, batch=2, rng=rng)
        dx = jvp(params, tree, u, x, d_params, d_u)
        grad_u, grads = vjp(params, tree, u, x, g)
        lhs = dot(g, dx)
        rhs = dot(grad_u, d_u) + sum(
            float((gv * dv).sum())
            for gv, dv in zip(grads.A + grads.B + grads.C,
                              d_params.A + d_params.B + d_params.C))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-12

    def test_vjp_holds_at_most_one_parent_gather(self):
        # a leaf-level parent gather is one leaf-level right part; the outer
        # products' temporaries are small next to it, and the factor is cached
        tree = build_perfect_tree(4, 4 ** 5)
        rng = np.random.default_rng(13)
        params = init_random_stable(tree, 2, heads=2, seed=13)
        u, g = (random_rhs(tree, 2, heads=2, batch=4, rng=rng) for _ in range(2))
        x = solve(params, tree, u)
        vjp(params, tree, u, x, g)
        tracemalloc.start()
        try:
            y, grads = vjp(params, tree, u, x, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in y.levels + grads.A + grads.B + grads.C)
        assert (peak - kept) / u.levels[0].nbytes < 1.5


    def test_pooled_transpose_solve_holds_one_leaf_level(self):
        # a cotangent zero below its top 2 levels skips the leaves' elimination, so
        # only back-substitution's parent repeat is transient at the leaf level
        tree = build_quadtree(GridShape(64, 64))
        rng = np.random.default_rng(14)
        params = init_random_stable(tree, 1, heads=2, seed=14)
        g = _zero_below(random_rhs(tree, 1, heads=2, batch=4, rng=rng), tree.depth - 2)
        solve_transpose(params, tree, g)
        tracemalloc.start()
        try:
            y = solve_transpose(params, tree, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in y.levels)
        assert (peak - kept) / g.levels[0].nbytes < 1.5


class TestSolveState:
    """The state the upward sweep hands the downward one: the factor and a list of arrays."""

    def test_hat_quantity_invariants(self):
        # recompute the carry diagonals level by level and check that the
        # handed-over quantities satisfy b_hat = -carry_A^{-1} B and
        # u_hat = carry_A^{-1} u_carry
        rng = np.random.default_rng(13)
        tree = build_perfect_tree(2, 8)
        params = random_params(tree, 2, rng=rng)
        u = random_rhs(tree, 2, rng=rng)
        factor, levels = upward_sweep(params, tree, u)
        assert len(levels) == tree.depth
        carry_A, carry_u = params.A[0], u.levels[0]
        for l in range(tree.depth - 1):
            np.testing.assert_allclose(
                factor.b_hat[l], -np.linalg.solve(carry_A, params.B[l]), atol=1e-12)
            np.testing.assert_allclose(
                levels[l], np.linalg.solve(carry_A, carry_u), atol=1e-12)
            split = tree.split_sizes[l]
            carry_A = params.A[l + 1] + segment_sum(
                params.C[l] @ factor.b_hat[l], split, axis=1)
            carry_u = u.levels[l + 1] - segment_sum(
                params.C[l] @ levels[l], split, axis=2)
        np.testing.assert_allclose(np.linalg.inv(factor.root_inv), carry_A, atol=1e-12)
        np.testing.assert_allclose(levels[-1], carry_u, atol=1e-12)

    def test_root_carry_solves_to_dense_root(self):
        rng = np.random.default_rng(14)
        tree = build_perfect_tree(3, 27)
        params = random_params(tree, 1, rng=rng)
        u = random_rhs(tree, 1, rng=rng)
        factor, levels = upward_sweep(params, tree, u)
        x_root = factor.root_inv @ levels[-1]
        want = DenseSystem(params, tree).solve(u).levels[-1]
        np.testing.assert_allclose(x_root, want, atol=1e-12)

    def test_sweeps_compose_to_solve(self):
        rng = np.random.default_rng(15)
        tree = build_perfect_tree(2, 16)
        params = random_params(tree, 2, rng=rng)
        u = random_rhs(tree, 2, rng=rng)
        factor, levels = upward_sweep(params, tree, u)
        u_hats = levels[:-1]
        x = downward_sweep(factor, levels, tree)
        assert rel_err(x, solve(params, tree, u)) == 0.0
        # back-substitution wrote each level's solution into its u_hat buffer
        assert all(x_l is u_hat for x_l, u_hat in zip(x.levels, u_hats))


def test_concurrent_solves_share_params():
    from concurrent.futures import ThreadPoolExecutor
    rng = np.random.default_rng(16)
    tree = build_perfect_tree(2, 64)
    params = random_params(tree, 2, heads=2, rng=rng)
    inputs = [random_rhs(tree, 2, heads=2, rng=rng) for _ in range(8)]
    serial = [solve(params, tree, u) for u in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda u: solve(params, tree, u), inputs))
    for a, b in zip(serial, parallel):
        assert rel_err(a, b) == 0.0


def test_segment_sum_with_empty_groups():
    x = np.arange(5.0)
    np.testing.assert_array_equal(segment_sum(x, [2, 0, 3], axis=0), [1.0, 0.0, 9.0])
    np.testing.assert_array_equal(segment_sum(x, [0, 5], axis=0), [0.0, 10.0])
    np.testing.assert_array_equal(segment_sum(x, [2, 3, 0], axis=0), [1.0, 9.0, 0.0])
    np.testing.assert_array_equal(segment_sum(x, [0, 0, 5, 0], axis=0), [0.0, 0.0, 10.0, 0.0])
    # an empty group must not send the other groups through prefix-sum differences
    v = np.array([1e8, -1e8 + 1, 1e8, 3, 1e-3, 2e-3])
    got = segment_sum(v, [3, 0, 3], axis=0)
    want = [np.sum(v[:3]), 0.0, np.sum(v[3:])]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    y = np.random.default_rng(0).standard_normal((2, 3, 7, 4, 1))
    sizes = [0, 3, 0, 4, 0]
    got = segment_sum(y, sizes, axis=2)
    starts = np.cumsum(sizes) - sizes
    want = np.stack([y[:, :, s:s + n].sum(axis=2) for s, n in zip(starts, sizes)], axis=2)
    assert got.shape == (2, 3, 5, 4, 1)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _reduceat_sums(values, sizes, axis):
    """Group sums by ``np.add.reduceat`` alone, zero for an empty group."""
    sizes = np.asarray(sizes)
    full = sizes > 0
    sums = np.add.reduceat(values, (np.cumsum(sizes) - sizes)[full], axis=axis)
    out = np.zeros((len(sizes),) + np.moveaxis(sums, axis, 0).shape[1:])
    out[full] = np.moveaxis(sums, axis, 0)
    return np.moveaxis(out, 0, axis)


def _segment_values(case, n, rng):
    """Values with n entries along the summed axis, and that axis."""
    if case == "axis0-1d":
        return rng.standard_normal(n), 0
    if case == "axis1-params":
        return rng.standard_normal((2, n, 3, 3)), 1
    shape = (2, 3, n, 2, 2)
    if case == "axis2-right-parts":
        return rng.standard_normal(shape), 2
    if case == "not-c-contiguous":
        values = np.asfortranarray(rng.standard_normal(shape))[..., ::-1]
        assert not values.flags.c_contiguous
        return values, 2
    if case == "signed-zeros":
        values = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        values[:, :, :2 * n // 5] = -0.0  # with five equal groups, the first two
        return values, 2
    assert case == "overflow"
    return rng.uniform(0.3, 1.0, shape) * 1.7e308, 2


_CASES = ["axis0-1d", "axis1-params", "axis2-right-parts", "not-c-contiguous", "signed-zeros",
          "overflow"]


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("case", _CASES)
def test_equal_groups_of_up_to_eight_sum_to_reduceats_bytes(case, k):
    values, axis = _segment_values(case, 5 * k, np.random.default_rng(k))
    with np.errstate(over="ignore" if case == "overflow" else "warn"):
        got = segment_sum(values, [k] * 5, axis=axis)
        _assert_identical(got, np.add.reduceat(values, np.arange(0, 5 * k, k), axis=axis))
    if case == "signed-zeros":
        assert np.signbit(got[:, :, :2]).all()
    if case == "overflow":
        assert np.isposinf(got).any()


@pytest.mark.parametrize("sizes", [[9] * 3, [16] * 2, [2, 0, 3, 3], [0, 4, 4], [2, 3, 1, 4],
                                   [2, 2, 3]],
                         ids=["9-ary", "16-ary", "childless", "childless-else-equal", "mixed",
                              "equal-prefix"])
@pytest.mark.parametrize("case", _CASES)
def test_other_groups_sum_by_reduceat(case, sizes):
    values, axis = _segment_values(case, sum(sizes), np.random.default_rng(len(sizes)))
    with np.errstate(over="ignore" if case == "overflow" else "warn"):
        _assert_identical(segment_sum(values, sizes, axis=axis),
                          _reduceat_sums(values, sizes, axis))


class TestVjpChecksSolution:
    def setup_method(self):
        rng = np.random.default_rng(30)
        self.tree = build_perfect_tree(2, 4)
        self.params = random_params(self.tree, 2, heads=2, rng=rng)
        self.u = random_rhs(self.tree, 2, heads=2, batch=3, rng=rng)
        self.g = random_rhs(self.tree, 2, heads=2, batch=3, rng=rng)
        self.x = solve(self.params, self.tree, self.u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_solution_rejected(self, bad):
        levels = [v.copy() for v in self.x.levels]
        levels[0][0, 0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="solution level 1 contains non-finite"):
            vjp(self.params, self.tree, self.u, TreeVector(tuple(levels)), self.g)

    def test_solution_heads_must_match(self):
        x = TreeVector(tuple(v[:, :1] for v in self.x.levels))
        with pytest.raises(ValueError, match="solution heads 1 != parameter heads 2"):
            vjp(self.params, self.tree, self.u, x, self.g)

    def test_cotangent_right_parts_must_match(self):
        u = random_rhs(self.tree, 2, heads=2, batch=3, right_parts=2, rng=np.random.default_rng(1))
        x = solve(self.params, self.tree, u)
        fragment = "cotangent (3, 1) must equal right part (3, 2)"
        with pytest.raises(ValueError, match=re.escape(fragment)):
            vjp(self.params, self.tree, u, x, self.g)

    def test_right_part_columns_must_match_solution(self):
        u = random_rhs(self.tree, 2, heads=2, batch=3, right_parts=5, rng=np.random.default_rng(1))
        x = TreeVector(tuple(v[..., :2] for v in u.levels))
        g = TreeVector(tuple(v[..., :2] for v in u.levels))
        with pytest.raises(ValueError, match=re.escape("right part (3, 5), solution (3, 2)")):
            vjp(self.params, self.tree, u, x, g)

    def test_solution_batch_must_match_cotangent_or_be_one(self):
        x = TreeVector(tuple(v[:2] for v in self.x.levels))
        with pytest.raises(ValueError, match=re.escape("cotangent (3, 1) must equal right part "
                                                       "(3, 1), solution (2, 1)")):
            vjp(self.params, self.tree, self.u, x, self.g)

    def test_batch_one_solution_is_shared_by_every_cotangent(self):
        x1 = TreeVector(tuple(v[:1] for v in self.x.levels))
        _, shared = vjp(self.params, self.tree, self.u, x1, self.g)
        x3 = TreeVector(tuple(np.repeat(v, 3, axis=0) for v in x1.levels))
        _, repeated = vjp(self.params, self.tree, self.u, x3, self.g)
        for a, b in zip(shared.A + shared.B + shared.C,
                        repeated.A + repeated.B + repeated.C):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


_CHAIN = build_chain(3)
_CHAIN_PARAMS = init_random_stable(_CHAIN, 1)


def _right_part(tree, heads=1):
    return random_rhs(tree, 1, heads=heads, rng=np.random.default_rng(0))


def _zero_below(v: TreeVector, t: int, fill: float = 0.0) -> TreeVector:
    """``v`` with its lowest ``t`` levels set to ``fill``, as a pooled loss's cotangent is."""
    return TreeVector(tuple(np.full_like(a, fill) if l < t else a for l, a in enumerate(v.levels)))


@pytest.mark.parametrize("call, fragment", [
    (lambda: solve(_CHAIN_PARAMS, _CHAIN, _right_part(build_chain(2))), "2 levels, tree has 3"),
    (lambda: solve(_CHAIN_PARAMS, _CHAIN, _right_part(_CHAIN, heads=2)),
     "right part heads 2 != parameter heads 1"),
    (lambda: solve(_CHAIN_PARAMS, _CHAIN, _right_part(build_perfect_tree(2, 4))),
     "right part node counts"),
], ids=["depth", "heads", "node-counts"])
def test_structure_errors(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


def _arrays(result):
    """Every array of a solve, transpose solve or vjp result, in order."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, TreeVector):
        return list(result.levels)
    return [a for part in result for a in _arrays(part)]


def _assert_identical(got, want):
    got, want = _arrays(got), _arrays(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):  # bytes, so a -0.0 for a +0.0 differs too
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _twin(params):
    """A new instance with the same blocks, so it has no cached factor."""
    return LevelParams(params.A, params.B, params.C)


class TestFactorCache:
    """Repeat calls on one instance reuse its factor and still equal first calls."""

    TREES = {
        "quadtree": lambda: build_perfect_tree(4, 16),
        "chain": lambda: build_chain(9),
        "irregular-childless": lambda: TreeTopology((2, 2, 1), ((2, 0), (2,))),
    }

    @pytest.mark.parametrize("name", TREES)
    def test_repeat_calls_equal_a_fresh_instance(self, name):
        tree = self.TREES[name]()
        rng = np.random.default_rng(40)
        params = random_params(tree, 2, heads=2, rng=rng)
        for batch in (1, 3, 2):  # first, second and third call, each with new inputs
            u, g = (random_rhs(tree, 2, heads=2, batch=batch, rng=rng) for _ in range(2))
            x = solve(params, tree, u)
            _assert_identical(x, solve(_twin(params), tree, u))
            _assert_identical(solve_transpose(params, tree, g),
                              solve_transpose(_twin(params), tree, g))
            _assert_identical(vjp(params, tree, u, x, g), vjp(_twin(params), tree, u, x, g))

    def test_repeat_calls_skip_the_parameter_half(self, monkeypatch):
        import treesolve.solver as solver_module
        calls = []
        step = solver_module.upward_step
        monkeypatch.setattr(solver_module, "upward_step",
                            lambda *a, **k: calls.append(1) or step(*a, **k))
        tree = build_perfect_tree(2, 8)
        params = random_params(tree, 2, rng=np.random.default_rng(41))
        u = random_rhs(tree, 2, rng=np.random.default_rng(42))
        counts = []
        for call in (solve, solve, solve_transpose, solve_transpose, solve_with_stats):
            calls.clear()
            call(params, tree, u)
            counts.append(len(calls))
        assert counts == [tree.depth - 1, 0, tree.depth - 1, 0, 0]
        # one self-sufficient factor per direction, and no transposed parameters
        assert set(params._factors) == {(tree, False), (tree, True)}
        assert all(type(f) is solver_module._Factor for f in params._factors.values())

    def test_each_step_names_its_child_level_by_keyword(self, monkeypatch):
        # treebench charges a step's time to the level its child_level keyword names
        import treesolve.solver as solver_module
        calls = []
        step = solver_module.upward_step
        monkeypatch.setattr(solver_module, "upward_step",
                            lambda *a, **k: calls.append((len(a), k)) or step(*a, **k))
        tree = build_perfect_tree(2, 8)
        params = random_params(tree, 2, rng=np.random.default_rng(43))
        u = random_rhs(tree, 2, rng=np.random.default_rng(44))
        for call in (solve, solve_transpose):
            calls.clear()
            call(params, tree, u)
            assert calls == [(5, {"child_level": l}) for l in range(tree.depth - 1)]

    def test_one_instance_on_two_trees_with_equal_level_sizes(self):
        trees = [TreeTopology((4, 2, 1), ((2, 2), (2,))), TreeTopology((4, 2, 1), ((3, 1), (2,)))]
        rng = np.random.default_rng(43)
        params = random_params(trees[0], 2, heads=2, rng=rng)
        for _ in range(2):
            for tree in trees:
                u = random_rhs(tree, 2, heads=2, rng=rng)
                system = DenseSystem(params, tree)
                assert rel_err(solve(params, tree, u), system.solve(u)) < 1e-11
                want = system.unpack(np.linalg.solve(system.matrix.swapaxes(-1, -2),
                                                     system.pack(u)))
                assert rel_err(solve_transpose(params, tree, u), want) < 1e-11

    @pytest.mark.parametrize("A_root, where", [(0.0, "level 2, node 1"), (1.0, "level 3, node 1")],
                             ids=["below-root", "root"])
    def test_singular_block_raises_again_at_the_same_place(self, A_root, where):
        # chain 1-2-3 with A_2 = 0, or A_2 = 1 whose B = C = 1 cancel the root's A_3 = 1
        tree = build_chain(3)
        one = np.ones((1, 1, 1, 1))
        params = LevelParams((one, A_root * one, one), (0 * one, one), (one, one))
        u = random_rhs(tree, 1, rng=np.random.default_rng(44))
        for call in (solve, solve_transpose):
            found = []
            for _ in range(2):
                with pytest.raises(SingularBlockError) as info:
                    call(params, tree, u)
                e = info.value
                found.append((e.level, e.node, e.head, e.block_index, e.pivot_step, str(e)))
                assert params._factors == {}  # a failed elimination caches nothing
            assert found[0] == found[1]
            assert where in found[0][-1]

    def test_equality_and_repr_ignore_the_cache(self):
        import dataclasses
        tree = build_chain(3)
        params = init_random_stable(tree, 1, seed=3)  # one-entry blocks, so == is decidable
        twin, before = _twin(params), repr(params)
        u = random_rhs(tree, 1, rng=np.random.default_rng(45))
        solve(params, tree, u)
        vjp(params, tree, u, solve(params, tree, u), u)
        assert repr(params) == before == repr(twin)
        assert params == twin
        assert [f.name for f in dataclasses.fields(params)] == ["A", "B", "C"]

    def test_concurrent_first_calls_equal_serial_ones(self):
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(46)
        tree = build_perfect_tree(2, 64)
        params = random_params(tree, 2, heads=2, rng=rng)
        jobs = [(call, random_rhs(tree, 2, heads=2, batch=2, rng=rng))
                for call in (solve, solve_transpose) * 2]
        serial = [call(_twin(params), tree, v) for call, v in jobs]
        shared = _twin(params)
        start = threading.Barrier(len(jobs), timeout=30)

        def run(job):
            start.wait()  # every call starts on the uncached instance together
            return job[0](shared, tree, job[1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the cache's check and store
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                parallel = list(pool.map(run, jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(parallel, serial):
            _assert_identical(a, b)
        for (call, v), want in zip(jobs, serial):  # and the cached factors they left
            _assert_identical(call(shared, tree, v), want)


def _level_loop(params, tree, u, transposed=False):
    """solve as a plain level loop that hands the steps raw split-size lists."""
    A, B, C = transpose_params(params) if transposed else (params.A, params.B, params.C)
    a, carry_u, hats = A[0], u.levels[0], []
    for l in range(1, tree.depth):
        split = list(tree.split_sizes[l - 1])
        a, b_hat, inv = upward_step(a, B[l - 1], C[l - 1], A[l], split, child_level=l - 1)
        u_hat = inv @ carry_u
        carry_u = u.levels[l] - segment_sum(C[l - 1] @ u_hat, split, axis=2)
        hats.append((u_hat, b_hat))
    xs = [invert_level(a, tree.depth) @ carry_u]
    for l in range(tree.depth - 2, -1, -1):
        xs.insert(0, downward_step(*hats[l], xs[0], list(tree.split_sizes[l])))
    return TreeVector(tuple(xs))


def _level_loop_vjp(params, tree, x, g):
    """vjp from the level loop, gathering parents by index on every level."""
    y = _level_loop(params, tree, g, transposed=True)
    outer = lambda a, b: -np.einsum("bhnir,bhnjr->hnij", a, b)
    grad_A = tuple(outer(y_l, x_l) for y_l, x_l in zip(y.levels, x.levels))
    grad_B, grad_C = [], []
    for l, split in enumerate(tree.split_sizes):
        parent = np.repeat(np.arange(len(split)), split)
        grad_B.append(outer(y.levels[l], x.levels[l + 1][:, :, parent]))
        grad_C.append(outer(y.levels[l + 1][:, :, parent], x.levels[l]))
    return y, (grad_A, tuple(grad_B), tuple(grad_C))


class TestChildGroupPath:
    """The sweeps on a tree's split_sizes tuples equal a level loop on lists and index gathers."""

    TREES = {
        "chain": (lambda: build_chain(6), 2),
        "one-child-and-branching": (
            lambda: TreeTopology((6, 3, 3, 2, 2, 1), ((2, 1, 3), (1, 1, 1), (2, 1), (1, 1), (2,))),
            2),
        "childless": (lambda: TreeTopology((5, 3, 3, 1), ((2, 0, 3), (1, 1, 1), (3,))), 2),
        "block-sizes-per-level": (
            lambda: TreeTopology((4, 4, 2, 2, 1), ((1, 1, 1, 1), (2, 2), (1, 1), (2,))),
            [2, 1, 3, 2, 4]),
        # perfect trees sum by slices (arity 4) and by reduceat (arity 16); with
        # r = 2 the vjp einsums also see how the parent gather is laid out
        "4-ary": (lambda: build_perfect_tree(4, 64), 2),
        "16-ary": (lambda: build_perfect_tree(16, 256), 1),
    }

    @pytest.mark.parametrize("name", TREES)
    def test_equals_the_level_loop_on_cache_miss_and_hit(self, name):
        make, d = self.TREES[name]
        tree = make()
        rng = np.random.default_rng(50)
        params = random_params(tree, d, heads=2, rng=rng)
        for call in ("miss", "hit"):
            u, g = (random_rhs(tree, d, heads=2, batch=3, right_parts=2, rng=rng)
                    for _ in range(2))
            x = solve(params, tree, u)
            _assert_identical(x, _level_loop(params, tree, u))
            _assert_identical(solve_transpose(params, tree, g),
                              _level_loop(params, tree, g, transposed=True))
            _assert_identical(vjp(params, tree, u, x, g), _level_loop_vjp(params, tree, x, g))

    @pytest.mark.parametrize("name", [*TREES, "8x8-image"])
    def test_zero_lowest_levels_equal_the_level_loop(self, name):
        # the sweeps skip a right part's all-zero lowest levels; the level loop does
        # not, so every bit must agree, a -0.0 fill's and the all-zero vector's too
        make, d = self.TREES.get(name, (lambda: build_quadtree(GridShape(8, 8)), 1))
        tree = make()
        rng = np.random.default_rng(55)
        base = random_params(tree, d, heads=2, rng=rng)
        systems = {"A": base, "-A": LevelParams(tuple(-a for a in base.A), base.B, base.C),
                   "zero-couplings": LevelParams(base.A, tuple(0 * b for b in base.B),
                                                 tuple(0 * c for c in base.C))}
        for kind, r, t, fill in itertools.product(systems, (1, 2), range(tree.depth + 1),
                                                  (0.0, -0.0)):
            if kind == "zero-couplings" and r == 2:
                continue
            params = _twin(systems[kind])
            u, g = (_zero_below(random_rhs(tree, d, heads=2, batch=2, right_parts=r, rng=rng),
                                t, fill) for _ in range(2))
            if t < tree.depth:
                u.levels[t].flat[0] = fill  # the lowest nonzero level starts with a zero
            want = (_level_loop(params, tree, u), _level_loop(params, tree, g, transposed=True))
            for call in ("miss", "hit"):
                x = solve(params, tree, u)
                _assert_identical(x, want[0])
                _assert_identical(solve_transpose(params, tree, g), want[1])
                _assert_identical(vjp(params, tree, u, x, g), _level_loop_vjp(params, tree, x, g))

    def test_skipped_levels_still_step_down_with_their_shapes(self, monkeypatch):
        # treebench charges a downward_step to the level that np.shape(args[0])[2] names
        import treesolve.solver as solver_module
        shapes = []
        step = solver_module.downward_step
        monkeypatch.setattr(solver_module, "downward_step",
                            lambda *a, **k: shapes.append(np.shape(a[0])) or step(*a, **k))
        tree = build_quadtree(GridShape(8, 8))
        rng = np.random.default_rng(56)
        params = random_params(tree, 1, heads=2, rng=rng)
        u = random_rhs(tree, 1, heads=2, batch=3, rng=rng)
        g = _zero_below(random_rhs(tree, 1, heads=2, batch=3, rng=rng), tree.depth - 2)
        x = solve(params, tree, u)
        for call in (lambda: solve(params, tree, g), lambda: solve_transpose(params, tree, g),
                     lambda: vjp(params, tree, u, x, g)):
            shapes.clear()
            call()
            assert shapes == [g.levels[l].shape for l in range(tree.depth - 2, -1, -1)]

    def test_scalar_zero_right_part_with_negative_diagonal(self):
        # the inverses are negative, so a plain multiply of the zero right part gives -0.0
        tree = self.TREES["one-child-and-branching"][0]()
        params = random_params(tree, 1, heads=2, rng=np.random.default_rng(53))
        params = LevelParams(tuple(-a for a in params.A), params.B, params.C)
        zero = TreeVector(tuple(np.zeros((2, 2, n, 1, 1)) for n in tree.level_sizes))
        want = _level_loop(params, tree, zero)
        assert not any(np.signbit(x).any() for x in want.levels)
        for _ in ("miss", "hit"):
            _assert_identical(solve(params, tree, zero), want)
            _assert_identical(solve_transpose(params, tree, zero),
                              _level_loop(params, tree, zero, transposed=True))

    def test_transpose_params_are_read_only_views(self):
        make, d = self.TREES["block-sizes-per-level"]
        params = random_params(make(), d, heads=2, rng=np.random.default_rng(54))
        A, B, C = transpose_params(params)
        copy = LevelParams(A, B, C)
        for view, own, copied in zip(A + B + C,
                                     params.A + params.C + params.B,
                                     copy.A + copy.B + copy.C):
            assert not view.flags.writeable
            assert np.shares_memory(view, own)
            # the strides LevelParams's copy keeps; a length-1 axis's stride addresses nothing
            assert ([s for s, n in zip(view.strides, view.shape) if n > 1]
                    == [s for s, n in zip(copied.strides, copied.shape) if n > 1])
            assert np.array_equal(view, own.swapaxes(-1, -2))

    def test_one_child_steps_equal_the_general_ones(self):
        rng = np.random.default_rng(51)
        values = rng.standard_normal((2, 3, 4, 2, 1))
        assert np.array_equal(segment_sum(values, [1, 1, 1, 1], axis=2),
                              np.add.reduceat(values, np.arange(4), axis=2))
        # back-substitution and vjp's parent gather against an index gather, on one
        # child each, equal groups by scalar repeat, and unequal or empty groups
        x = rng.standard_normal((2, 3, 4, 2, 2))
        for split in [(1, 1, 1, 1), (2, 2, 2, 2), (3, 0, 1, 4), (9,) * 4]:
            idx = np.repeat(np.arange(4), split)
            u_hat = rng.standard_normal((2, 3, len(idx), 2, 2))
            b_hat = rng.standard_normal((3, len(idx), 2, 2))
            want = u_hat + b_hat @ x[:, :, idx]
            _assert_identical(downward_step(u_hat.copy(), b_hat, x, split), want)
            got, want = _gather_parents(x, split), x[:, :, idx]
            assert np.array_equal(got, want)
            if split == (1, 1, 1, 1):
                assert got is x
            else:
                assert got.strides == want.strides

    def test_a_factor_cached_on_one_tree_serves_an_equal_tree(self, monkeypatch):
        import treesolve.solver as solver_module
        tree = self.TREES["childless"][0]()
        twin = TreeTopology(tree.level_sizes, tree.split_sizes)
        rng = np.random.default_rng(52)
        params = random_params(tree, 2, rng=rng)
        u = random_rhs(tree, 2, rng=rng)
        want = solve(params, tree, u)
        calls = []
        step = solver_module.upward_step
        monkeypatch.setattr(solver_module, "upward_step",
                            lambda *a, **k: calls.append(1) or step(*a, **k))
        _assert_identical(solve(params, twin, u), want)
        assert calls == [] and len(params._factors) == 1


class TestSolvesNeitherWriteNorAlias:
    """Back-substitution overwrites buffers in place, but only the solve's own fresh ones."""

    TREES = {
        "root-only": lambda: build_perfect_tree(2, 1),
        "7-chain": lambda: build_chain(7),
        "16-leaf-quadtree": lambda: build_perfect_tree(4, 16),
        "childless": lambda: TreeTopology((5, 3, 3, 1), ((2, 0, 3), (1, 1, 1), (3,))),
    }

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("name", TREES)
    def test_inputs_keep_their_bytes_and_outputs_own_their_memory(self, name, r):
        tree = self.TREES[name]()
        rng = np.random.default_rng(60)
        params = random_params(tree, 2, heads=2, rng=rng)
        u, g = (random_rhs(tree, 2, heads=2, batch=2, right_parts=r, rng=rng) for _ in range(2))
        pooled = _zero_below(random_rhs(tree, 2, heads=2, batch=2, right_parts=r, rng=rng),
                             tree.depth - 1)  # skips every level below the root
        leaf = rng.standard_normal((2, tree.level_sizes[0], 2))
        config = LayerConfig(tree, (2,) * tree.depth, heads=2)
        x = solve(params, tree, u)
        calls = {  # each runs twice below; solve_transpose first misses the cache
            "solve": lambda: solve(params, tree, u),
            "solve_transpose": lambda: solve_transpose(params, tree, g),
            "solve_with_stats": lambda: solve_with_stats(params, tree, u)[0],
            "vjp": lambda: vjp(params, tree, u, x, g),
            "forward": lambda: forward(config, params, leaf),
            "pooled solve": lambda: solve(params, tree, pooled),
            "pooled solve_transpose": lambda: solve_transpose(params, tree, pooled),
            "pooled vjp": lambda: vjp(params, tree, u, x, pooled),
        }
        inputs = [*u.levels, *g.levels, *pooled.levels, *x.levels, leaf,
                  *params.A, *params.B, *params.C]
        saved = [a.copy() for a in inputs]
        results = {(call, k): _arrays(run()) for call, run in calls.items() for k in range(2)}
        cached = [a for f in params._factors.values() for part in f for a in _arrays(part)]
        assert cached
        for a, b in zip(inputs, saved):
            _assert_identical(a, b)
        returned = [(key, a) for key, arrays in results.items() for a in arrays]
        for i, (key, a) in enumerate(returned):
            assert not any(np.shares_memory(a, b) for b in inputs + cached), key
            assert not any(np.shares_memory(a, b) for _, b in returned[i + 1:]), key
        for call, run in calls.items():  # scribble over its results, then solve again
            want = [a.copy() for a in results[(call, 0)]]
            for k in range(2):
                for a in results[(call, k)]:
                    a[...] = np.nan
            _assert_identical(run(), want)
