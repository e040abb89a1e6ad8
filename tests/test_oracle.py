import re

import numpy as np
import pytest

from treesolve import (DenseSystem, LevelParams, TreeTopology, TreeVector,
                       bidiagonal_solve, build_chain, build_perfect_tree,
                       chain_inverse_entry, finite_diff_grad,
                       init_random_stable, solve, ssm_reference, ssm_to_chain,
                       tridiag_bidiagonal_factor, vjp)
from treesolve.oracle import chain_tridiagonal_blocks
from helpers import dot, random_params, random_rhs, rel_err, with_nan


def scalar(v):
    return np.array(v, dtype=np.float64).reshape(1, 1, 1, 1)


class TestAssembly:
    def test_chain_is_lower_bidiagonal(self):
        tree = build_chain(3)
        ones = np.ones((1, 1, 1, 1))
        params = LevelParams((ones, ones, ones), (0 * ones, 0 * ones),
                             (2 * ones, 3 * ones))
        m = DenseSystem(params, tree).matrix[0]
        np.testing.assert_array_equal(m, [[1, 0, 0], [2, 1, 0], [0, 3, 1]])

    def test_star_is_arrowhead(self):
        tree = build_perfect_tree(2, 2)
        params = LevelParams(
            (np.ones((1, 2, 1, 1)), scalar(5)),
            (np.array([1.0, 2.0]).reshape(1, 2, 1, 1),),
            (np.array([3.0, 4.0]).reshape(1, 2, 1, 1),),
        )
        m = DenseSystem(params, tree).matrix[0]
        np.testing.assert_array_equal(m, [[1, 0, 1], [0, 1, 2], [3, 4, 5]])

    def test_binary_four_leaves_sparsity_pattern(self):
        rng = np.random.default_rng(0)
        tree = build_perfect_tree(2, 4)
        params = random_params(tree, 1, rng=rng)
        m = DenseSystem(params, tree).matrix[0]
        # rows in post-order: 1,2,[1;2],3,4,[3;4],[1;4]; blocks allowed on the
        # diagonal and between each node and its parent only
        allowed = np.zeros((7, 7), dtype=bool)
        allowed[np.arange(7), np.arange(7)] = True
        for child, parent in [(0, 2), (1, 2), (3, 5), (4, 5), (2, 6), (5, 6)]:
            allowed[child, parent] = True
            allowed[parent, child] = True
        assert (m[~allowed] == 0).all()
        assert (m[allowed] != 0).all()

    def test_node_cap_guard(self):
        tree = build_perfect_tree(2, 8)
        params = init_random_stable(tree, 1, seed=0)
        with pytest.raises(ValueError, match="capped"):
            DenseSystem(params, tree, max_nodes=10)

    def test_ssm_chain_assembles_lower_bidiagonal(self):
        rng = np.random.default_rng(1)
        L, d = 6, 2
        S = np.eye(d) + 0.3 * rng.uniform(-1, 1, (L, d, d))
        I = rng.uniform(-1, 1, (L - 1, d, d))
        m = DenseSystem(ssm_to_chain(I, S), build_chain(L)).matrix[0]
        blk = np.arange(L * d) // d
        above_diag_block = blk[None, :] > blk[:, None]
        assert np.max(np.abs(m[above_diag_block])) == 0.0


class TestDenseSolve:
    def test_identity(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 2, seed=0, coupling_scale=0.0)
        u = random_rhs(tree, 2, rng=np.random.default_rng(2))
        assert rel_err(DenseSystem(params, tree).solve(u), u) == 0.0

    def test_star_hand_solve(self):
        tree = build_chain(2)
        params = LevelParams((scalar(2), scalar(3)), (scalar(1),), (scalar(1),))
        u = TreeVector((scalar(2)[None], scalar(1)[None]))
        x = DenseSystem(params, tree).solve(u)
        np.testing.assert_allclose(
            [v.reshape(-1)[0] for v in x.levels], [1.0, 0.0], atol=1e-15)

    def test_residual_property(self):
        rng = np.random.default_rng(3)
        tree = build_perfect_tree(3, 27)
        params = random_params(tree, 2, heads=2, rng=rng)
        u = random_rhs(tree, 2, heads=2, batch=2, right_parts=2, rng=rng)
        system = DenseSystem(params, tree)
        x = system.solve(u)
        assert system.residual(x, u) <= 1e-12 * max(1.0, u.max_abs())

    def test_inverse_exposed(self):
        tree = build_chain(2)
        params = LevelParams((scalar(2), scalar(3)), (scalar(1),), (scalar(1),))
        inv = DenseSystem(params, tree).inverse()
        np.testing.assert_allclose(inv[0] @ np.array([[2, 1], [1, 3]]), np.eye(2),
                                   atol=1e-14)


_TREE = build_perfect_tree(2, 4)
_PARAMS = init_random_stable(_TREE, 1, heads=3, seed=0)


@pytest.mark.parametrize("method", ["solve", "matvec", "residual"])
@pytest.mark.parametrize("bad, fragment", [
    (random_rhs(_TREE, 1, heads=1), "heads 1 != parameter heads 3"),
    (random_rhs(_TREE, 2, heads=3), "block sizes (2, 2, 2) != parameter blocks (1, 1, 1)"),
    (random_rhs(build_perfect_tree(2, 2), 1, heads=3), "has 2 levels, tree has 3"),
    (with_nan(random_rhs(_TREE, 1, heads=3), 1), "level 2 contains non-finite entries"),
], ids=["heads", "block-sizes", "depth", "non-finite"])
def test_dense_system_refuses_what_the_solver_refuses(method, bad, fragment):
    system = DenseSystem(_PARAMS, _TREE)
    calls = {"solve": lambda: system.solve(bad), "matvec": lambda: system.matvec(bad),
             "residual": lambda: system.residual(bad, bad)}
    # matvec and residual take the bad vector as a solution first
    role = "right part" if method == "solve" else "solution"
    for call, what in ((calls[method], role), (lambda: solve(_PARAMS, _TREE, bad), "right part")):
        with pytest.raises(ValueError, match=re.escape(f"{what} {fragment}")):
            call()


def test_residual_names_a_bad_right_part():
    system = DenseSystem(_PARAMS, _TREE)
    x = random_rhs(_TREE, 1, heads=3)
    with pytest.raises(ValueError, match=re.escape("right part heads 1 != parameter heads 3")):
        system.residual(x, random_rhs(_TREE, 1, heads=1))


class TestSsmReference:
    def test_no_interaction_is_pointwise(self):
        rng = np.random.default_rng(4)
        S = rng.standard_normal((5, 2, 2))
        u = rng.standard_normal((5, 2, 1))
        x = ssm_reference(np.zeros((4, 2, 2)), S, u)
        np.testing.assert_allclose(x, S @ u)

    def test_scalar_recurrence(self):
        x = ssm_reference(np.full((2, 1, 1), 0.5), np.full((3, 1, 1), 2.0),
                          np.ones((3, 1, 1)))
        np.testing.assert_allclose(x.reshape(-1), [2.0, 3.0, 3.5])

    def test_impulse_propagates_unchanged(self):
        d = 3
        S = np.broadcast_to(np.eye(d), (6, d, d))
        I = np.broadcast_to(np.eye(d), (5, d, d))
        u = np.zeros((6, d, 1))
        u[0, 0, 0] = 1.0
        x = ssm_reference(I, S, u)
        want = np.zeros((d, 1))
        want[0, 0] = 1.0
        for k in range(6):
            np.testing.assert_array_equal(x[k], want)


class TestChainInverse:
    def test_diagonal_and_upper(self):
        sub = np.array([[[2.0]], [[3.0]]])
        np.testing.assert_array_equal(chain_inverse_entry(sub, 2, 2), [[1.0]])
        np.testing.assert_array_equal(chain_inverse_entry(sub, 1, 3), [[0.0]])

    def test_hand_values(self):
        sub = np.array([[[2.0]], [[3.0]]])
        assert chain_inverse_entry(sub, 3, 1)[0, 0] == 6.0
        assert chain_inverse_entry(sub, 3, 2)[0, 0] == -3.0
        assert chain_inverse_entry(sub, 2, 1)[0, 0] == -2.0

    def test_zero_couplings_identity_inverse(self):
        sub = np.zeros((3, 2, 2))
        for i in range(1, 5):
            for j in range(1, 5):
                want = np.eye(2) if i == j else np.zeros((2, 2))
                np.testing.assert_array_equal(chain_inverse_entry(sub, i, j), want)

    @pytest.mark.parametrize("i, j, fragment", [
        (2.5, 1, "index i must be an integer, got 2.5"),
        (1, "2", "index j must be an integer, got '2'"),
        (np.float64(2.0), 1, "index i must be an integer"),
        (0, 1, "indices (0, 1) outside chain of length 3"),
        (1, 4, "indices (1, 4) outside chain of length 3"),
    ], ids=["float-i", "string-j", "numpy-float-i", "i-below", "j-above"])
    def test_bad_index_is_value_error(self, i, j, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            chain_inverse_entry(np.ones((2, 1, 1)), i, j)

    def test_numpy_integer_index_accepted(self):
        sub = np.array([[[2.0]], [[3.0]]])
        assert chain_inverse_entry(sub, np.int64(3), np.int32(1))[0, 0] == 6.0

    @pytest.mark.parametrize("L,d", [(8, 1), (12, 2)])
    def test_matches_dense_inverse(self, L, d):
        rng = np.random.default_rng(L)
        sub = rng.uniform(-0.9, 0.9, (L - 1, d, d))
        eye = np.broadcast_to(np.eye(d), (1, 1, d, d)).copy()
        params = LevelParams(
            tuple(eye for _ in range(L)),
            tuple(np.zeros((1, 1, d, d)) for _ in range(L - 1)),
            tuple(sub[k].reshape(1, 1, d, d) for k in range(L - 1)),
        )
        inv = DenseSystem(params, build_chain(L)).inverse()[0]
        for i in range(1, L + 1):
            for j in range(1, L + 1):
                got = chain_inverse_entry(sub, i, j)
                want = inv[(i - 1) * d : i * d, (j - 1) * d : j * d]
                np.testing.assert_allclose(got, want, atol=1e-12)


class TestBidiagonalFactorization:
    @staticmethod
    def dense_tridiag(diag, sub, sup):
        L, d = diag.shape[0], diag.shape[-1]
        m = np.zeros((L * d, L * d))
        for k in range(L):
            m[k * d:(k + 1) * d, k * d:(k + 1) * d] = diag[k]
        for k in range(L - 1):
            m[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = sub[k]
            m[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = sup[k]
        return m

    @staticmethod
    def dense_factors(fac):
        L, d = fac.upper_diag.shape[0], fac.upper_diag.shape[-1]
        lo = np.eye(L * d)
        up = np.zeros((L * d, L * d))
        for k in range(L):
            up[k * d:(k + 1) * d, k * d:(k + 1) * d] = fac.upper_diag[k]
        for k in range(L - 1):
            lo[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = fac.lower_sub[k]
            up[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = fac.upper_super[k]
        return lo, up

    def test_diagonal_system(self):
        diag = np.stack([np.eye(2) * (k + 1) for k in range(4)])
        zeros = np.zeros((3, 2, 2))
        fac = tridiag_bidiagonal_factor(diag, zeros, zeros)
        np.testing.assert_array_equal(fac.lower_sub, 0)
        np.testing.assert_array_equal(fac.upper_diag, diag)

    def test_scalar_tridiagonal_two_sweep(self):
        diag = np.full((3, 1, 1), 2.0)
        off = np.array([[[1.0]], [[-1.0]]])
        fac = tridiag_bidiagonal_factor(diag, off, -off)
        u = np.array([[[1.0]], [[0.0]], [[2.0]]])
        x = bidiagonal_solve(fac, u)
        m = self.dense_tridiag(diag, off, -off)
        np.testing.assert_allclose(x.reshape(-1), np.linalg.solve(m, u.reshape(-1)),
                                   atol=1e-12)

    def test_one_node_chain_solves_its_diagonal(self):
        rng = np.random.default_rng(9)
        a = np.eye(3) + 0.3 * rng.uniform(-1, 1, (2, 1, 3, 3))
        diag, sub, sup = chain_tridiagonal_blocks(LevelParams((a,), (), ()))
        assert sub.shape == sup.shape == (2, 0, 3, 3)
        u = rng.standard_normal((2, 1, 3, 2))
        x = bidiagonal_solve(tridiag_bidiagonal_factor(diag, sub, sup), u)
        np.testing.assert_allclose(x, np.linalg.solve(a, u), rtol=1e-13, atol=0)

    def test_reconstruction_long_chain(self):
        rng = np.random.default_rng(64)
        L = 64
        diag = 2.0 + rng.uniform(-0.3, 0.3, (L, 1, 1))
        off = rng.uniform(-0.8, 0.8, (L - 1, 1, 1))
        fac = tridiag_bidiagonal_factor(diag, off, off.copy())
        lo, up = self.dense_factors(fac)
        np.testing.assert_allclose(lo @ up, self.dense_tridiag(diag, off, off),
                                   atol=1e-12)

    def test_vanishing_minor_reports_index(self):
        diag = np.ones((3, 1, 1))
        diag[1] = 0.25
        sub = np.full((2, 1, 1), 0.5)
        sup = np.full((2, 1, 1), 0.5)
        # second pivot: 0.25 - 0.5 * 0.5 = 0 exactly
        with pytest.raises(ValueError, match="block 2"):
            tridiag_bidiagonal_factor(diag, sub, sup)

    def test_chain_blocks_roundtrip(self):
        rng = np.random.default_rng(7)
        L, d = 5, 2
        diag = np.eye(d) * 2 + 0.1 * rng.uniform(-1, 1, (L, d, d))
        sub = 0.3 * rng.uniform(-1, 1, (L - 1, d, d))
        sup = 0.3 * rng.uniform(-1, 1, (L - 1, d, d))
        params = LevelParams(
            tuple(diag[k].reshape(1, 1, d, d) for k in range(L)),
            tuple(sup[k].reshape(1, 1, d, d) for k in range(L - 1)),
            tuple(sub[k].reshape(1, 1, d, d) for k in range(L - 1)),
        )
        got_diag, got_sub, got_sup = chain_tridiagonal_blocks(params)
        np.testing.assert_array_equal(got_diag[0], diag)
        np.testing.assert_array_equal(got_sub[0], sub)
        np.testing.assert_array_equal(got_sup[0], sup)


@pytest.mark.parametrize("call, message", [
    (lambda: chain_tridiagonal_blocks(init_random_stable(build_perfect_tree(2, 2))),
     "chain blocks need a chain system (one node per level)"),
    (lambda: chain_tridiagonal_blocks(init_random_stable(build_chain(2), [1, 2])),
     "uniform block size required, got (1, 2)"),
    (lambda: chain_inverse_entry(np.ones((2, 2)), 1, 1),
     "subdiagonal blocks must be (L-1, d, d), got (2, 2)"),
], ids=["not-a-chain", "mixed-block-sizes", "2d-blocks"])
def test_chain_helpers_refuse_bad_shapes(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_ONES = np.ones((1, 1, 1))
_COMPLEX = np.ones((1, 1, 1), complex)


# a float64 cast would keep only the real part of a complex input
@pytest.mark.parametrize("call, message", [
    (lambda: ssm_reference(_ONES, np.ones((2, 1, 1), complex), np.ones((2, 1, 1))),
     "input maps must be real, got complex128"),
    (lambda: ssm_reference(_COMPLEX, np.ones((2, 1, 1)), np.ones((2, 1, 1))),
     "interaction must be real, got complex128"),
    (lambda: ssm_reference(_ONES, np.ones((2, 1, 1)), np.ones((2, 1, 1), complex)),
     "right part must be real, got complex128"),
    (lambda: chain_inverse_entry(_COMPLEX, 2, 1),
     "subdiagonal blocks must be real, got complex128"),
    (lambda: tridiag_bidiagonal_factor(np.ones((2, 1, 1), complex), _ONES, _ONES),
     "diagonal blocks must be real, got complex128"),
    (lambda: tridiag_bidiagonal_factor(2 * np.ones((2, 1, 1)), _COMPLEX, _ONES),
     "subdiagonal blocks must be real, got complex128"),
    (lambda: tridiag_bidiagonal_factor(2 * np.ones((2, 1, 1)), _ONES, _COMPLEX),
     "superdiagonal blocks must be real, got complex128"),
    (lambda: bidiagonal_solve(tridiag_bidiagonal_factor(2 * np.ones((2, 1, 1)), _ONES, _ONES),
                              np.ones((2, 1, 1), complex)),
     "right part must be real, got complex128"),
], ids=["ssm-maps", "ssm-interaction", "ssm-right-part", "chain-inverse", "tridiag-diag",
        "tridiag-sub", "tridiag-sup", "bidiagonal-right-part"])
def test_references_refuse_complex_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestFiniteDifferences:
    def test_identity_system_sum_loss(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 1, seed=0, coupling_scale=0.0)
        rng = np.random.default_rng(8)
        u = TreeVector(tuple(
            rng.integers(-8, 8, (1, 1, n, 1, 1)).astype(np.float64) / 8
            for n in tree.level_sizes))
        grad_u, _ = finite_diff_grad(params, tree, u,
                                     lambda x: float(sum(v.sum() for v in x.levels)),
                                     eps=2.0 ** -8)
        for v in grad_u.levels:
            np.testing.assert_array_equal(v, np.ones_like(v))

    def test_two_node_star_matches_symbolic(self):
        a, b, c, p = 2.0, 0.7, -0.4, 3.0
        u1, u2 = 1.3, -0.2
        tree = build_chain(2)
        params = LevelParams((scalar(a), scalar(p)), (scalar(b),), (scalar(c),))
        u = TreeVector((scalar(u1)[None], scalar(u2)[None]))
        loss = lambda x: float(x.levels[0].sum())  # L = x_1
        grad_u, grads = finite_diff_grad(params, tree, u, loss, eps=1e-6)
        T = np.array([[a, b], [c, p]])
        x = np.linalg.solve(T, [u1, u2])
        y = np.linalg.solve(T.T, [1.0, 0.0])  # dL/du = T^{-T} e_1
        np.testing.assert_allclose(grad_u.levels[0].reshape(-1)[0], y[0], atol=1e-8)
        np.testing.assert_allclose(grad_u.levels[1].reshape(-1)[0], y[1], atol=1e-8)
        np.testing.assert_allclose(grads.A[0].reshape(-1)[0], -y[0] * x[0], atol=1e-7)
        np.testing.assert_allclose(grads.C[0].reshape(-1)[0], -y[1] * x[0], atol=1e-7)

    @pytest.mark.parametrize("tree, sizes", [
        (TreeTopology((3, 2, 1), ((2, 1), (2,))), (1, 3, 2)),
        (TreeTopology((5, 3, 3, 1), ((2, 0, 3), (1, 1, 1), (3,))), (2, 1, 3, 2)),
    ], ids=["irregular-1-3-2", "childless-2-1-3-2"])
    def test_vjp_matches_on_mixed_block_sizes(self, tree, sizes):
        """B and C blocks differ in shape here, so their slices of the flat order are checked."""
        rng = np.random.default_rng(31)
        params = random_params(tree, sizes, heads=2, rng=rng, coupling=0.5)
        u = random_rhs(tree, sizes, heads=2, right_parts=2, rng=rng)
        g = random_rhs(tree, sizes, heads=2, right_parts=2, rng=rng)
        grad_u, grads = vjp(params, tree, u, solve(params, tree, u), g)
        fd_u, fd = finite_diff_grad(params, tree, u, lambda x: dot(g, x), eps=1e-5)
        for got, want in [*zip(grads.A, fd.A), *zip(grads.B, fd.B),
                          *zip(grads.C, fd.C), *zip(grad_u.levels, fd_u.levels)]:
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_rejects_bad_step(self):
        tree = build_chain(2)
        params = init_random_stable(tree, 1, seed=0)
        u = random_rhs(tree, 1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            finite_diff_grad(params, tree, u, lambda x: 0.0, eps=0.0)

    # a step that is no real number would meet a TypeError in isfinite or in 1j > 0
    @pytest.mark.parametrize("eps", [np.nan, np.inf, "a", None, 1j],
                             ids=["nan", "inf", "string", "none", "complex"])
    def test_rejects_non_finite_step(self, eps):
        tree = build_chain(2)
        params = init_random_stable(tree, 1, seed=0)
        u = random_rhs(tree, 1, rng=np.random.default_rng(0))
        message = f"step must be positive and finite, got {eps}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            finite_diff_grad(params, tree, u, lambda x: 0.0, eps=eps)
