import re
import warnings

import numpy as np
import pytest

from treesolve import (DenseSystem, LayerConfig, LevelParams, SingularBlockError, TreeVector,
                       apply_gauge, build_chain, build_perfect_tree, forward,
                       init_random_stable, scale_rhs, solve, ssm_reference,
                       ssm_to_chain)
from helpers import random_rhs, rel_err, with_nan


class TestContainers:
    def test_level_params_shape_checks(self):
        with pytest.raises(ValueError, match="must be"):
            LevelParams((np.zeros((1, 1, 2, 3)),), (), ())
        with pytest.raises(ValueError, match="coupling levels"):
            LevelParams((np.eye(2).reshape(1, 1, 2, 2),), (np.zeros((1, 1, 2, 2)),), ())

    def test_params_are_frozen(self):
        params = init_random_stable(build_perfect_tree(2, 4), 1, seed=0)
        with pytest.raises(ValueError):
            params.A[0][0, 0, 0, 0] = 5.0

    def test_rejects_non_finite(self):
        a = np.eye(2).reshape(1, 1, 2, 2).copy()
        a[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LevelParams((a,), (), ())

    def test_tree_vector_consistency(self):
        with pytest.raises(ValueError, match="disagree"):
            TreeVector((np.zeros((1, 1, 2, 1, 1)), np.zeros((2, 1, 1, 1, 1))))

    def test_tree_vector_arithmetic(self):
        u = TreeVector((np.ones((1, 1, 2, 1, 1)),))
        v = TreeVector((2.0 * u.levels[0],)) - u
        np.testing.assert_allclose(v.levels[0], u.levels[0])


class TestStableInit:
    def test_deterministic(self):
        tree = build_perfect_tree(2, 8)
        p1 = init_random_stable(tree, 2, heads=2, seed=9, coupling_scale=0.5)
        p2 = init_random_stable(tree, 2, heads=2, seed=9, coupling_scale=0.5)
        for a, b in zip(p1.B, p2.B):
            np.testing.assert_array_equal(a, b)

    def test_zero_coupling_gives_identity_system(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 3, seed=1, coupling_scale=0.0)
        assert all(np.max(np.abs(b)) == 0 for b in params.B)
        u = random_rhs(tree, 3, rng=np.random.default_rng(0))
        x = solve(params, tree, u)
        assert rel_err(x, u) == 0.0

    def test_skew_coupling_and_bound(self):
        tree = build_perfect_tree(4, 16)
        gamma = 0.8
        params = init_random_stable(tree, 2, seed=5, coupling_scale=gamma)
        for b, c in zip(params.B, params.C):
            np.testing.assert_array_equal(c, -b.swapaxes(-1, -2))
            assert np.max(np.abs(b)) <= gamma / (4 * 2)

    @pytest.mark.parametrize("sizes", [0, -1])
    def test_rejects_nonpositive_scalar_block_size(self, sizes):
        with pytest.raises(ValueError, match="block sizes must be positive"):
            init_random_stable(build_perfect_tree(2, 4), sizes)

    def test_rejects_zero_heads(self):
        with pytest.raises(ValueError, match="^heads must be positive, got 0$"):
            init_random_stable(build_perfect_tree(2, 4), heads=0)

    def test_numpy_integer_sizes_accepted(self):
        params = init_random_stable(build_perfect_tree(2, 4), np.int64(2), heads=np.int32(3))
        assert params.block_sizes == (2, 2, 2) and params.heads == 3

    def test_zero_dimensional_array_is_one_size_for_every_level(self):
        tree = build_perfect_tree(2, 4)
        got, want = init_random_stable(tree, np.array(2)), init_random_stable(tree, 2)
        assert got.block_sizes == (2, 2, 2)
        for a, b in zip(got.A + got.B + got.C, want.A + want.B + want.C):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_rejects_non_finite_coupling_scale(self, gamma):
        with pytest.raises(ValueError, match="coupling scale must be finite"):
            init_random_stable(build_perfect_tree(2, 4), 1, coupling_scale=gamma)

    def test_assembled_system_is_positive_definite(self):
        # binary tree, 4 leaves, d=1, gamma=0.5, seed=7: every eigenvalue of
        # the assembled matrix has positive real part and the symmetric part
        # is the identity (couplings are skew)
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 1, seed=7, coupling_scale=0.5)
        m = DenseSystem(params, tree).matrix
        assert np.min(np.linalg.eigvals(m).real) > 0
        sym = (m + m.swapaxes(-1, -2)) / 2
        np.testing.assert_allclose(sym, np.broadcast_to(np.eye(m.shape[-1]), m.shape),
                                   atol=1e-15)


class TestGauge:
    def test_identity_gauge_is_noop(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 2, seed=3, coupling_scale=0.5)
        gauge = [np.broadcast_to(np.eye(2), a.shape).copy() for a in params.A]
        out = apply_gauge(params, tree, gauge)
        for got, want in zip(out.A + out.B + out.C, params.A + params.B + params.C):
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_uniform_scalar_chain(self):
        # chain with A=(1,1,1), all gauge blocks 2: A halves and each C halves
        tree = build_chain(3)
        ones = np.ones((1, 1, 1, 1))
        params = LevelParams((ones, ones, ones),
                             (0 * ones, 0 * ones),
                             (3 * ones, 5 * ones))
        gauge = [2 * ones] * 3
        out = apply_gauge(params, tree, gauge)
        for a in out.A:
            np.testing.assert_allclose(a, 0.5 * ones)
        np.testing.assert_allclose(out.C[0], 1.5 * ones)
        np.testing.assert_allclose(out.C[1], 2.5 * ones)

    def test_gauge_invariance_of_solution(self):
        rng = np.random.default_rng(11)
        tree = build_perfect_tree(3, 27)
        params = init_random_stable(tree, 2, heads=2, seed=4, coupling_scale=0.9)
        u = random_rhs(tree, 2, heads=2, batch=2, rng=rng)
        gauge = [np.eye(2) + 0.4 * rng.uniform(-1, 1, a.shape) for a in params.A]
        x0 = solve(params, tree, u)
        x1 = solve(apply_gauge(params, tree, gauge), tree, scale_rhs(u, gauge))
        assert rel_err(x1, x0) < 1e-12

    def test_singular_gauge_rejected(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 2, seed=3)
        gauge = [np.broadcast_to(np.eye(2), a.shape).copy() for a in params.A]
        gauge[1][0, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            apply_gauge(params, tree, gauge)

    def test_singular_gauge_block_is_located(self):
        tree = build_perfect_tree(2, 4)
        params = init_random_stable(tree, 2, heads=2, seed=3)
        u = random_rhs(tree, 2, heads=2, rng=np.random.default_rng(0))
        gauge = [np.broadcast_to(np.eye(2), a.shape).copy() for a in params.A]
        gauge[1][1, 1] = 0.0
        for transform in (lambda: apply_gauge(params, tree, gauge),
                          lambda: scale_rhs(u, gauge)):
            with pytest.raises(SingularBlockError, match="level 2, node 2, head 2"):
                transform()


class TestSsmConversion:
    def test_identity_inputs_zero_interaction(self):
        S = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        I = np.zeros((3, 2, 2))
        params = ssm_to_chain(I, S)
        for a in params.A:
            np.testing.assert_allclose(a[0, 0], np.eye(2))
        for c in params.C:
            np.testing.assert_allclose(c, 0)

    def test_scalar_recurrence_values(self):
        # S=2, I=0.5, u=(1,1,1): x = (2, 3, 3.5)
        S = np.full((3, 1, 1), 2.0)
        I = np.full((2, 1, 1), 0.5)
        params = ssm_to_chain(I, S)
        tree = build_chain(3)
        u = TreeVector(tuple(np.ones((1, 1, 1, 1, 1)) for _ in range(3)))
        x = solve(params, tree, u)
        got = [float(v.reshape(-1)[0]) for v in x.levels]
        np.testing.assert_allclose(got, [2.0, 3.0, 3.5], atol=1e-14)

    def test_random_scalar_ssm_matches_reference(self):
        rng = np.random.default_rng(21)
        L = 32
        S = (1 + rng.uniform(0.5, 1.5, (L, 1, 1)))
        I = rng.uniform(-0.8, 0.8, (L - 1, 1, 1))
        u_seq = rng.standard_normal((L, 1, 1))
        want = ssm_reference(I, S, u_seq)
        x = solve(ssm_to_chain(I, S), build_chain(L),
                  TreeVector(tuple(u_seq[k].reshape(1, 1, 1, 1, 1) for k in range(L))))
        got = np.stack([v[0, 0, 0] for v in x.levels])
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_singular_input_map_rejected(self):
        S = np.zeros((2, 1, 1))
        with pytest.raises(ValueError, match="singular"):
            ssm_to_chain(np.ones((1, 1, 1)), S)


def test_singular_second_input_map_names_its_position():
    S = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    S[1] = 0.0
    with pytest.raises(ValueError, match="position 2") as info:
        ssm_to_chain(np.zeros((2, 2, 2)), S)
    assert isinstance(info.value.__cause__, SingularBlockError)


@pytest.mark.parametrize("what, index, value, message", [
    ("input", 1, np.inf, "input map at position 2 contains non-finite entries"),
    ("input", 2, np.nan, "input map at position 3 contains non-finite entries"),
    ("interaction", 1, np.nan, "interaction at position 2 contains non-finite entries"),
    ("interaction", 1, np.inf, "interaction at position 2 contains non-finite entries"),
], ids=["inf-input", "nan-input", "nan-interaction", "inf-interaction"])
def test_non_finite_ssm_maps_name_their_position(what, index, value, message):
    S = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    I = np.full((3, 2, 2), 0.5)
    (S if what == "input" else I)[index, 1, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic, so without a warning
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ssm_to_chain(I, S)


_PAIR = build_perfect_tree(2, 2)  # two leaves under one root


@pytest.mark.parametrize("call, fragment", [
    (lambda: LevelParams((np.ones((2, 2, 1, 1)), np.ones((1, 1, 1, 1))),
                         (np.ones((2, 2, 1, 1)),), (np.ones((2, 2, 1, 1)),)), "head count"),
    (lambda: LevelParams((np.ones((1, 2, 1, 1)), np.ones((1, 1, 2, 2))),
                         (np.ones((1, 2, 2, 1)),), (np.ones((1, 2, 2, 1)),)), "B level 1 shape"),
    (lambda: LevelParams((np.ones((1, 2, 1, 1)), np.ones((1, 1, 2, 2))),
                         (np.ones((1, 2, 1, 2)),), (np.ones((1, 2, 1, 2)),)), "C level 1 shape"),
    (lambda: init_random_stable(_PAIR, block_sizes=[1, 1, 1]), "expected 2 block sizes"),
    (lambda: apply_gauge(init_random_stable(_PAIR), _PAIR, [np.ones((1, 2, 1, 1))]),
     "expected 2 gauge levels"),
    (lambda: ssm_to_chain(np.zeros((1, 2, 2)), np.ones((2, 2))), "input maps must be"),
    (lambda: ssm_to_chain(np.zeros((2, 2, 2)), np.ones((2, 2, 2))), "interaction must be"),
    (lambda: init_random_stable(_PAIR, 2.5), "block size must be an integer, got 2.5"),
    (lambda: init_random_stable(_PAIR, [1, 2.5]), "block size must be an integer, got 2.5"),
    (lambda: init_random_stable(_PAIR, [[1], 1]), "block size must be an integer, got [1]"),
    (lambda: init_random_stable(_PAIR, heads=2.5), "heads must be an integer, got 2.5"),
    (lambda: init_random_stable(_PAIR).check_vector(_PAIR, random_rhs(_PAIR, 2)),
     "right part block sizes (2, 2) != parameter blocks (1, 1)"),
    (lambda: init_random_stable(_PAIR).check_vector(_PAIR, random_rhs(_PAIR, heads=3), "solution"),
     "solution heads 3 != parameter heads 1"),
    (lambda: init_random_stable(_PAIR).check_vector(
        _PAIR, TreeVector((np.zeros((1, 1, 2, 1, 1)), np.full((1, 1, 1, 1, 1), np.inf)))),
     "right part level 2 contains non-finite entries"),
    (lambda: LevelParams((), (), ()), "need at least one level of A blocks"),
    (lambda: init_random_stable(_PAIR).validate_for(build_perfect_tree(2, 4)),
     "parameter node counts (2, 1) do not match tree levels (4, 2, 1)"),
    (lambda: TreeVector(()), "need at least one level"),
    (lambda: TreeVector((np.zeros((1, 2, 1, 1)),)),
     "level 1 must be (batch, heads, nodes, d, r) with positive sizes, got shape (1, 2, 1, 1)"),
    (lambda: apply_gauge(init_random_stable(_PAIR), _PAIR, [np.ones((1, 2, 1, 1))] * 2),
     "gauge blocks at level 2 have shape (1, 2, 1, 1), expected (1, 1, 1, 1)"),
    (lambda: ssm_to_chain(np.zeros((0, 2, 2)), np.zeros((0, 2, 2))),
     "input maps must be (L, d, d) with L, d >= 1, got (0, 2, 2)"),
    (lambda: ssm_to_chain(np.zeros((1, 0, 0)), np.zeros((2, 0, 0))),
     "input maps must be (L, d, d) with L, d >= 1, got (2, 0, 0)"),
    (lambda: init_random_stable(_PAIR).check_vector(
        _PAIR, TreeVector((np.zeros((1, 1, 1, 1, 1)), np.zeros((1, 1, 1, 1, 1))))),
     "right part node counts (1, 1) do not match tree (2, 1)"),
    # a vector that fails several checks names the first, in the order below
    (lambda: init_random_stable(_PAIR).check_vector(build_perfect_tree(2, 4),
                                                    random_rhs(_PAIR, heads=3)),
     "parameter node counts (2, 1) do not match tree levels (4, 2, 1)"),
    (lambda: init_random_stable(_PAIR).check_vector(
        _PAIR, random_rhs(build_perfect_tree(2, 4), heads=3)),
     "right part has 3 levels, tree has 2"),
    (lambda: init_random_stable(_PAIR).check_vector(_PAIR, random_rhs(_PAIR, 2, heads=3)),
     "right part heads 3 != parameter heads 1"),
    (lambda: init_random_stable(_PAIR).check_vector(
        _PAIR, TreeVector((np.zeros((1, 1, 1, 2, 1)), np.zeros((1, 1, 1, 2, 1))))),
     "right part node counts (1, 1) do not match tree (2, 1)"),
    (lambda: init_random_stable(_PAIR).check_vector(_PAIR, with_nan(random_rhs(_PAIR, 2), 0)),
     "right part block sizes (2, 2) != parameter blocks (1, 1)"),
    # a float64 cast would keep only the real part of a complex input
    (lambda: TreeVector((np.zeros((1, 1, 2, 1, 1)), np.full((1, 1, 1, 1, 1), 1 + 2j))),
     "level 2 must be real, got complex128"),
    (lambda: LevelParams((np.ones((1, 2, 1, 1), complex), np.ones((1, 1, 1, 1))),
                         (np.zeros((1, 2, 1, 1)),), (np.zeros((1, 2, 1, 1)),)),
     "A level 1 must be real, got complex128"),
    (lambda: LevelParams((np.ones((1, 2, 1, 1)), np.ones((1, 1, 1, 1))),
                         (np.zeros((1, 2, 1, 1)),), (np.zeros((1, 2, 1, 1), np.complex64),)),
     "C level 1 must be real, got complex64"),
    (lambda: ssm_to_chain(np.zeros((1, 1, 1)), np.ones((2, 1, 1), complex)),
     "input maps must be real, got complex128"),
    (lambda: ssm_to_chain([[[0.5j]]], np.ones((2, 1, 1))), "interaction must be real, got complex128"),
    (lambda: apply_gauge(init_random_stable(_PAIR), _PAIR,
                         [np.ones((1, 2, 1, 1)), np.ones((1, 1, 1, 1), complex)]),
     "gauge level 2 must be real, got complex128"),
    (lambda: forward(LayerConfig(_PAIR, 1), init_random_stable(_PAIR), np.ones((1, 2, 1), complex)),
     "leaf inputs must be real, got complex128"),
    # numpy's seeding and isfinite would raise TypeError, or take True as seed 1
    (lambda: init_random_stable(_PAIR, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: init_random_stable(_PAIR, seed=True), "seed must be an integer, got True"),
    (lambda: init_random_stable(_PAIR, coupling_scale="a"),
     "coupling scale must be finite and nonnegative, got a"),
    (lambda: init_random_stable(_PAIR, coupling_scale=None),
     "coupling scale must be finite and nonnegative, got None"),
    (lambda: init_random_stable(_PAIR, coupling_scale=1j),
     "coupling scale must be finite and nonnegative, got 1j"),
    # the head count is read only after level 1's shape is checked
    (lambda: LevelParams((np.float64(1.0),), (), ()),
     "A level 1 must be (heads, nodes, d, d), got ()"),
    # zip would cut a long list short, and a lone size is not iterable
    (lambda: TreeVector.zeros(_PAIR, (2,)), "expected 2 block sizes, got 1"),
    (lambda: TreeVector.zeros(_PAIR, (2, 2, 2)), "expected 2 block sizes, got 3"),
    (lambda: TreeVector.zeros(_PAIR, 0), "block sizes must be positive, got 0"),
    # zip would cut the deeper vector short, and numpy would broadcast batch 1
    (lambda: TreeVector.zeros(_PAIR, 1) - TreeVector((np.zeros((1, 1, 2, 1, 1)),)),
     "cannot subtract levels shaped [(1, 1, 2, 1, 1)] from [(1, 1, 2, 1, 1), (1, 1, 1, 1, 1)]"),
    (lambda: TreeVector.zeros(_PAIR, 1, batch=2) - TreeVector.zeros(_PAIR, 1),
     "cannot subtract levels shaped [(1, 1, 2, 1, 1), (1, 1, 1, 1, 1)] "
     "from [(2, 1, 2, 1, 1), (2, 1, 1, 1, 1)]"),
], ids=["heads", "B-shape", "C-shape", "block-size-count", "gauge-levels", "ssm-maps",
        "ssm-interaction", "float-block-size", "float-block-size-list", "ragged-block-sizes",
        "float-heads", "vector-block-sizes", "vector-heads", "vector-non-finite", "no-A-levels",
        "wrong-tree", "no-vector-levels", "4d-vector-level", "gauge-shape", "ssm-no-maps",
        "ssm-empty-blocks", "vector-node-counts", "tree-before-vector", "depth-before-heads",
        "heads-before-block-sizes", "node-counts-before-block-sizes",
        "block-sizes-before-non-finite", "complex-vector-level", "complex-A", "complex64-C",
        "complex-ssm-maps", "complex-ssm-interaction", "complex-gauge", "complex-leaf-inputs",
        "float-seed", "bool-seed", "string-scale", "none-scale", "complex-scale", "0d-A",
        "zeros-short-sizes", "zeros-long-sizes", "zeros-zero-size", "sub-depth", "sub-batch"])
def test_shape_errors(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


def test_zero_vector_takes_one_block_size_or_one_per_level():
    tree = build_perfect_tree(2, 4)
    for sizes, want in ((2, (2, 2, 2)), ((1, 3, 2), (1, 3, 2))):
        v = TreeVector.zeros(tree, sizes, heads=3, batch=2, right_parts=4)
        assert [a.shape for a in v.levels] == [
            (2, 3, n, d, 4) for n, d in zip(tree.level_sizes, want)]
        assert not any(a.any() for a in v.levels)


def _assert_same_bytes(got, want):
    got, want = (getattr(x, "levels", None) or x.A + x.B + x.C for x in (got, want))
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (a.dtype, a.shape, a.tobytes()) for a in want]


def test_real_integer_and_bool_inputs_keep_their_bytes():
    # the complex check reads only the dtype; every other input casts to float64 as before
    blocks = {"float": np.array([[[[-0.0]]]]), "int": np.array([[[[3]]]]),
              "bool": np.array([[[[True]]]]), "list": [[[[2]], [[0.5]]]]}
    for name, a in blocks.items():
        want = np.asarray(a, dtype=np.float64)
        for got in (LevelParams((a, a), (a,), (a,)).A[0],
                    TreeVector((np.expand_dims(a, -1),) * 2).levels[1][..., 0]):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name
    S = np.array([[[2]], [[4]]])
    _assert_same_bytes(ssm_to_chain(np.array([[[1]]]), S),
                       ssm_to_chain(np.ones((1, 1, 1)), S * 1.0))
    tree = build_chain(2)
    config, params = LayerConfig(tree, 1), init_random_stable(tree)
    _assert_same_bytes(forward(config, params, [[[1]], [[True]]]),
                       forward(config, params, [[[1.0]], [[1.0]]]))


def test_numpy_scalar_seed_and_scale_keep_their_bytes():
    tree = build_perfect_tree(2, 4)
    _assert_same_bytes(init_random_stable(tree, 2, seed=np.int64(3),
                                          coupling_scale=np.float64(0.7)),
                       init_random_stable(tree, 2, seed=3, coupling_scale=0.7))
    _assert_same_bytes(init_random_stable(tree, 2, seed=np.uint8(3), coupling_scale=1),
                       init_random_stable(tree, 2, seed=3, coupling_scale=1.0))
