import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesolve import PIVOT_RTOL, SingularBlockError
from treesolve.linalg import invert_blocks, lu_factor, lu_solve, solve_blocks


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_matches_lapack(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((4, 6, d, d)) + 2 * np.eye(d)
    b = rng.standard_normal((4, 6, d, 3))
    x = solve_blocks(a, b)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-12)


def test_broadcast_rhs_over_batch():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 5, 3, 3)) + 2 * np.eye(3)
    b = rng.standard_normal((7, 2, 5, 3, 2))
    lu, perm = lu_factor(a)
    x = lu_solve(lu, perm, b)
    assert x.shape == b.shape
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


def test_pivoting_handles_zero_leading_entry():
    a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    b = np.array([[[2.0], [3.0]]])
    np.testing.assert_allclose(solve_blocks(a, b), np.array([[[3.0], [2.0]]]))


def test_singular_block_reported_with_index():
    a = np.broadcast_to(np.eye(2), (3, 4, 2, 2)).copy()
    a[1, 2] = 0.0
    with pytest.raises(SingularBlockError) as info:
        lu_factor(a)
    assert info.value.block_index == (1, 2)
    assert "block (1, 2)" in str(info.value)


def test_near_singular_rejected_by_pivot_tolerance():
    a = np.array([[[1.0, 1.0], [1.0, 1.0 + 1e-14]]])
    with pytest.raises(SingularBlockError):
        lu_factor(a)
    # comfortably conditioned block passes
    lu_factor(np.array([[[1.0, 1.0], [1.0, 1.5]]]))


def test_rejects_non_square():
    with pytest.raises(ValueError):
        lu_factor(np.zeros((2, 3, 4)))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_random_blocks_property(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, d, d)) + (d + 1) * np.eye(d)
    b = rng.standard_normal((3, d, 2))
    np.testing.assert_allclose(a @ solve_blocks(a, b), b, atol=1e-10)


def _rejection(fn, a):
    try:
        fn(a)
    except SingularBlockError as e:
        return e.block_index, e.pivot_step
    return None


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 32),
       st.floats(min_value=-17, max_value=-9), st.booleans())
@settings(max_examples=300, deadline=None)
def test_invert_blocks_rejects_exactly_what_lu_factor_rejects(d, seed, exponent, zero_col):
    # one block of a healthy stack gets smallest singular value 10^exponent
    # of its largest, straddling the PIVOT_RTOL threshold
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3, d, d)) + d * np.eye(d)
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sv = np.sort(rng.uniform(0.5, 2.0, d))[::-1]
    sv[-1] = sv[0] * 10.0 ** exponent
    block = (q1 * sv) @ q2.T
    if zero_col:
        block[:, rng.integers(d)] = 0.0
    a[rng.integers(2), rng.integers(3)] = block
    assert _rejection(invert_blocks, a) == _rejection(lu_factor, a)


@pytest.mark.parametrize("ratio", [0.5, 0.999, 1.0, 1.001, 1.5, 2.5])
def test_invert_blocks_pivot_threshold_is_exact(ratio):
    # diag(s, s p) has last pivot s p and ||A^-1||_inf = 1 / (s p): the bound
    # is tight, so the screen flags every p <= 2 rtol and lu_factor decides
    a = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    a[2] = np.diag([1.0, ratio * PIVOT_RTOL]) * 1e3
    assert _rejection(invert_blocks, a) == _rejection(lu_factor, a)
    if ratio > 1.0:
        np.testing.assert_allclose(invert_blocks(a) @ a, np.broadcast_to(np.eye(2), a.shape))


@pytest.mark.filterwarnings("error")
def test_invert_blocks_exactly_singular_block_in_stack():
    a = np.broadcast_to(np.eye(2), (3, 4, 2, 2)).copy()
    a[2, 1] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(a)  # LAPACK itself refuses, so the fallback path runs
    with pytest.raises(SingularBlockError) as info:
        invert_blocks(a)
    assert (info.value.block_index, info.value.pivot_step) == ((2, 1), 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [0.0, np.inf])
@pytest.mark.parametrize("d", [1, 3])
def test_invert_blocks_zero_or_infinite_block(d, bad):
    a = np.broadcast_to(np.eye(d), (3, d, d)).copy()
    a[1, :, 0] = bad
    assert _rejection(invert_blocks, a) == _rejection(lu_factor, a) == ((1,), 0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
def test_invert_blocks_matches_lapack_solve(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((4, 6, d, d)) + 2 * np.eye(d)
    b = rng.standard_normal((4, 6, d, 3))
    np.testing.assert_allclose(invert_blocks(a) @ b, np.linalg.solve(a, b), atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 2, 1), (1,)])
def test_invert_blocks_rejects_non_square(shape):
    with pytest.raises(ValueError):
        invert_blocks(np.ones(shape))


def test_invert_blocks_falls_back_to_lu_when_lapack_refuses(monkeypatch):
    def refuse(a):
        raise np.linalg.LinAlgError("singular matrix")

    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 4)) + 4 * np.eye(4)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    np.testing.assert_allclose(invert_blocks(a) @ a, np.broadcast_to(np.eye(4), a.shape),
                               atol=1e-12)
