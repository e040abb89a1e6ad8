import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesolve import SingularBlockError
from treesolve.linalg import PIVOT_RTOL, invert_blocks, invert_level, lu_factor, lu_solve
from treesolve.solver import upward_step


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_matches_lapack(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((4, 6, d, d)) + 2 * np.eye(d)
    b = rng.standard_normal((4, 6, d, 3))
    x = lu_solve(*lu_factor(a), b)
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
    np.testing.assert_allclose(lu_solve(*lu_factor(a), b), np.array([[[3.0], [2.0]]]))


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


_COMPLEX = np.ones((1, 2, 1, 1), complex)
_ONES = np.ones((1, 2, 1, 1))


# a float64 cast would keep only the real part of a complex block
@pytest.mark.parametrize("call", [
    lambda: lu_factor(_COMPLEX),
    lambda: invert_blocks(_COMPLEX),
    lambda: invert_level(_COMPLEX, 1),
    lambda: upward_step(_COMPLEX, _ONES, _ONES, np.ones((1, 1, 1, 1)), (2,), child_level=0),
], ids=["lu_factor", "invert_blocks", "invert_level", "upward_step"])
def test_complex_blocks_refused(call):
    with pytest.raises(ValueError, match="^blocks must be real, got complex128$"):
        call()


def test_rejects_rhs_row_mismatch():
    with pytest.raises(ValueError, match="^rhs rows 3 do not match block size 2$"):
        lu_solve(*lu_factor(np.eye(2)[None]), np.ones((1, 3, 1)))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_random_blocks_property(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, d, d)) + (d + 1) * np.eye(d)
    b = rng.standard_normal((3, d, 2))
    np.testing.assert_allclose(a @ lu_solve(*lu_factor(a), b), b, atol=1e-10)


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
@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])  # NaN fails every pivot comparison
@pytest.mark.parametrize("d", [1, 3])
def test_invert_blocks_zero_or_infinite_block(d, bad):
    a = np.broadcast_to(np.eye(d), (3, d, d)).copy()
    a[1, :, 0] = bad
    assert _rejection(invert_blocks, a) == _rejection(lu_factor, a) == ((1,), 0)


# PIVOT_RTOL times a subnormal scale underflows, so the relative test alone refuses no
# nonzero pivot there; the reciprocal of a subnormal pivot overflows to inf
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("call, index", [
    (lu_factor, (1,)),
    (invert_blocks, (1,)),
    (lambda a: invert_level(a[None], 2), (0, 1)),
], ids=["lu_factor", "invert_blocks", "invert_level"])
def test_subnormal_pivot_refused(call, index, d):
    a = np.stack([np.eye(d), 1e-310 * np.eye(d), np.eye(d)])
    with pytest.raises(SingularBlockError) as info:
        call(a)
    assert (info.value.block_index, info.value.pivot_step) == (index, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2, 4])
def test_tiny_normal_pivot_keeps_its_inverse(d):
    a = 1e-300 * np.eye(d)[None]
    want = 1.0 / a if d == 1 else np.linalg.inv(a)
    assert np.isfinite(want).all()
    got = invert_blocks(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    lu_factor(a)


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


@pytest.mark.parametrize("f", [lu_factor, invert_blocks])
def test_zero_size_blocks_rejected(f):
    with pytest.raises(ValueError, match=r"square blocks of size >= 1, got shape \(2, 0, 0\)"):
        f(np.zeros((2, 0, 0)))


def test_empty_stack_of_blocks_is_fine():
    lu, perm = lu_factor(np.zeros((0, 3, 3)))
    assert lu.shape == (0, 3, 3) and perm.shape == (0, 3)
    assert invert_blocks(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_invert_blocks_falls_back_to_lu_when_lapack_refuses(monkeypatch):
    def refuse(a):
        raise np.linalg.LinAlgError("singular matrix")

    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 4)) + 4 * np.eye(4)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    np.testing.assert_allclose(invert_blocks(a) @ a, np.broadcast_to(np.eye(4), a.shape),
                               atol=1e-12)


def _reference_lu(block):
    """Textbook partial-pivoted LU of one block: (lu, perm), or the failing pivot step."""
    d = len(block)
    lu, perm = block.copy(), np.arange(d)
    scale = np.max(np.abs(block))
    for k in range(d):
        p = k + int(np.argmax(np.abs(lu[k:, k])))  # the first of equal maxima
        if abs(lu[p, k]) <= PIVOT_RTOL * scale:
            return k
        lu[[k, p]] = lu[[p, k]]
        perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


@given(st.integers(min_value=1, max_value=6), st.sampled_from([(), (4,), (2, 3)]),
       st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(["plain", "round", "near"]))
@settings(max_examples=300, deadline=None)
def test_lu_factor_is_the_one_block_lu_bit_for_bit(d, lead, seed, kind):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(lead + (d, d))
    if kind == "round":  # ties between pivot candidates, exact zeros, singular blocks
        a = np.round(a)
    elif kind == "near":  # one block a hair either side of the pivot threshold
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sv = np.ones(d)
        sv[-1] = 10.0 ** rng.uniform(-13, -11)
        a.reshape(-1, d, d)[rng.integers(a.size // (d * d))] = (q1 * sv) @ q2.T
    blocks = [_reference_lu(b) for b in a.reshape(-1, d, d)]
    failed = [(r, n) for n, r in enumerate(blocks) if isinstance(r, int)]
    if failed:
        step, n = min(failed)  # the earliest failing step, then the lowest block
        assert _rejection(lu_factor, a) == (np.unravel_index(n, lead), step)
        return
    lu, perm = lu_factor(a)
    assert perm.dtype == np.int64 and perm.shape == lead + (d,)
    assert np.array_equal(lu, np.reshape([b[0] for b in blocks], a.shape))
    assert np.array_equal(perm, np.reshape([b[1] for b in blocks], perm.shape))
