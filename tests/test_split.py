"""Block products split over head ranges give the bytes and strides of serial ones.

Each comparison runs every call twice on fresh instances: once with
``solver._SPLIT_WORK`` at 0, so every product of a system of four or more
heads, the factor's included, splits wherever this process may run on more
than one core, and once at infinity, so none does.  Run on one core
(``taskset -c 0``) both runs are serial.
"""

import hashlib
import os
import select
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import treesolve.solver as solver
from treesolve import (LayerConfig, LevelParams, TreeTopology, TreeVector, build_chain,
                       build_perfect_tree, build_quadtree, forward, solve, solve_transpose,
                       vjp)
from treesolve.topology import GridShape
from helpers import arrays, assert_identical, irregular_trees, random_params, random_rhs

SERIAL, SPLIT = float("inf"), 0


def _fresh(params):
    """A new instance with the same blocks, so it has no cached factor."""
    return LevelParams(params.A, params.B, params.C)


def _zero_below(v: TreeVector, t: int) -> TreeVector:
    """``v`` with its lowest ``t`` levels zero: the upward pass skips them."""
    return TreeVector(tuple(np.zeros_like(a) if l < t else a for l, a in enumerate(v.levels)))


def _calls(params, tree, u, x, g):
    """Every default output that a split may touch, each call once on a miss and once on a hit."""
    p = _fresh(params)
    return [solve(p, tree, u), solve_transpose(p, tree, g), vjp(p, tree, u, x, g),
            solve(p, tree, u), solve_transpose(p, tree, g), vjp(p, tree, u, x, g)]


def _both(monkeypatch, run):
    """``run()`` serially, then split; asserts equal bytes and strides; returns the serial run."""
    monkeypatch.setattr(solver, "_SPLIT_WORK", SERIAL)
    want = run()
    monkeypatch.setattr(solver, "_SPLIT_WORK", SPLIT)
    got = run()
    assert_identical(got, want)
    assert [a.strides for a in arrays(got)] == [a.strides for a in arrays(want)]
    return want


@pytest.fixture(params=["affinity", "3-cores"])
def cores(request, monkeypatch):
    """The cores this process may run on, or three whatever it may: 7 heads split 2, 2, 3."""
    if request.param == "3-cores":
        monkeypatch.setattr(solver, "_cores", 3)


def _system(tree, d, heads, batch, r, seed, zero_below=0, x_batch=None):
    rng = np.random.default_rng(seed)
    params = random_params(tree, d, heads=heads, rng=rng)
    u, g = (_zero_below(random_rhs(tree, d, heads=heads, batch=batch, right_parts=r, rng=rng),
                        zero_below) for _ in range(2))
    x = solve(params, tree, u) if x_batch is None else random_rhs(
        tree, d, heads=heads, batch=x_batch, right_parts=r, rng=rng)
    return params, u, x, g


@pytest.mark.parametrize("heads", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 4, 16])
def test_perfect_trees(monkeypatch, cores, d, r, heads):
    tree = build_perfect_tree(4, 16 if d < 16 else 4)
    params, u, x, g = _system(tree, d, heads, batch=2, r=r, seed=d * 100 + r * 10 + heads)
    _both(monkeypatch, lambda: _calls(params, tree, u, x, g))


@pytest.mark.parametrize("heads", [4, 5])
@pytest.mark.parametrize("zero_below", [1, 2, 3])
def test_right_parts_zero_below_the_top_levels(monkeypatch, cores, heads, zero_below):
    # skipped levels hand downward_step broadcast zero views for u_hat
    tree = build_perfect_tree(4, 64)
    params, u, x, g = _system(tree, 2, heads, batch=3, r=2, seed=zero_below,
                              zero_below=zero_below)
    _both(monkeypatch, lambda: _calls(params, tree, u, x, g))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("heads", [3, 4, 5])
def test_vjp_with_a_batch_one_solution(monkeypatch, cores, heads, r):
    tree = build_perfect_tree(2, 16)
    params, u, x, g = _system(tree, 3, heads, batch=4, r=r, seed=heads, x_batch=1)
    _both(monkeypatch, lambda: _calls(params, tree, u, x, g))


TREES = {
    "childless": (lambda: TreeTopology((5, 3, 3, 1), ((2, 0, 3), (1, 1, 1), (3,))), 2),
    "mixed-1-3-2": (lambda: TreeTopology((3, 2, 1), ((2, 1), (2,))), (1, 3, 2)),
    "chain": (lambda: build_chain(9), 2),
    "root-only": (lambda: build_perfect_tree(2, 1), 3),
}


@pytest.mark.parametrize("heads", [3, 4, 7])
@pytest.mark.parametrize("name", TREES)
def test_irregular_and_mixed_size_trees(monkeypatch, cores, name, heads):
    make, d = TREES[name]
    tree = make()
    for r in (1, 3):
        params, u, x, g = _system(tree, d, heads, batch=2, r=r, seed=r)
        _both(monkeypatch, lambda: _calls(params, tree, u, x, g))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(irregular_trees(), st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 3]),
       st.sampled_from([3, 4, 5, 7]), st.integers(0, 2 ** 16))
def test_random_irregular_trees(monkeypatch, tree, d, r, heads, seed):
    params, u, x, g = _system(tree, d, heads, batch=2, r=r, seed=seed)
    _both(monkeypatch, lambda: _calls(params, tree, u, x, g))


@pytest.mark.parametrize("order", ["C", "F"])
def test_layer_forward_and_memory_orders(monkeypatch, cores, order):
    tree = build_quadtree(GridShape(8, 8))
    params = random_params(tree, 2, heads=4, rng=np.random.default_rng(7))
    config = LayerConfig(tree, (2,) * tree.depth, heads=4)
    leaf = np.asarray(np.random.default_rng(8).standard_normal((4, tree.level_sizes[0], 2)),
                      order=order)
    _both(monkeypatch, lambda: [forward(config, _fresh(params), leaf) for _ in range(2)])
    # right parts and solutions in either memory order
    params, u, x, g = _system(tree, 2, 5, batch=2, r=2, seed=9)
    relaid = lambda v: TreeVector(tuple(np.asarray(a, order=order) for a in v.levels))
    _both(monkeypatch, lambda: _calls(params, tree, relaid(u), relaid(x), relaid(g)))


def _ranges(heads: int):
    """The head ranges into which ``solver._split`` cuts a kernel, or None if it runs it whole."""
    seen = []

    def kernel(a, *, out=None):  # each head's entry is its index
        if out is None:
            return a.copy()
        seen.append((int(a[0, 0, 0, 0]), int(a[-1, 0, 0, 0]) + 1))
        out[...] = a
        return out

    a = np.arange(heads, dtype=float).reshape(heads, 1, 1, 1) * np.ones((1, 3, 1, 1))
    assert_identical(solver._split(kernel, a), a)
    return sorted(seen) or None


def test_ranges_hold_two_heads_or_more(monkeypatch):
    monkeypatch.setattr(solver, "_cores", 1)
    assert _ranges(4) is None
    monkeypatch.setattr(solver, "_cores", 8)
    assert [_ranges(h) for h in (1, 2, 3)] == [None] * 3
    assert _ranges(5) == [(0, 2), (2, 5)]
    monkeypatch.setattr(solver, "_cores", 3)
    assert _ranges(7) == [(0, 2), (2, 4), (4, 7)]
    assert _ranges(16) == [(0, 5), (5, 10), (10, 16)]
    monkeypatch.setattr(solver, "_cores", None)  # read again, from this process's affinity
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert (_ranges(4) is None) == (cores == 1)


def test_split_work_stays_on_numpy_off_the_calling_thread(monkeypatch):
    # a tracer wraps the module's named steps and keeps one span stack, so each
    # must run on the calling thread; a task that submitted again could deadlock
    monkeypatch.setattr(solver, "_SPLIT_WORK", SPLIT)
    monkeypatch.setattr(solver, "_cores", 2)
    seen = []
    for name in ("segment_sum", "upward_step", "downward_step", "downward_sweep",
                 "upward_sweep", "solve", "solve_transpose", "transpose_params", "_split"):
        fn = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a, _fn=fn, _name=name, **k: (
            seen.append((_name, threading.get_ident())), _fn(*a, **k))[1])
    tree = build_perfect_tree(4, 16)
    params, u, x, g = _system(tree, 2, 4, batch=2, r=1, seed=3)
    _calls(params, tree, u, x, g)
    assert {name for name, _ in seen} >= {"_split", "segment_sum", "downward_step"}
    assert {ident for _, ident in seen} == {threading.get_ident()}


def test_concurrent_calls_on_one_instance(monkeypatch, cores):
    # more callers than cores, switching often, on an instance and a pool that
    # none of them has made yet: every result still equals the serial one
    tree = build_perfect_tree(4, 64)
    params, u, x, g = _system(tree, 2, 4, batch=3, r=2, seed=11)
    monkeypatch.setattr(solver, "_SPLIT_WORK", SERIAL)
    want = (solve(params, tree, u), vjp(params, tree, u, x, g))
    monkeypatch.setattr(solver, "_SPLIT_WORK", SPLIT)
    monkeypatch.setattr(solver, "_pool", None)
    shared = _fresh(params)
    calls = [lambda: solve(shared, tree, u), lambda: vjp(shared, tree, u, x, g)] * 2
    start = threading.Barrier(len(calls), timeout=30)

    def run(call):
        start.wait()
        return [call() for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(calls)) as users:
            results = list(users.map(run, calls, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        for result in got:
            assert_identical(result, want[k % 2])


def _digest(v: TreeVector) -> bytes:
    return hashlib.sha256(b"".join(a.tobytes() for a in v.levels)).digest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool(monkeypatch):
    monkeypatch.setattr(solver, "_SPLIT_WORK", SPLIT)
    tree = build_perfect_tree(4, 64)
    params, u, _, _ = _system(tree, 2, 4, batch=2, r=1, seed=12)
    want = _digest(solve(params, tree, u))  # the parent's pool threads exist from here on
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report the digest, and leave without running pytest's exit
        code = 1
        try:
            os.close(read)
            os.write(write, _digest(solve(_fresh(params), tree, u)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        got = os.read(read, 64) if ready else b""
    finally:
        os.close(read)
        _, status = os.waitpid(pid, 0)
    assert ready, "the forked child's solve did not return"
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want
