"""The four workloads: set-up, one round of timed calls, and their checks.

Each workload is a closed loop: a round makes its calls one after another,
each waiting for the previous one, and rounds repeat until the run's time
is up.  Every round makes the same calls, so the failed share of attempted
calls does not depend on the run length.  Set-up and checks run outside the
timed regions; checks never call the level solver.
"""

import tracemalloc
from collections import Counter, defaultdict
from contextlib import nullcontext
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from treesolve import layer, oracle, params, solver, topology
from treesolve.params import TreeVector

import checks
from tracing import Tracer

HEADS, BATCH = 4, 8
COUPLING = 0.9  # init_random_stable's scale; every pivot stays positive definite
SETUP_REPS = 5
LEARNING_RATE = 1e-3
TOP_LEVELS = 2

# name: (size, block size, dense-checked size, smoke size, smoke dense size);
# size is leaves for quadtrees, length for the chain, image side for the image.
SIZES = {
    "quadtree-d4": (4 ** 7, 4, 4 ** 3, 4 ** 3, 4 ** 2),
    "quadtree-d16": (4 ** 5, 16, 4 ** 2, 4 ** 2, 4),
    "chain-d4": (1024, 4, 64, 16, 8),
    "image-train-d1": (128, 1, 16, 8, 4),
}

# Wrappers each workload must hit when traced.
_SOLVE_PATH = ["solver.lu_factor", "solver.lu_solve", "solver.upward_step",
               "solver.segment_sum", "solver.downward_step", "solver.downward_sweep",
               "solver.upward_sweep", "solver.solve_transpose", "solver.transpose_params",
               "solver.vjp", "params.init_random_stable"]


# Each timed call is paired with a fixed piece of benchmark-owned work run
# just before it.  On a shared machine the speed of the whole core swings
# (raw per-run medians moved by 15-44 % between runs); the kernel slows with
# it, so a call's time divided by the kernel's stays put.  A reported time is
# the median of that ratio times the kernel's nominal length: the call's
# seconds on a machine where the kernel takes REFERENCE_S.
REFERENCE_S = 0.010
_REF = np.random.default_rng(12345)
_REF_BLOCKS = _REF.standard_normal((4, 4096, 4, 4)), _REF.standard_normal((4, 4096, 4, 8))
_REF_STREAM = _REF.standard_normal(1_000_000)
_REF_SMALL = _REF.standard_normal((4, 4))


def reference_seconds():
    """Time the reference kernel: the solver's three kinds of cost in about equal parts.

    Many tiny numpy calls (interpreter and dispatch, as per level on a
    chain), batched small block products, and a stream through memory.
    """
    t0 = perf_counter()
    for _ in range(3000):
        _REF_SMALL @ _REF_SMALL
    _REF_BLOCKS[0] @ _REF_BLOCKS[1]
    _REF_STREAM * 1.0
    return perf_counter() - t0


class Recorder:
    """Per-call timings and the attempted and failed counts of one run."""

    def __init__(self):
        self.times = defaultdict(list)   # raw seconds
        self.scaled = defaultdict(list)  # seconds at the reference speed
        self.kernels = defaultdict(list)
        self.kernel = 0.0                # the reference time of the current call
        self.attempted = self.failed = 0
        self.failures = Counter()

    def add(self, name, seconds, kernel):
        self.times[name].append(seconds)
        self.kernels[name].append(kernel)
        self.scaled[name].append(seconds / kernel * REFERENCE_S)

    def timed(self, name, fn, *args):
        """Run the reference kernel, then time one call."""
        self.kernel = reference_seconds()
        return self.inner(name, fn, *args)

    def inner(self, name, fn, *args):
        """Time a call made inside a timed one, paired with the same kernel run."""
        t0 = perf_counter()
        out = fn(*args)
        self.add(name, perf_counter() - t0, self.kernel)
        return out

    def check(self, op, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[op] += 1


def random_vector(rng, tree, d):
    return TreeVector(tuple(rng.standard_normal((BATCH, HEADS, n, d, 1))
                            for n in tree.level_sizes))


def solved(maps, params, norm, x, u, transpose=False):
    """Does x solve the system (or its transpose) for u to backward error BACKWARD_TOL?"""
    A, B, C = checks.blocks(params, transpose)
    return checks.backward_error(maps, A, B, C, norm[transpose], checks.panel(x.levels),
                                 checks.panel(u.levels)) <= checks.BACKWARD_TOL


def norms(maps, params):
    return {t: checks.matrix_inf_norm(maps, *checks.blocks(params, t)) for t in (False, True)}


def vjp_ok(delta, maps, params, norm, x, g, y, grads):
    return (solved(maps, params, norm, y, g, transpose=True)
            and checks.adjoint_gap(maps, grads, delta, checks.panel(x.levels),
                                   checks.panel(y.levels)) <= checks.ADJOINT_TOL)


def small_instance_checks(params_, tree, u, g, solve):
    """The family's small instance: the O(N) checks and the dense oracle."""
    maps = checks.TreeMaps(tree)
    norm = norms(maps, params_)
    x = solve(params_, tree, u)
    xt = solver.solve_transpose(params_, tree, g)
    y, grads = solver.vjp(params_, tree, u, x, g)
    delta = checks.random_direction(np.random.default_rng(1), params_)
    found = checks.dense_checks(params_, tree, u, g, x, xt, y, grads, delta)
    found["small_solve_backward_error"] = solved(maps, params_, norm, x, u)
    found["small_vjp_adjoint"] = vjp_ok(delta, maps, params_, norm, x, g, y, grads)
    return found


class TreeWorkload:
    """Fixed parameters, fresh right parts: solve, solve_transpose and vjp per round."""

    expected = _SOLVE_PATH + ["solver.solve", "topology.build_perfect_tree"]

    def __init__(self, name, smoke):
        size, self.d, small, smoke_size, smoke_small = SIZES[name]
        self.size, self.small = (smoke_size, smoke_small) if smoke else (size, small)

    def tree_of(self, size):
        return topology.build_perfect_tree(4, size)

    def level_sizes(self):
        return self.tree_of(self.size).level_sizes

    def setup(self, seed):
        tree = self.tree_of(self.size)
        st = SimpleNamespace(tree=tree,
                             params=params.init_random_stable(tree, self.d, HEADS, seed, COUPLING))
        st.first = self.inputs(st, np.random.default_rng([seed, 0]))
        return st

    def inputs(self, st, rng):
        """A fresh right part u and cotangent g."""
        return SimpleNamespace(u=random_vector(rng, st.tree, self.d),
                               g=random_vector(rng, st.tree, self.d))

    def solve(self, p, tree, u):
        return solver.solve(p, tree, u)

    def prepare(self, st, seed):
        st.maps = checks.TreeMaps(st.tree)
        st.norm = norms(st.maps, st.params)
        st.delta = checks.random_direction(np.random.default_rng([seed, 5]), st.params)
        small = self.tree_of(self.small)
        p = params.init_random_stable(small, self.d, HEADS, seed, COUPLING)
        inp = self.inputs(SimpleNamespace(tree=small), np.random.default_rng([seed, 2]))
        return small_instance_checks(p, small, inp.u, inp.g, self.solve)

    def ops(self, st, inp, rec, tracer):
        out = SimpleNamespace()
        out.x = rec.timed("solve_s", self.solve, st.params, st.tree, inp.u)
        out.xt = rec.timed("solve_transpose_s", solver.solve_transpose, st.params, st.tree, inp.g)
        out.y, out.grads = rec.timed("vjp_s", solver.vjp, st.params, st.tree, inp.u, out.x, inp.g)
        calls = ("solve_s", "solve_transpose_s", "vjp_s")
        rec.add("step_s", sum(rec.times[k][-1] for k in calls),
                sum(rec.kernels[k][-1] for k in calls) / len(calls))
        return out

    def solve_ok(self, st, inp, x):
        return solved(st.maps, st.params, st.norm, x, inp.u)

    def transpose_ok(self, st, inp, xt):
        return solved(st.maps, st.params, st.norm, xt, inp.g, transpose=True)

    def check(self, st, inp, out, rec):
        rec.check("solve", self.solve_ok(st, inp, out.x))
        rec.check("solve_transpose", self.transpose_ok(st, inp, out.xt))
        rec.check("vjp", vjp_ok(st.delta, st.maps, st.params, st.norm, out.x, inp.g,
                                out.y, out.grads))

    def memory_calls(self, st, inp, out):
        return (lambda: self.solve(st.params, st.tree, inp.u),
                lambda: solver.vjp(st.params, st.tree, inp.u, out.x, inp.g))


class ChainWorkload(TreeWorkload):
    """A bidirectional chain; the solve is bidirectional_chain_forward.

    Set-up also converts a causal state recurrence with ssm_to_chain.  Each
    round's solve and transpose solve are also compared with the oracle's
    two bidiagonal sweeps at full length.
    """

    expected = _SOLVE_PATH + ["layer.bidirectional_chain_forward", "layer.solve",
                              "layer.build_chain", "topology.build_chain",
                              "params.ssm_to_chain", "params.lu_factor", "params.lu_solve"]

    def tree_of(self, size):
        return topology.build_chain(size)

    def setup(self, seed):
        st = super().setup(seed)
        rng = np.random.default_rng([seed, 3])
        d, n = self.d, self.size
        q, _ = np.linalg.qr(rng.standard_normal((n - 1, d, d)))
        st.ssm_interaction = 0.5 * q
        st.ssm_input = np.eye(d) + 0.1 / np.sqrt(d) * rng.standard_normal((n, d, d))
        st.ssm_params = params.ssm_to_chain(st.ssm_interaction, st.ssm_input)
        return st

    def solve(self, p, tree, u):
        return layer.bidirectional_chain_forward(p, u)

    def prepare(self, st, seed):
        found = super().prepare(st, seed)
        diag, sub, sup = oracle.chain_tridiagonal_blocks(st.params)
        t = lambda a: a.swapaxes(-1, -2)
        st.sweeps = oracle.tridiag_bidiagonal_factor(diag, sub, sup)
        st.sweeps_t = oracle.tridiag_bidiagonal_factor(t(diag), t(sup), t(sub))
        # the converted recurrence against the sequential reference, at full length
        u = np.random.default_rng([seed, 4]).standard_normal((self.size, self.d, 2))
        x = solver.solve(st.ssm_params, st.tree,
                         TreeVector(tuple(u[k][None, None, None] for k in range(self.size))))
        ref = oracle.ssm_reference(st.ssm_interaction, st.ssm_input, u)
        found["ssm_to_chain_matches_recurrence"] = checks.rel_gap(
            [np.concatenate(x.levels, axis=2)[0, 0]], [ref]) <= checks.DENSE_TOL
        return found

    def swept(self, factors, v, w):
        ref = oracle.bidiagonal_solve(factors, np.concatenate(w.levels, axis=2))
        return checks.rel_gap([np.concatenate(v.levels, axis=2)], [ref]) <= checks.DENSE_TOL

    def solve_ok(self, st, inp, x):
        return super().solve_ok(st, inp, x) and self.swept(st.sweeps, x, inp.u)

    def transpose_ok(self, st, inp, xt):
        return super().transpose_ok(st, inp, xt) and self.swept(st.sweeps_t, xt, inp.g)


class ImageWorkload(TreeWorkload):
    """Training steps on image batches: flatten, forward, aggregate, vjp, update.

    Every step builds fresh parameters, a small gradient step from the fixed
    base ones, so parameter-side work cannot be reused and the run does not
    drift.  A separate solve and transpose solve of each step's system time
    those calls on their own.
    """

    expected = _SOLVE_PATH + ["solver.solve", "layer.solve", "layer.forward",
                              "layer.build_input", "layer.aggregate_topk",
                              "topology.flatten_image", "topology.build_quadtree",
                              "topology.build_perfect_tree", "params.update_s"]

    def tree_of(self, side):
        return topology.build_quadtree(topology.GridShape(side, side))

    def config(self, side, seed):
        tree = self.tree_of(side)
        cfg = layer.LayerConfig(tree, (self.d,) * tree.depth, HEADS, "mean", TOP_LEVELS)
        return tree, cfg, params.init_random_stable(tree, self.d, HEADS, seed, COUPLING)

    @staticmethod
    def cotangent(tree):
        """d/dx of the sum of aggregate_topk's output: 1/(top nodes) on the top levels."""
        top = sum(tree.level_sizes[-TOP_LEVELS:])
        return TreeVector(tuple(
            np.full((BATCH, HEADS, n, 1, 1), 1.0 / top if l >= tree.depth - TOP_LEVELS else 0.0)
            for l, n in enumerate(tree.level_sizes)))

    def setup(self, seed):
        tree, cfg, p = self.config(self.size, seed)
        st = SimpleNamespace(tree=tree, cfg=cfg, base=p, params=p, g=self.cotangent(tree),
                             positions=checks.morton_positions(self.size))
        st.first = self.inputs(st, np.random.default_rng([seed, 0]))
        return st

    def inputs(self, st, rng):
        """A random image batch, and the right part the benchmark builds from it itself."""
        side = st.positions.shape[0]
        image = rng.standard_normal((side, side, BATCH, self.d))
        seq = checks.morton_flatten(image, st.positions)
        u = TreeVector(tuple(checks.mean_levels(np.moveaxis(seq, 1, 0), HEADS, st.tree.depth)))
        return SimpleNamespace(image=image, seq=seq, u=u)

    def prepare(self, st, seed):
        st.maps = checks.TreeMaps(st.tree)
        st.delta = checks.random_direction(np.random.default_rng([seed, 5]), st.params)
        leaf = np.moveaxis(st.first.seq, 1, 0)
        found = {"mean_virtual_levels": checks.rel_gap(
            layer.build_input(st.cfg, leaf).levels, st.first.u.levels) <= checks.DENSE_TOL}
        tree, cfg, p = self.config(self.small, seed)
        small = SimpleNamespace(tree=tree, positions=checks.morton_positions(self.small))
        inp = self.inputs(small, np.random.default_rng([seed, 2]))
        forward = lambda p_, t, u: layer.forward(cfg, p_, np.moveaxis(
            topology.flatten_image(inp.image), 1, 0))
        found.update(small_instance_checks(p, tree, inp.u, self.cotangent(tree), forward))
        return found

    def ops(self, st, inp, rec, tracer):
        p, tree = st.params, st.tree
        out = SimpleNamespace(params=p)
        out.xs = rec.timed("solve_s", solver.solve, p, tree, inp.u)
        out.xt = rec.timed("solve_transpose_s", solver.solve_transpose, p, tree, st.g)
        st.params = rec.timed("step_s", self.step, st, inp, out, rec, tracer)
        return out

    def step(self, st, inp, out, rec, tracer):
        """One training step on out.params; returns the next parameters."""
        out.seq = topology.flatten_image(inp.image)
        out.x = layer.forward(st.cfg, out.params, np.moveaxis(out.seq, 1, 0))
        out.pooled = layer.aggregate_topk(out.x, st.cfg)
        out.y, out.grads = rec.inner("vjp_s", solver.vjp, out.params, st.tree, inp.u, out.x, st.g)
        with tracer.span("params.update_s"):
            return params.LevelParams(*(
                tuple(b - LEARNING_RATE * gr for b, gr in zip(bs, gs))
                for bs, gs in zip(checks.blocks(st.base), out.grads)))

    def solve_ok(self, st, inp, x):
        return solved(st.maps, st.params, norms(st.maps, st.params), x, inp.u)

    def check(self, st, inp, out, rec):
        p = out.params
        norm = norms(st.maps, p)
        rec.check("solve", solved(st.maps, p, norm, out.xs, inp.u))
        rec.check("solve_transpose", solved(st.maps, p, norm, out.xt, st.g, transpose=True))
        rec.check("flatten", np.array_equal(out.seq, inp.seq))
        rec.check("forward", solved(st.maps, p, norm, out.x, inp.u))
        rec.check("aggregate", checks.rel_gap(
            [out.pooled], [checks.topk_mean(out.x.levels, TOP_LEVELS)]) <= checks.DENSE_TOL)
        rec.check("vjp", vjp_ok(st.delta, st.maps, p, norm, out.x, st.g, out.y, out.grads))

    def memory_calls(self, st, inp, out):
        return (lambda: solver.solve(out.params, st.tree, inp.u),
                lambda: solver.vjp(out.params, st.tree, inp.u, out.x, st.g))


WORKLOADS = {"quadtree-d4": TreeWorkload, "quadtree-d16": TreeWorkload,
             "chain-d4": ChainWorkload, "image-train-d1": ImageWorkload}
END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("solve_transpose_s", "s"), ("vjp_s", "s"),
              ("step_s", "s"), ("solve_peak_mb", "MB"), ("vjp_peak_mb", "MB")]


def peak_mb(fn):
    """tracemalloc peak of one call, in MB, counting only what the call allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run(name, seed, seconds, trace, smoke=False):
    """Set up, run rounds for ``seconds``, and return the run's result.

    Untraced runs give the end-to-end metrics; traced runs give the
    per-layer ones, and time one extra untraced solve per round to measure
    the tracing overhead.
    """
    wl = WORKLOADS[name](name, smoke)
    tracer = Tracer(wl.level_sizes())
    traced = (lambda phase: tracer.active(phase)) if trace else (lambda phase: nullcontext())
    rec = Recorder()
    for _ in range(SETUP_REPS):
        with traced("setup"):
            st = rec.timed("setup_s", wl.setup, seed)
    fixed = wl.prepare(st, seed)
    rng = np.random.default_rng([seed, 1])
    rounds, end = 0, perf_counter() + seconds
    while rounds == 0 or perf_counter() < end:
        inp = st.first if rounds == 0 else wl.inputs(st, rng)
        with traced("loop"):
            out = wl.ops(st, inp, rec, tracer)
        if trace:
            x = rec.timed("untraced_solve_s", wl.solve, st.params, st.tree, inp.u)
            rec.check("solve", wl.solve_ok(st, inp, x))
        wl.check(st, inp, out, rec)
        rounds += 1
    result = {"correct": all(fixed.values()), "attempted": rec.attempted, "failed": rec.failed,
              "rounds": rounds, "setups": SETUP_REPS, "fixed_checks": fixed,
              "failures": dict(rec.failures),
              "samples": {k: len(v) for k, v in rec.times.items()},
              "raw": {k: median(v) for k, v in rec.times.items()},
              # a tail percentile only where at least ten samples lie beyond it
              "p90": {k: float(np.quantile(v, 0.9)) for k, v in rec.scaled.items()
                      if len(v) >= 100}}
    if trace:
        stats = {}
        if hasattr(solver, "solve_with_stats"):
            _, counters = solver.solve_with_stats(st.params, st.tree, inp.u)
            stats = {k: getattr(counters, k) for k in ("level_steps", "block_ops", "aux_floats")
                     if hasattr(counters, k)}
        overhead = median(rec.times["solve_s"]) - median(rec.times["untraced_solve_s"])
        result["metrics"] = tracer.metrics(SETUP_REPS, rounds, stats, overhead)
        result["not_hit"] = tracer.missing(wl.expected)
    else:
        solve_call, vjp_call = wl.memory_calls(st, inp, out)
        values = {"solve_peak_mb": peak_mb(solve_call), "vjp_peak_mb": peak_mb(vjp_call)}
        values.update((k, median(v)) for k, v in rec.scaled.items())
        result["metrics"] = {k: (values[k], unit) for k, unit in END_TO_END}
    return result
