"""Per-layer tracing from outside the package.

Modules bind imported names at import time (``solver`` holds its own
``lu_factor``, ``layer`` its own ``solve``), so each wrapper replaces the
name in the module that calls it.  A wrapper records the self time of its
call (its duration minus that of wrapped calls inside it) under a metric
key, plus counts taken from the arguments' shapes.  Totals are kept apart
for the set-up and the timed loop, and each metric is reported per set-up
plus per round.  A metric whose functions no longer exist is absent, never
zero.
"""

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from treesolve import layer, params, solver, topology

MODULES = {"topology": topology, "params": params, "solver": solver, "layer": layer}


def _prod(shape):
    return int(np.prod(shape, dtype=np.int64))


def _factor_counts(args, kwargs):
    a = np.shape(args[0])
    blocks, d = _prod(a[:-2]), a[-1]
    return {"linalg.factor_calls": 1, "linalg.factor_blocks": blocks,
            "linalg.computed_flops": blocks * 2 * d ** 3 // 3}


def _solve_counts(args, kwargs):
    lu, b = np.shape(args[0]), np.shape(args[2])
    blocks = _prod(np.broadcast_shapes(lu[:-2], b[:-2]))
    counts = {"linalg.computed_flops": blocks * 2 * lu[-1] ** 2 * b[-1]}
    if len(b) > len(lu):  # right parts carry a batch axis, parameter blocks do not
        counts["linalg.solve_columns"] = blocks * b[-1]
    return counts


def _solve_key(args, kwargs):
    rhs = np.ndim(args[2]) > np.ndim(args[0])
    return "linalg.rhs_solve_s" if rhs else "linalg.param_solve_s"


# (module, attribute, self-time key or a function of the call's arguments,
#  function giving counts from the arguments or None)
PATCHES = [
    ("topology", "build_perfect_tree", "topology.build_s", None),
    ("topology", "build_quadtree", "topology.build_s", None),
    ("topology", "build_chain", "topology.build_s", None),
    ("layer", "build_chain", "topology.build_s", None),
    ("topology", "flatten_image", "topology.flatten_s", None),
    ("params", "init_random_stable", "params.init_s", None),
    ("params", "ssm_to_chain", "params.ssm_to_chain_s", None),
    ("params", "lu_factor", "linalg.factor_s", _factor_counts),
    ("params", "lu_solve", _solve_key, _solve_counts),
    ("solver", "lu_factor", "linalg.factor_s", _factor_counts),
    ("solver", "lu_solve", _solve_key, _solve_counts),
    ("solver", "upward_step", "solver.message_s", None),
    ("solver", "segment_sum", "solver.segment_sum_s", None),
    ("solver", "downward_step", "solver.backsub_s", None),
    ("solver", "downward_sweep", "solver.root_s", None),
    ("solver", "upward_sweep", "solver.sweep_s", None),
    ("solver", "solve", "solver.solve_s", None),
    ("solver", "solve_transpose", "solver.solve_transpose_s", None),
    ("solver", "transpose_params", "solver.transpose_params_s", None),
    ("solver", "vjp", "solver.vjp_outer_s", None),
    ("layer", "solve", "solver.solve_s", None),
    ("layer", "forward", "layer.forward_s", None),
    ("layer", "build_input", "layer.build_input_s", None),
    ("layer", "aggregate_topk", "layer.aggregate_s", None),
    ("layer", "bidirectional_chain_forward", "layer.chain_forward_s", None),
]
# Spans the benchmark opens around its own calls.
OWN_SPANS = {"params.update_s": "params"}

LEVELS = 7
_T = "s"
# (metric, unit, patches or own spans it is made from); order as in BENCHMARK.json
LAYER_METRICS = [
    ("topology.build_s", _T, ["topology.build_perfect_tree", "topology.build_quadtree",
                              "topology.build_chain", "layer.build_chain"]),
    ("topology.flatten_s", _T, ["topology.flatten_image"]),
    ("params.init_s", _T, ["params.init_random_stable"]),
    ("params.ssm_to_chain_s", _T, ["params.ssm_to_chain"]),
    ("params.update_s", _T, ["params.update_s"]),
    ("linalg.factor_s", _T, ["solver.lu_factor", "params.lu_factor"]),
    ("linalg.factor_calls", "count", ["solver.lu_factor", "params.lu_factor"]),
    ("linalg.factor_blocks", "count", ["solver.lu_factor", "params.lu_factor"]),
    ("linalg.param_solve_s", _T, ["solver.lu_solve", "params.lu_solve"]),
    ("linalg.rhs_solve_s", _T, ["solver.lu_solve", "params.lu_solve"]),
    ("linalg.solve_columns", "count", ["solver.lu_solve", "params.lu_solve"]),
    ("linalg.computed_flops", "flop", ["solver.lu_factor", "params.lu_factor",
                                       "solver.lu_solve", "params.lu_solve"]),
    ("solver.message_s", _T, ["solver.upward_step"]),
    ("solver.segment_sum_s", _T, ["solver.segment_sum"]),
    ("solver.backsub_s", _T, ["solver.downward_step"]),
    ("solver.root_s", _T, ["solver.downward_sweep"]),
    ("solver.transpose_params_s", _T, ["solver.transpose_params"]),
    ("solver.vjp_outer_s", _T, ["solver.vjp"]),
    ("solver.level_steps", "count", ["solver.solve_with_stats"]),
    ("solver.block_ops", "count", ["solver.solve_with_stats"]),
    ("solver.aux_floats", "count", ["solver.solve_with_stats"]),
    *((f"solver.up.l{k}_s", _T, ["solver.upward_step"]) for k in range(1, LEVELS + 1)),
    *((f"solver.down.l{k}_s", _T, ["solver.downward_step"]) for k in range(1, LEVELS + 1)),
    ("layer.build_input_s", _T, ["layer.build_input"]),
    ("layer.aggregate_s", _T, ["layer.aggregate_topk"]),
    *((f"{m}_s", _T, []) for m in ("topology", "params", "linalg", "solver", "layer")),
    ("trace.overhead_s", _T, []),
]


class Tracer:
    """Wraps the package's functions while active and sums their self times.

    ``level_sizes`` maps a downward step to its level by the node count of
    its arrays; when two levels share a node count (a chain) no per-level
    split is kept.
    """

    def __init__(self, level_sizes):
        sizes = list(level_sizes)
        self._level_of = ({n: l for l, n in enumerate(sizes)}
                          if len(set(sizes)) == len(sizes) else {})
        self.totals = {"setup": Counter(), "loop": Counter()}
        self.phase = "setup"
        self.hits = set()
        self.on = False
        self._children = []
        self._saved = []
        self.present = set(OWN_SPANS)
        for mod, attr, _, _ in PATCHES:
            if hasattr(MODULES[mod], attr):
                self.present.add(f"{mod}.{attr}")
        if hasattr(solver, "solve_with_stats"):
            self.present.add("solver.solve_with_stats")

    def _record(self, name, layer_name, key, dt, extra=()):
        """Close a span: charge its self time and pass its duration to the parent."""
        child = self._children.pop()
        if self._children:
            self._children[-1] += dt
        tot = self.totals[self.phase]
        tot[key] += dt - child
        tot[f"{layer_name}_s"] += dt - child
        for k, v in extra:
            tot[k] += v
        self.hits.add(name)

    def _wrap(self, mod, attr, key, counts):
        fn = getattr(MODULES[mod], attr)
        name = f"{mod}.{attr}"
        layer_name = fn.__module__.rsplit(".", 1)[-1]

        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                extra = list(counts(args, kwargs).items()) if counts else []
                if attr == "upward_step" and self._level_of:
                    extra.append((f"solver.up.l{kwargs.get('child_level', 0) + 1}_s", dt))
                elif attr == "downward_step":
                    level = self._level_of.get(np.shape(args[0])[2])
                    if level is not None:
                        extra.append((f"solver.down.l{level + 1}_s", dt))
                self._record(name, layer_name, key(args, kwargs) if callable(key) else key,
                             dt, extra)
        return wrapper

    @contextmanager
    def active(self, phase):
        """Install every wrapper for the duration of the block."""
        self.phase = phase
        for mod, attr, key, counts in PATCHES:
            if f"{mod}.{attr}" in self.present:
                self._saved.append((mod, attr, getattr(MODULES[mod], attr)))
                setattr(MODULES[mod], attr, self._wrap(mod, attr, key, counts))
        self.on = True
        try:
            yield self
        finally:
            self.on = False
            while self._saved:
                mod, attr, fn = self._saved.pop()
                setattr(MODULES[mod], attr, fn)

    @contextmanager
    def span(self, key):
        """A span the benchmark opens around its own call into a layer."""
        if not self.on:
            yield
            return
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._record(key, OWN_SPANS[key], key, perf_counter() - t0)

    def missing(self, expected):
        """Expected wrappers that exist but were never called."""
        return sorted(set(expected) & self.present - self.hits)

    def metrics(self, setups, rounds, stats, overhead):
        """Per-layer metrics per set-up plus per round; absent ones are left out."""
        setup, loop = self.totals["setup"], self.totals["loop"]
        out = {}
        for name, unit, sources in LAYER_METRICS:
            if sources and not self.present.intersection(sources):
                continue
            if name.startswith("solver.") and name.split(".")[1] in stats:
                value = stats[name.split(".")[1]]
            elif name == "trace.overhead_s":
                value = overhead
            else:
                value = setup[name] / setups + loop[name] / rounds
            out[name] = (value, unit)
        return out
