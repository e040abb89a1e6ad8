"""Command-line interface: generate, verify, benchmark, flatten, gradcheck.

Exit codes: 0 success, 1 usage error, 2 numerical failure (a singular block,
or a tree solution that overflows to non-finite entries), 3 verification failure.
"""

import argparse
import csv
import sys
import time

import numpy as np

from .oracle import MAX_DENSE_NODES, DenseSystem, finite_diff_grad
from .params import TreeVector, init_random_stable
from .problem_io import read_problem, write_problem
from .solver import solve, solve_with_stats, vjp
from .topology import GridShape, build_perfect_tree, order_indices

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bounded(kind, low, strict=False):
    """argparse ``type=``: a finite ``kind`` value at least ``low`` (above it if ``strict``)."""
    def parse(text):
        value = kind(text)
        if not np.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _sizes(text):
    """argparse ``type=`` for ``bench --sizes``: comma-separated leaf counts, each >= 1."""
    return [_bounded(int, 1)(s) for s in text.split(",")]


_sizes.__name__ = "int list"


def _ones_like(u: TreeVector) -> TreeVector:
    return TreeVector(tuple(np.ones_like(v) for v in u.levels))


def _tree_solve(params, tree, u: TreeVector) -> TreeVector:
    """:func:`solve`, refusing a non-finite solution as a numerical failure that names its level.

    The check stays here, so the library's ``solve`` pays nothing for it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the refusal below is the one report
        x = solve(params, tree, u)
    for l, level in enumerate(x.levels):
        if not np.isfinite(level).all():
            raise np.linalg.LinAlgError(
                f"tree solution level {l + 1} overflows to non-finite entries")
    return x


def _problem(arity, leaves, block_size, heads, batch, rhs, seed, gamma):
    """A perfect tree, stable random parameters and a normal right part, all fixed by ``seed``."""
    tree = build_perfect_tree(arity, leaves)
    params = init_random_stable(tree, block_sizes=block_size, heads=heads,
                                seed=seed, coupling_scale=gamma)
    # separate stream from the parameter init, still fully determined by seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    u = TreeVector(tuple(rng.standard_normal((batch, heads, n, block_size, rhs))
                         for n in tree.level_sizes))
    return tree, params, u


def cmd_gen(args) -> int:
    tree, params, u = _problem(args.arity, args.leaves, args.block_size, args.heads,
                               args.batch, args.rhs, args.seed, args.gamma)
    write_problem(args.out, tree, params, u)
    print(f"wrote {args.out}: {tree.total_nodes} nodes, depth {tree.depth}, "
          f"block size {args.block_size}, heads {args.heads}, "
          f"batch {args.batch}, right parts {args.rhs}")
    return EXIT_OK


def cmd_verify(args) -> int:
    tree, params, u = read_problem(args.infile)
    system = DenseSystem(params, tree, max_nodes=args.max_dense)
    x = _tree_solve(params, tree, u)
    x_ref = system.solve(u)
    scale = max(x_ref.max_abs(), np.finfo(np.float64).tiny)
    discrepancy = (x - x_ref).max_abs() / scale
    residual = system.residual(x, u)
    u_scale = max(u.max_abs(), np.finfo(np.float64).tiny)
    ok = discrepancy <= args.tol
    print(f"max relative discrepancy vs dense solve: {discrepancy:.3e}")
    print(f"residual (max abs): {residual:.3e} ({residual / u_scale:.3e} relative)")
    print(f"{'PASS' if ok else 'FAIL'} at tolerance {args.tol:g}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bench(args) -> int:
    rows = []
    for leaves in args.sizes:
        best = np.inf
        for _ in range(args.repeats):
            # a fresh instance per repeat, so no repeat reuses a cached factor
            tree, params, u = _problem(args.arity, leaves, args.block_size, heads=1, batch=1,
                                       rhs=1, seed=args.seed, gamma=0.5)
            t0 = time.perf_counter()
            _, stats = solve_with_stats(params, tree, u)
            best = min(best, time.perf_counter() - t0)
        rows.append({
            "L": leaves,
            "wall_time": f"{best:.6e}",
            "level_steps": stats.level_steps,
            "block_op_count": stats.block_ops,
        })
    with open(args.out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["L", "wall_time", "level_steps",
                                               "block_op_count"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_flatten(args) -> int:
    grid = GridShape(args.height, args.width)
    idx = order_indices(grid, args.order)
    y, x = np.indices(idx.shape)
    np.savetxt(args.out, np.column_stack([x.ravel(), y.ravel(), idx.ravel()]), fmt="%d")
    print(f"wrote {args.out}: {grid.pixels} pixels in {args.order} order")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    tree, params, u = read_problem(args.infile)
    n_entries = sum(a.size for a in params.A + params.B + params.C + u.levels)
    if n_entries > args.max_entries:
        raise _UsageError(
            f"{n_entries} differentiable entries exceed the gradcheck cap "
            f"{args.max_entries}; use a smaller problem"
        )
    x = _tree_solve(params, tree, u)
    grad_u, grads = vjp(params, tree, u, x, _ones_like(u))

    def total(sol: TreeVector) -> float:
        return float(sum(v.sum() for v in sol.levels))

    fd_u, fd_grads = finite_diff_grad(params, tree, u, total, eps=args.eps)

    got, want = (np.concatenate([a.ravel() for a in g.A + g.B + g.C + v.levels])
                 for g, v in ((grads, grad_u), (fd_grads, fd_u)))
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)
    worst = float(np.max(np.abs(got - want) / scale, initial=0.0))
    ok = worst < args.tol
    print(f"max relative error vs central differences (eps {args.eps:g}): {worst:.3e}")
    print(f"{'PASS' if ok else 'FAIL'} at tolerance {args.tol:g}")
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser() -> _Parser:
    parser = _Parser(prog="treesolve",
                     description="Block tree-structured linear system toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a random well-posed problem file")
    gen.add_argument("--arity", type=int, required=True)
    gen.add_argument("--leaves", type=int, required=True)
    gen.add_argument("--block-size", type=int, default=1)
    gen.add_argument("--heads", type=int, default=1)
    gen.add_argument("--batch", type=_bounded(int, 1), default=1)
    gen.add_argument("--rhs", type=_bounded(int, 1), default=1)
    gen.add_argument("--gamma", type=float, default=0.5,
                     help="coupling scale of the stable initialization")
    gen.add_argument("--seed", type=_bounded(int, 0), default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="compare the tree solve against the dense oracle")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--max-dense", type=_bounded(int, 1), default=MAX_DENSE_NODES)
    verify.add_argument("--tol", type=_bounded(float, 0), default=1e-10)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time solves and dump operation counters")
    bench.add_argument("--arity", type=int, required=True)
    bench.add_argument("--block-size", type=int, default=1)
    bench.add_argument("--sizes", type=_sizes, required=True, help="comma-separated leaf counts")
    bench.add_argument("--repeats", type=_bounded(int, 1), default=3,
                       help="timings per size; the best is reported")
    bench.add_argument("--seed", type=_bounded(int, 0), default=0)
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.set_defaults(func=cmd_bench)

    flatten = sub.add_parser("flatten", help="write a pixel -> 1-based position map")
    flatten.add_argument("--height", type=int, required=True)
    flatten.add_argument("--width", type=int, required=True)
    flatten.add_argument("--order", choices=("morton", "snake"), required=True)
    flatten.add_argument("--out", required=True)
    flatten.set_defaults(func=cmd_flatten)

    gradcheck = sub.add_parser("gradcheck",
                               help="compare adjoint gradients with finite differences")
    gradcheck.add_argument("--in", dest="infile", required=True)
    gradcheck.add_argument("--eps", type=_bounded(float, 0, strict=True), default=1e-5)
    gradcheck.add_argument("--tol", type=_bounded(float, 0), default=1e-5)
    gradcheck.add_argument("--max-entries", type=_bounded(int, 1), default=10_000)
    gradcheck.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as e:
        # SingularBlockError and _tree_solve name the offending level in their message
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
