"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from treesolve import (DenseSystem, LevelData, LevelParams, TreeVector,
                       apply_gauge, bidiagonal_solve,
                       build_chain, build_perfect_tree, chain_inverse_entry,
                       init_random_stable, scale_rhs, solve, solve_with_stats,
                       ssm_reference, ssm_to_chain, tridiag_bidiagonal_factor,
                       upward_step, vjp)
from treesolve.cli import main
from helpers import dot, jvp, perturbation_like, random_params, random_rhs, rel_err


def report(criterion, label, ok, detail):
    print(f"[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _random_instance(rng, tree):
    d = int(rng.choice([1, 2, 4]))
    heads = int(rng.choice([1, 2]))
    r = int(rng.choice([1, 3]))
    if rng.integers(2):
        params = init_random_stable(tree, d, heads=heads,
                                    seed=int(rng.integers(2 ** 31)),
                                    coupling_scale=0.9)
    else:
        params = random_params(tree, d, heads=heads, rng=rng, coupling=0.5,
                               diag_jitter=0.3)
    u = random_rhs(tree, d, heads=heads, right_parts=r, rng=rng)
    return params, u


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    started = time.perf_counter()
    worst_rel, worst_resid = 0.0, 0.0
    families = {
        "chain": lambda: build_chain(int(rng.integers(2, 65))),
        "binary": lambda: build_perfect_tree(2, 2 ** int(rng.integers(1, 9))),
        "quad": lambda: build_perfect_tree(4, 4 ** int(rng.integers(1, 5))),
    }
    for family, make_tree in families.items():
        for _ in range(100):
            tree = make_tree()
            params, u = _random_instance(rng, tree)
            x = solve(params, tree, u)
            system = DenseSystem(params, tree)
            x_ref = system.solve(u)
            worst_rel = max(worst_rel, rel_err(x, x_ref))
            worst_resid = max(worst_resid, system.residual(x, u) / u.max_abs())
    elapsed = time.perf_counter() - started
    ok = worst_rel <= 1e-10 and worst_resid <= 1e-9 and elapsed < 120.0
    report(1, "oracle equivalence (300 instances)", ok,
           f"max rel err {worst_rel:.2e} <= 1e-10, "
           f"max rel residual {worst_resid:.2e} <= 1e-9, {elapsed:.1f}s < 120s")


def test_criterion_2_ssm_special_case():
    rng = np.random.default_rng(20240102)
    worst = 0.0
    for trial in range(50):
        d = 1 if trial % 2 == 0 else int(rng.choice([2, 3, 4]))
        L = int(rng.integers(2, 129))
        S = np.eye(d) + 0.4 * rng.uniform(-1, 1, (L, d, d)) / d
        I = 0.8 * rng.uniform(-1, 1, (L - 1, d, d)) / d
        u_seq = rng.standard_normal((L, d, int(rng.choice([1, 2]))))
        want = ssm_reference(I, S, u_seq)
        x = solve(ssm_to_chain(I, S), build_chain(L), TreeVector(tuple(
            u_seq[k][None, None, None] for k in range(L))))
        got = np.stack([v[0, 0, 0] for v in x.levels])
        worst = max(worst, float(np.max(np.abs(got - want))
                                 / max(1.0, np.max(np.abs(want)))))
    report(2, "state recurrence as chain solve (50 instances)", worst <= 1e-12,
           f"max rel err {worst:.2e} <= 1e-12")


def test_criterion_3_chain_closed_form_inverse():
    rng = np.random.default_rng(20240103)
    worst = 0.0
    for L, d in [(2, 1), (7, 1), (33, 1), (64, 1), (16, 2)]:
        sub = rng.uniform(-0.9, 0.9, (L - 1, d, d))
        eye = np.broadcast_to(np.eye(d), (1, 1, d, d)).copy()
        params = LevelParams(
            tuple(eye for _ in range(L)),
            tuple(np.zeros((1, 1, d, d)) for _ in range(L - 1)),
            tuple(sub[k][None, None] for k in range(L - 1)),
        )
        inv = DenseSystem(params, build_chain(L)).inverse()[0]
        for i in range(1, L + 1):
            for j in range(1, L + 1):
                got = chain_inverse_entry(sub, i, j)
                want = inv[(i - 1) * d : i * d, (j - 1) * d : j * d]
                worst = max(worst, float(np.max(np.abs(got - want))))
    report(3, "chain closed-form inverse (L <= 64, every entry)", worst <= 1e-12,
           f"max abs err {worst:.2e} <= 1e-12")


def test_criterion_4_bidirectional_factorization():
    rng = np.random.default_rng(20240104)
    worst_lu, worst_solve = 0.0, 0.0
    for _ in range(50):
        L = int(rng.integers(2, 65))
        d = int(rng.choice([1, 2, 3]))
        diag = 2 * np.eye(d) + 0.3 * rng.uniform(-1, 1, (L, d, d)) / d
        sub = 0.5 * rng.uniform(-1, 1, (L - 1, d, d)) / d
        sup = 0.5 * rng.uniform(-1, 1, (L - 1, d, d)) / d
        fac = tridiag_bidiagonal_factor(diag, sub, sup)
        # reconstruct the three bands of L @ U
        recon_diag = fac.upper_diag.copy()
        recon_diag[1:] += fac.lower_sub @ fac.upper_super
        recon_sub = fac.lower_sub @ fac.upper_diag[:-1]
        worst_lu = max(worst_lu,
                       float(np.max(np.abs(recon_diag - diag))),
                       float(np.max(np.abs(recon_sub - sub))))
        u_seq = rng.standard_normal((L, d, 1))
        x_sweep = bidiagonal_solve(fac, u_seq)
        params = LevelParams(
            tuple(diag[k][None, None] for k in range(L)),
            tuple(sup[k][None, None] for k in range(L - 1)),
            tuple(sub[k][None, None] for k in range(L - 1)),
        )
        x = solve(params, build_chain(L), TreeVector(tuple(
            u_seq[k][None, None, None] for k in range(L))))
        got = np.stack([v[0, 0, 0] for v in x.levels])
        scale = max(1.0, float(np.max(np.abs(got))))
        worst_solve = max(worst_solve, float(np.max(np.abs(got - x_sweep))) / scale)
    ok = worst_lu <= 1e-12 and worst_solve <= 1e-10
    report(4, "tridiagonal two-sweep factorization (50 instances)", ok,
           f"max LU reconstruction err {worst_lu:.2e} <= 1e-12, "
           f"max sweep-vs-tree err {worst_solve:.2e} <= 1e-10")


def test_criterion_5_gauge_invariance():
    rng = np.random.default_rng(20240105)
    worst = 0.0
    tree = build_perfect_tree(2, 32)
    d = 2
    params = random_params(tree, d, heads=2, rng=rng)
    u = random_rhs(tree, d, heads=2, rng=rng)
    x0 = solve(params, tree, u)
    for _ in range(20):
        gauge = [np.eye(d) + 0.4 * rng.uniform(-1, 1, a.shape) for a in params.A]
        x1 = solve(apply_gauge(params, tree, gauge), tree, scale_rhs(u, gauge))
        worst = max(worst, rel_err(x1, x0))
    report(5, "gauge invariance (20 random row rescalings)", worst <= 1e-10,
           f"max rel deviation {worst:.2e} <= 1e-10")


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(20240106)
    worst_fd, worst_dot = 0.0, 0.0
    for tree in (build_perfect_tree(2, 16), build_chain(9),
                 build_perfect_tree(4, 16)):
        assert tree.total_nodes <= 31
        params = random_params(tree, 1, rng=rng, coupling=0.5)
        u = random_rhs(tree, 1, rng=rng)
        g = random_rhs(tree, 1, rng=rng)
        x = solve(params, tree, u)
        grad_u, grads = vjp(params, tree, u, x, g)

        def loss(sol):
            return dot(g, sol)

        from treesolve import finite_diff_grad
        fd_u, fd = finite_diff_grad(params, tree, u, loss, eps=1e-5)
        for got, want in zip(
            grads.A + grads.B + grads.C + grad_u.levels,
            fd.A + fd.B + fd.C + fd_u.levels,
        ):
            if got.size:
                err = np.abs(got - want) / np.maximum(
                    np.maximum(np.abs(got), np.abs(want)), 1.0)
                worst_fd = max(worst_fd, float(np.max(err)))
        for _ in range(5):
            d_params = perturbation_like(params, rng)
            d_u = random_rhs(tree, 1, rng=rng)
            dx = jvp(params, tree, u, x, d_params, d_u)
            lhs = dot(g, dx)
            rhs = dot(grad_u, d_u) + sum(
                float((gv * dv).sum()) for gv, dv in zip(
                    grads.A + grads.B + grads.C,
                    d_params.A + d_params.B + d_params.C))
            worst_dot = max(worst_dot, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    ok = worst_fd < 1e-5 and worst_dot < 1e-8
    report(6, "adjoint gradients (finite differences + dot test)", ok,
           f"max fd rel err {worst_fd:.2e} < 1e-5, max dot-test err {worst_dot:.2e} < 1e-8")


def test_criterion_7_complexity_counters():
    ok_steps = True
    for arity, powers in ((4, range(1, 6)), (2, range(1, 8))):
        for p in powers:
            tree = build_perfect_tree(arity, arity ** p)
            params = init_random_stable(tree, 1, seed=0, coupling_scale=0.5)
            u = random_rhs(tree, 1, rng=np.random.default_rng(0))
            _, stats = solve_with_stats(params, tree, u)
            ok_steps &= stats.level_steps == 2 * (tree.depth - 1) + 1
    ops, aux = [], []
    for leaves in (16, 32, 64, 128, 256, 512, 1024):
        tree = build_perfect_tree(2, leaves)
        params = init_random_stable(tree, 1, seed=0, coupling_scale=0.5)
        u = random_rhs(tree, 1, rng=np.random.default_rng(0))
        _, stats = solve_with_stats(params, tree, u)
        ops.append(stats.block_ops)
        aux.append(stats.aux_floats)
    op_ratios = [b / a for a, b in zip(ops, ops[1:])]
    aux_ratios = [b / a for a, b in zip(aux, aux[1:])]
    ok_linear = all(1.8 <= r <= 2.2 for r in op_ratios + aux_ratios)
    report(7, "complexity counters", ok_steps and ok_linear,
           f"level_steps == 2(D-1)+1 exact: {ok_steps}; doubling ratios "
           f"ops {min(op_ratios):.3f}..{max(op_ratios):.3f}, "
           f"aux {min(aux_ratios):.3f}..{max(aux_ratios):.3f} within [1.8, 2.2]")


def test_criterion_8_flatten_orders(tmp_path):
    morton_want = {
        (0, 0): 1, (1, 0): 2, (2, 0): 5, (3, 0): 6,
        (0, 1): 3, (1, 1): 4, (2, 1): 7, (3, 1): 8,
        (0, 2): 9, (1, 2): 10, (2, 2): 13, (3, 2): 14,
        (0, 3): 11, (1, 3): 12, (2, 3): 15, (3, 3): 16,
    }
    snake_want = {
        (0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
        (0, 1): 8, (1, 1): 7, (2, 1): 6, (3, 1): 5,
        (0, 2): 9, (1, 2): 10, (2, 2): 11, (3, 2): 12,
        (0, 3): 16, (1, 3): 15, (2, 3): 14, (3, 3): 13,
    }
    checked = 0
    ok = True
    for order, want in (("morton", morton_want), ("snake", snake_want)):
        out = tmp_path / f"{order}.txt"
        code = main(["flatten", "--height", "4", "--width", "4",
                     "--order", order, "--out", str(out)])
        ok &= code == 0
        got = {}
        for line in out.read_text().splitlines():
            x, y, idx = (int(t) for t in line.split())
            got[(x, y)] = idx
        for key, idx in want.items():
            ok &= got.get(key) == idx
            checked += 1
    report(8, "flattening order fidelity", ok and checked == 32,
           f"{checked} table entries reproduced through the CLI")


def test_criterion_9_stable_parametrization():
    rng = np.random.default_rng(20240109)
    min_eig, max_asym = np.inf, 0.0
    for _ in range(100):
        kind = rng.integers(3)
        if kind == 0:
            tree = build_perfect_tree(2, 2 ** int(rng.integers(1, 7)))
        elif kind == 1:
            tree = build_perfect_tree(4, 4 ** int(rng.integers(1, 4)))
        else:
            tree = build_chain(int(rng.integers(2, 33)))
        d = int(rng.integers(1, 5))
        params = init_random_stable(tree, d, heads=int(rng.choice([1, 2])),
                                    seed=int(rng.integers(2 ** 31)),
                                    coupling_scale=float(rng.uniform(0, 1)))
        u = TreeVector.zeros(tree, params.block_sizes, heads=params.heads)
        carry = LevelData(params.A[0], params.B[0] if tree.depth > 1 else None,
                          params.C[0] if tree.depth > 1 else None, u.levels[0])
        for l in range(1, tree.depth):
            has_up = l < tree.depth - 1
            parent = LevelData(params.A[l], params.B[l] if has_up else None,
                               params.C[l] if has_up else None, u.levels[l])
            carry, _ = upward_step(carry, parent, tree.splits(l - 1))
            max_asym = max(max_asym, float(np.max(
                np.abs(carry.A - carry.A.swapaxes(-1, -2)))))
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(carry.A))))
    ok = max_asym <= 1e-12 and min_eig > 0.0
    report(9, "stable parametrization keeps pivots SPD (100 upward passes)", ok,
           f"max asymmetry {max_asym:.2e}, min eigenvalue {min_eig:.6f} > 0")
