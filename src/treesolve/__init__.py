"""treesolve: direct solves of block tree-structured linear systems.

A system whose block sparsity follows a rooted tree (each node coupled only
with its parent) is solved exactly by one leaf-to-root elimination pass and
one root-to-leaf substitution pass.  Names not exported here are imported
from their modules.
"""

from .linalg import SingularBlockError
from .layer import LayerConfig, aggregate_topk, forward
from .oracle import (DenseSystem, bidiagonal_solve, chain_inverse_entry,
                     finite_diff_grad, ssm_reference, tridiag_bidiagonal_factor)
from .params import (LevelParams, TreeVector, apply_gauge, init_random_stable,
                     scale_rhs, ssm_to_chain)
from .problem_io import read_problem, write_problem
from .solver import solve, solve_transpose, solve_with_stats, upward_step, vjp
from .topology import (GridShape, TreeTopology, build_chain, build_perfect_tree,
                       build_quadtree, flatten_image, order_indices)

__version__ = "0.1.0"

__all__ = [
    "SingularBlockError",
    "LayerConfig", "aggregate_topk", "forward",
    "DenseSystem", "bidiagonal_solve", "chain_inverse_entry", "finite_diff_grad",
    "ssm_reference", "tridiag_bidiagonal_factor",
    "LevelParams", "TreeVector", "apply_gauge", "init_random_stable", "scale_rhs",
    "ssm_to_chain",
    "read_problem", "write_problem",
    "solve", "solve_transpose", "solve_with_stats", "upward_step", "vjp",
    "GridShape", "TreeTopology", "build_chain", "build_perfect_tree",
    "build_quadtree", "flatten_image", "order_indices",
    "__version__",
]
