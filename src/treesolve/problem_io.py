"""Problem-file serialization.

Layout: one JSON header line, then a single contiguous little-endian float64
payload.  The header carries
``{"format_version", "tree", "block_sizes", "heads", "batch", "right_parts"}``
where ``tree`` is either ``{"arity", "leaf_count"}`` for perfect trees or
``{"level_sizes", "split_sizes"}`` (leaf level first).  The payload holds the
A arrays for levels 1..D, then B for levels 1..D-1, then C for levels
1..D-1, then the right parts for levels 1..D, each array in C order with the
shapes documented in :mod:`treesolve.params`.  Floats round-trip bit for bit.
"""

import json

import numpy as np

from .params import LevelParams, TreeVector
from .topology import TreeTopology, build_perfect_tree

__all__ = ["FORMAT_VERSION", "write_problem", "read_problem"]

FORMAT_VERSION = 1
_DTYPE = np.dtype("<f8")


def _tree_header(tree: TreeTopology) -> dict:
    if tree.arity is not None:
        return {"arity": tree.arity, "leaf_count": tree.level_sizes[0]}
    return {
        "level_sizes": list(tree.level_sizes),
        "split_sizes": [list(grp) for grp in tree.split_sizes],
    }


def _tree_from_header(entry: dict) -> TreeTopology:
    if "arity" in entry:
        return build_perfect_tree(int(entry["arity"]), int(entry["leaf_count"]))
    return TreeTopology(
        tuple(entry["level_sizes"]),
        tuple(tuple(grp) for grp in entry["split_sizes"]),
    )


def write_problem(path, tree: TreeTopology, params: LevelParams, u: TreeVector) -> None:
    params.validate_for(tree)
    if u.node_counts != tree.level_sizes or u.block_sizes != params.block_sizes:
        raise ValueError("right part does not match the tree/parameter structure")
    header = {
        "format_version": FORMAT_VERSION,
        "tree": _tree_header(tree),
        "block_sizes": list(params.block_sizes),
        "heads": params.heads,
        "batch": u.batch,
        "right_parts": u.right_parts,
    }
    chunks = list(params.A) + list(params.B) + list(params.C) + list(u.levels)
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for arr in chunks:
            f.write(np.ascontiguousarray(arr, dtype=_DTYPE).tobytes())


def read_problem(path):
    """Returns (tree, params, u)."""
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"unreadable problem header: {e}") from None
    if not isinstance(header, dict):
        raise ValueError(f"malformed problem header: expected a JSON object, "
                         f"got {type(header).__name__}")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    try:
        tree = _tree_from_header(header["tree"])
        d = [int(x) for x in header["block_sizes"]]
        heads, batch, r = int(header["heads"]), int(header["batch"]), int(header["right_parts"])
    except KeyError as e:
        raise ValueError(f"malformed problem header: missing key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed problem header: {e}") from None
    if len(d) != tree.depth:
        raise ValueError(f"expected {tree.depth} block sizes, got {len(d)}")
    if min(heads, batch, r) < 1:
        raise ValueError("heads, batch and right_parts must be positive")
    n = tree.level_sizes
    shapes = (
        [(heads, n[l], d[l], d[l]) for l in range(tree.depth)]
        + [(heads, n[l], d[l], d[l + 1]) for l in range(tree.depth - 1)]
        + [(heads, n[l], d[l + 1], d[l]) for l in range(tree.depth - 1)]
        + [(batch, heads, n[l], d[l], r) for l in range(tree.depth)]
    )
    total = sum(int(np.prod(s)) for s in shapes)
    data = np.frombuffer(payload, dtype=_DTYPE)
    if data.size != total:
        raise ValueError(f"payload holds {data.size} floats, expected {total}")
    arrays, at = [], 0
    for s in shapes:
        cnt = int(np.prod(s))
        arrays.append(data[at : at + cnt].reshape(s))
        at += cnt
    depth = tree.depth
    params = LevelParams(
        tuple(arrays[:depth]),
        tuple(arrays[depth : 2 * depth - 1]),
        tuple(arrays[2 * depth - 1 : 3 * depth - 2]),
    )
    u = TreeVector(tuple(arrays[3 * depth - 2 :]))
    return tree, params, u
