"""Problem-file serialization; floats round-trip bit for bit.

One JSON header line ``{"format_version", "tree", "block_sizes", "heads",
"batch", "right_parts"}``, where ``tree`` is ``{"arity", "leaf_count"}`` when
every split is one ``arity >= 2`` and ``{"level_sizes", "split_sizes"}``
(leaf level first) otherwise, then one little-endian float64 payload: A for
levels 1..D, then B and C for levels 1..D-1, then the right parts for levels
1..D, each C-ordered with the shapes of :mod:`treesolve.params`.
"""

import json
import math

import numpy as np

from .params import LevelParams, TreeVector, _block_size_list
from .topology import TreeTopology, _perfect_level_sizes, _positive, build_perfect_tree

__all__ = ["FORMAT_VERSION", "write_problem", "read_problem"]

FORMAT_VERSION = 1
_DTYPE = np.dtype("<f8")


def _tree_header(tree: TreeTopology) -> dict:
    # a tree whose every split is one k >= 2 is build_perfect_tree(k, leaf count)
    arities = {s for grp in tree.split_sizes for s in grp}
    if len(arities) == 1 and min(arities) >= 2:
        return {"arity": arities.pop(), "leaf_count": tree.level_sizes[0]}
    return {
        "level_sizes": list(tree.level_sizes),
        "split_sizes": [list(grp) for grp in tree.split_sizes],
    }


def _level_sizes_from_header(entry: dict) -> tuple:
    if "arity" in entry:
        return _perfect_level_sizes(entry["arity"], entry["leaf_count"])
    return tuple(_positive(n, "level size") for n in entry["level_sizes"])


def _tree_from_header(entry: dict) -> TreeTopology:
    if "arity" in entry:
        return build_perfect_tree(entry["arity"], entry["leaf_count"])
    return TreeTopology(entry["level_sizes"], entry["split_sizes"])


def write_problem(path, tree: TreeTopology, params: LevelParams, u: TreeVector) -> None:
    params.check_vector(tree, u)
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"unreadable problem header: {e}") from None
    if not isinstance(header, dict):
        raise ValueError(f"malformed problem header: expected a JSON object, "
                         f"got {type(header).__name__}")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise ValueError(f"unsupported format version {version!r}")
    # the payload is sized from the header alone, in exact integers, so a
    # header claiming a huge tree is refused before anything that large is built
    try:
        n = _level_sizes_from_header(header["tree"])
        depth = len(n)
        if not isinstance(header["block_sizes"], list):
            raise TypeError(f"block_sizes must be a list, got {header['block_sizes']!r}")
        d = _block_size_list(header["block_sizes"], depth)
        heads, batch, r = (_positive(header[k], k) for k in ("heads", "batch", "right_parts"))
        shapes = (
            [(heads, n[l], d[l], d[l]) for l in range(depth)]
            + [(heads, n[l], d[l], d[l + 1]) for l in range(depth - 1)]
            + [(heads, n[l], d[l + 1], d[l]) for l in range(depth - 1)]
            + [(batch, heads, n[l], d[l], r) for l in range(depth)]
        )
        total = sum(math.prod(s) for s in shapes)
        if len(payload) % 8:  # not a whole number of float64s
            raise ValueError(f"payload holds {len(payload)} bytes, expected {8 * total}")
        data = np.frombuffer(payload, dtype=_DTYPE)
        if data.size != total:
            raise ValueError(f"payload holds {data.size} floats, expected {total}")
        tree = _tree_from_header(header["tree"])
    except KeyError as e:
        raise ValueError(f"malformed problem header: missing key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed problem header: {e}") from None
    arrays, at = [], 0
    for s in shapes:
        arrays.append(data[at : at + math.prod(s)].reshape(s))
        at += math.prod(s)
    params = LevelParams(
        tuple(arrays[:depth]),
        tuple(arrays[depth : 2 * depth - 1]),
        tuple(arrays[2 * depth - 1 : 3 * depth - 2]),
    )
    u = TreeVector(tuple(arrays[3 * depth - 2 :]))
    return tree, params, u
