"""Simple undirected graphs and the edge-list text format.

Node identities are dense integer indices throughout; string IDs from raw
data are mapped to indices at ingestion time and never reach graph math.
Projected user networks are built as arrays (see ``projection``) and only
the sparsified result becomes a ``Graph``.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphError(ValueError):
    """Invalid graph construction input."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges."""

    node_count: int
    edges: frozenset[tuple[int, int]]  # each pair stored as (min, max)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.node_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _check_pair(u: int, v: int, node_count: int) -> tuple[int, int]:
    if not (0 <= u < node_count) or not (0 <= v < node_count):
        raise GraphError(f"edge endpoint out of range: ({u}, {v}) with {node_count} nodes")
    if u == v:
        raise GraphError(f"self-loop not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def build_graph(node_count, edge_list) -> Graph:
    """Build a simple graph, rejecting self-loops and duplicate edges."""
    if node_count < 0:
        raise GraphError("node_count must be non-negative")
    edges: set[tuple[int, int]] = set()
    for u, v in edge_list:
        pair = _check_pair(u, v, node_count)
        if pair in edges:
            raise GraphError(f"duplicate edge: ({u}, {v})")
        edges.add(pair)
    return Graph(node_count, frozenset(edges))


# Pair bit order for <=4 node adjacency bitmasks, shared with the orbit census.
PAIR_ORDER = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def adjacency_mask(node_count: int, edges) -> int:
    """Pack the adjacency of a graph on <=4 nodes into a bitmask."""
    bit = {p: i for i, p in enumerate(PAIR_ORDER)}
    mask = 0
    for u, v in edges:
        mask |= 1 << bit[(u, v) if u < v else (v, u)]
    return mask


def read_edge_list(lines):
    """Parse the `u v [w]` edge-list text format (0-based, `#` comments).

    Returns (node_count, edges) where edges are (u, v) pairs or (u, v, w)
    triples when any line carries a weight.
    """
    edges = []
    weighted = False
    max_node = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        u, v = (int(x) if x.isdecimal() else -1 for x in parts[:2])
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: node ids must be non-negative "
                             f"integers, got {raw!r}")
        max_node = max(max_node, u, v)
        if len(parts) == 3:
            weighted = True
            try:
                edges.append((u, v, float(parts[2])))
            except ValueError:
                raise GraphError(f"line {lineno}: weight must be a number, "
                                 f"got {parts[2]!r}") from None
        else:
            edges.append((u, v))
    if weighted:
        edges = [e if len(e) == 3 else (e[0], e[1], 1.0) for e in edges]
    return max_node + 1, edges


def write_edge_list(g: Graph) -> str:
    """Serialize a Graph to the edge-list text format."""
    lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
