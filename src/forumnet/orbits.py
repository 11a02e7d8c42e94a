"""Graphlet orbit census for undirected graphlets of sizes 2 to 4.

The 15 orbits follow the standard numbering for graphlets G0-G8:

    orbit 0   edge endpoint (= degree)
    orbit 1   path P3, end            orbit 2   path P3, middle
    orbit 3   triangle
    orbit 4   path P4, end            orbit 5   path P4, middle
    orbit 6   3-star leaf             orbit 7   3-star center
    orbit 8   4-cycle
    orbit 9   paw pendant             orbit 10  paw triangle (degree 2)
    orbit 11  paw hub (degree 3)
    orbit 12  diamond degree-2        orbit 13  diamond degree-3
    orbit 14  K4

``count_orbits`` solves the orbit equations of ORCA (Hočevar & Demšar,
*Bioinformatics* 2014) on one int64 CSR adjacency ``A``: degrees come from
``A.indptr``, common neighbours are ``A @ A`` minus the degree diagonal, and
K4s through a node are the triangles of its neighbourhood block, whose rows
are slices of ``A.indices``.  Every count is an exact integer.
``count_orbits_bruteforce`` enumerates every induced connected subgraph and
is the ground truth the fast path is tested against.
"""

from __future__ import annotations

import functools
import io
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graphs import Graph, GraphError, PAIR_ORDER, adjacency_mask

ALL_ORBITS = tuple(range(15))

# Orbits contributed by graphlets of each size.
ORBITS_BY_SIZE = {2: (0,), 3: (0, 1, 2, 3), 4: ALL_ORBITS}

# Reference graphlets: (size, edges, orbit id of each reference node).
_REFERENCE_GRAPHLETS = [
    (2, [(0, 1)], (0, 0)),                                          # G0 edge
    (3, [(0, 1), (1, 2)], (1, 2, 1)),                               # G1 path
    (3, [(0, 1), (1, 2), (0, 2)], (3, 3, 3)),                       # G2 triangle
    (4, [(0, 1), (1, 2), (2, 3)], (4, 5, 5, 4)),                    # G3 path
    (4, [(0, 1), (0, 2), (0, 3)], (7, 6, 6, 6)),                    # G4 star
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], (8, 8, 8, 8)),            # G5 cycle
    (4, [(0, 1), (0, 2), (1, 2), (0, 3)], (11, 10, 10, 9)),         # G6 paw
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], (13, 13, 12, 12)),  # G7 diamond
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (14,) * 4),  # G8 K4
]


@dataclass(frozen=True)
class OrbitMatrix:
    """Per-node orbit participation counts."""

    node_count: int
    orbit_ids: tuple[int, ...]
    counts: np.ndarray  # shape (node_count, len(orbit_ids)), dtype int64

    def column(self, orbit_id: int) -> np.ndarray:
        try:
            j = self.orbit_ids.index(orbit_id)
        except ValueError:
            raise KeyError(f"orbit {orbit_id} not present in matrix") from None
        return self.counts[:, j]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("node," + ",".join(f"o{i}" for i in self.orbit_ids) + "\n")
        for v in range(self.node_count):
            buf.write(str(v) + "," + ",".join(str(c) for c in self.counts[v]) + "\n")
        return buf.getvalue()


def orbit_matrix_from_csv(text: str) -> OrbitMatrix:
    """Parse ``OrbitMatrix.to_csv`` output; errors name the line."""
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows:
        raise GraphError("empty orbit CSV")
    (n, head), *body = rows
    header = head.split(",")
    # distinct known orbits, each as "o<id>"
    orbit_ids = tuple(int(h[1:]) if h[:1] == "o" and h[1:].isdecimal() else -1
                      for h in header[1:])
    if (header[0] != "node" or len(set(orbit_ids)) < len(orbit_ids)
            or not set(orbit_ids) <= set(ALL_ORBITS)):
        raise GraphError(f"line {n}: bad orbit CSV header {head!r}")
    counts = np.zeros((len(body), len(orbit_ids)), dtype=np.int64)
    for i, (n, line) in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(header) or cells[0] != str(i):
            raise GraphError(f"line {n}: bad orbit CSV row {line!r}")
        try:
            counts[i] = [int(c) for c in cells[1:]]
        except (ValueError, OverflowError) as exc:  # not an int64
            raise GraphError(f"line {n}: {exc}") from None
    return OrbitMatrix(len(body), orbit_ids, counts)


def _check_max_size(max_size):
    if max_size not in (2, 3, 4):
        raise GraphError(f"max_size must be 2, 3 or 4, got {max_size}")


def _comb2(x):
    return x * (x - 1) // 2


def _comb3(x):
    return x * (x - 1) * (x - 2) // 6


def count_orbits(g: Graph, max_size: int = 4) -> OrbitMatrix:
    """Count, for every node, induced graphlet orbits up to ``max_size`` nodes.

    Uses common-neighbor counting plus combinatorial correction equations;
    every count equals exhaustive enumeration exactly (see
    :func:`count_orbits_bruteforce`).
    """
    _check_max_size(max_size)
    orbit_ids = ORBITS_BY_SIZE[max_size]
    n = g.node_count
    out = np.zeros((n, len(orbit_ids)), dtype=np.int64)
    if n == 0 or g.edge_count == 0:
        return OrbitMatrix(n, orbit_ids, out)

    u, v = np.array(list(g.edges), dtype=np.int64).T
    A = sparse.csr_matrix((np.ones(2 * len(u), dtype=np.int64),
                           (np.r_[u, v], np.r_[v, u])), shape=(n, n))
    d = np.diff(A.indptr).astype(np.int64)
    out[:, 0] = d
    if max_size == 2:
        return OrbitMatrix(n, orbit_ids, out)

    CN = A @ A - sparse.diags(d, dtype=np.int64)  # the zeroed diagonal is dropped
    E = CN.multiply(A).tocsr()  # common neighbors per adjacent pair
    t = np.asarray(E.sum(axis=1)).ravel() // 2

    o1 = A @ (d - 1) - 2 * t
    o2 = _comb2(d) - t
    o3 = t
    out[:, 1], out[:, 2], out[:, 3] = o1, o2, o3
    if max_size == 3:
        return OrbitMatrix(n, orbit_ids, out)

    # K4 count per node: triangles inside the induced neighborhood.  The 0/1
    # float32 block keeps the product in BLAS and is exact while degrees stay
    # below 2^24; the sum is taken in int64.
    Ad = A.astype(np.float32).toarray()
    o14 = np.zeros(n, dtype=np.int64)
    for x in np.flatnonzero(d >= 3):
        nbrs = A.indices[A.indptr[x]:A.indptr[x + 1]]
        B = Ad[np.ix_(nbrs, nbrs)]
        o14[x] = ((B @ B) * B).sum(dtype=np.int64) // 6

    Ec2 = E.copy()
    Ec2.data = _comb2(Ec2.data)
    o13 = np.asarray(Ec2.sum(axis=1)).ravel() - 3 * o14

    W = (E - A).tocsr()  # cn - 1 on every edge
    WA = W @ A
    o12 = np.asarray(A.multiply(WA.T).sum(axis=1)).ravel() // 2 - 3 * o14

    o11 = t * (d - 2) - 2 * o13 - 3 * o14
    o10 = E @ (d - 2) - 2 * o12 - 2 * o13 - 6 * o14
    o9 = A @ t - 2 * t - 2 * o12 - 3 * o14

    Pn = (CN - E).tocsr()  # common neighbors of non-adjacent pairs
    Pn.data = _comb2(Pn.data)
    o8 = np.asarray(Pn.sum(axis=1)).ravel() - o12

    o7 = _comb3(d) - o11 - o13 - o14
    o6 = A @ _comb2(d - 1) - o9 - o10 - 2 * o12 - o13 - 3 * o14
    o5 = (d - 1) * (A @ (d - 1)) - 2 * t \
        - 2 * o8 - o10 - 2 * o11 - 2 * o12 - 4 * o13 - 6 * o14
    s = A @ (d - 1)
    o4 = A @ s - d * (d - 1) - 2 * t \
        - 2 * o8 - 2 * o9 - o10 - 4 * o12 - 2 * o13 - 6 * o14

    for j, vec in zip(range(4, 15), (o4, o5, o6, o7, o8, o9, o10, o11, o12, o13, o14)):
        out[:, j] = vec
    return OrbitMatrix(n, orbit_ids, out)


@functools.cache
def orbit_tables():
    """Per-size lookup: adjacency bitmask -> orbit id of each position.

    Built once by matching every labeled graph on k nodes against the
    reference graphlets over all k! label permutations.  A disconnected
    mask matches none of them and maps to None.
    """
    tables = {}
    for k in (2, 3, 4):
        pairs = [p for p in PAIR_ORDER if p[1] < k]
        ref_masks = {adjacency_mask(k, e): orbs
                     for size, e, orbs in _REFERENCE_GRAPHLETS if size == k}
        table = [None] * (1 << len(pairs))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            for perm in itertools.permutations(range(k)):
                m2 = adjacency_mask(k, ((perm[u], perm[v]) for u, v in edges))
                if m2 in ref_masks:
                    orbs = ref_masks[m2]
                    table[mask] = tuple(orbs[perm[i]] for i in range(k))
                    break
        tables[k] = table
    return tables


def count_orbits_bruteforce(g: Graph, max_size: int = 4) -> OrbitMatrix:
    """Exhaustive orbit census via enumeration of all k-subsets, k <= max_size.

    Intended for graphs up to a few hundred nodes; identical contract to
    :func:`count_orbits`.
    """
    _check_max_size(max_size)
    orbit_ids = ORBITS_BY_SIZE[max_size]
    n = g.node_count
    out = np.zeros((n, len(orbit_ids)), dtype=np.int64)
    if n == 0:
        return OrbitMatrix(n, orbit_ids, out)
    Ad = np.zeros((n, n), dtype=bool)
    for u, v in g.edges:
        Ad[u, v] = Ad[v, u] = True
    tables = orbit_tables()
    flat = out.ravel()
    width = len(orbit_ids)
    for k in range(2, max_size + 1):
        if n < k:
            break
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)),
            dtype=np.int64,
        ).reshape(-1, k)
        pairs = [p for p in PAIR_ORDER if p[1] < k]
        mask = np.zeros(len(combos), dtype=np.int64)
        for bit, (a, b) in enumerate(pairs):
            mask |= Ad[combos[:, a], combos[:, b]].astype(np.int64) << bit
        table = tables[k]
        orb = np.full((1 << len(pairs), k), -1, dtype=np.int64)
        for m, orbs in enumerate(table):
            if orbs is not None:
                orb[m] = orbs
        assigned = orb[mask]  # (n_combos, k)
        valid = assigned[:, 0] >= 0
        if not valid.any():
            continue
        sel = combos[valid]
        asg = assigned[valid]
        for pos in range(k):
            # orbit id equals column index for every supported max_size
            np.add.at(flat, sel[:, pos] * width + asg[:, pos], 1)
    return OrbitMatrix(n, orbit_ids, out)
