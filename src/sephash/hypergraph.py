"""Partite hypergraph view of a matrix and rainbow-cycle machinery.

An N x n matrix over q symbols is the representation matrix of an N-uniform
N-partite hypergraph: part i holds the vertices (i, 0..q-1) and column j
becomes the edge {(i, M[i][j]) : i}.  A rainbow k-cycle is an alternating
closed sequence v1,E1,v2,E2,...,vk,Ek with distinct edges and its k vertices
in k distinct parts; consecutive edges share the vertex between them.

Finding a rainbow cycle of even length 2w that touches every part certifies
that no row separates the odd-position edges from the even-position ones,
which converts directly into a separation violation witness.

find_rainbow_cycle is one depth-first walk over bitmasks: vertex (i, s) is
bit i*width + (rank of s among part i's symbols) of an edge's vertex mask,
and a vertex's incidence mask holds the edges through it.  Each path keeps
the least part sequence for every set of parts its shared vertices can use.

The vertex-bit layout is built only here (_cube serves sephash.search), and
edge agreement only by sephash.verification's scan (is_linear_hypergraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from operator import or_

from .matrix import Matrix, _certify
from .verification import ViolationWitness, _Agreement, row_separates


@dataclass(frozen=True)
class PartiteHypergraph:
    """r-uniform r-partite hypergraph with parts of equal size q.

    Edge j is stored as a tuple of int symbols, one per part: vertex (i, s)
    belongs to edge j iff edges[j][i] == s.  Duplicate edges are allowed
    (they arise from duplicate matrix columns) and simply make the
    hypergraph non-linear.
    """

    parts: int
    part_size: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.parts < 1 or self.part_size < 1:
            raise ValueError("need at least one part and one vertex per part")
        for e in self.edges:
            if len(e) != self.parts:
                raise ValueError("every edge must meet each part exactly once")
            if any(type(s) is not int for s in e):
                raise ValueError(f"edge {e!r} has a symbol that is not an int")
            if any(not 0 <= s < self.part_size for s in e):
                raise ValueError("edge vertex outside part range")


@dataclass(frozen=True)
class RainbowCycle:
    """Certificate cycle: vertices[i] is shared by edges[i-1] and edges[i].

    vertices are (part, symbol) pairs; edges are edge indices.  The closing
    convention is cyclic: vertices[0] lies on edges[-1] and edges[0].
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.edges)

    def as_json_dict(self) -> dict:
        return {
            "k": self.k,
            "vertices": [list(v) for v in self.vertices],
            "edges": list(self.edges),
        }


@dataclass(frozen=True)
class ShadowGraph:
    """Union of the complete graphs spanned by each hyperedge.

    edge_sources maps each unordered vertex pair to the indices of the
    hyperedges inducing it; multiplicity 1 everywhere iff the hypergraph is
    linear, in which case the |H| cliques are pairwise edge-disjoint.
    """

    vertices: tuple[tuple[int, int], ...]
    edge_sources: dict

    @property
    def graph_edge_count(self) -> int:
        return len(self.edge_sources)

    def disjoint_clique_count(self) -> int:
        """Hyperedges whose induced clique shares no graph edge with another."""
        crowded = set()
        for sources in self.edge_sources.values():
            if len(sources) > 1:
                crowded.update(sources)
        total = set()
        for sources in self.edge_sources.values():
            total.update(sources)
        return len(total - crowded)


def matrix_to_hypergraph(m: Matrix) -> PartiteHypergraph:
    """Columns become edges; row i contributes the vertex (i, M[i][j])."""
    return PartiteHypergraph(m.rows, m.q, tuple(m.columns()))


def hypergraph_to_matrix(h: PartiteHypergraph) -> Matrix:
    """Inverse of matrix_to_hypergraph: edge j becomes column j."""
    return Matrix(tuple(tuple(e[i] for e in h.edges) for i in range(h.parts)), h.part_size)


def is_linear_hypergraph(h: PartiteHypergraph) -> bool:
    """True iff all distinct edge pairs meet in at most one vertex."""
    return _Agreement(hypergraph_to_matrix(h)).first_pair_over(1) is None


def _vertex_masks(edges, q: int) -> list[int]:
    """One mask per edge: vertex (part, symbol) is bit part*q + symbol."""
    return [sum(1 << (i * q + s) for i, s in enumerate(e)) for e in edges]


def _incidence(masks, size: int) -> list[int]:
    """incidence[v]: bit j set iff masks[j] holds bit v, for v < size."""
    incidence = [0] * size
    for j, mask in enumerate(masks):
        for v in _bits(mask):
            incidence[v] |= 1 << j
    return incidence


def _cube(parts: int, q: int):
    """Every point of range(q)**parts, in lexicographic order, with its masks.

    The exact searches take these points as candidate columns or edges.
    Returns (points, masks, agree, incidence): masks[j] is point j's vertex
    mask (_vertex_masks), incidence[v] the points through vertex v
    (_incidence), and agree[j][p] = incidence[p*q + points[j][p]], the
    points that share point j's symbol in part p.
    """
    points = list(product(range(q), repeat=parts))
    masks = _vertex_masks(points, q)
    incidence = _incidence(masks, parts * q)
    agree = [tuple(incidence[p * q + s] for p, s in enumerate(x)) for x in points]
    return points, masks, agree, incidence


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def find_rainbow_cycle(h: PartiteHypergraph, k: int) -> RainbowCycle | None:
    """Search for a rainbow cycle of length exactly k.

    Deterministic: returns the cycle whose edge-index sequence is
    lexicographically least (so it starts at its smallest edge index) and,
    for that sequence, the lexicographically least tuple of vertex parts
    (p0, ..., p(k-1)) in RainbowCycle.vertices order, the closing vertex
    (shared by the last and first edges) first.  Callers wanting any length
    iterate k = 3..r ascending.  Memory grows with the edge count, not with
    part_size: the masks use per-part symbol ranks, which keep the order.
    """
    if not 3 <= k <= h.parts:
        raise ValueError(f"cycle length must lie in [3, {h.parts}]")
    m = len(h.edges)
    ranks = [{s: r for r, s in enumerate(sorted(set(col)))} for col in zip(*h.edges)]
    width = max(map(len, ranks), default=1)
    masks = _vertex_masks([[rk[s] for rk, s in zip(ranks, e)] for e in h.edges], width)
    incidence = _incidence(masks, h.parts * width)
    # reach[j]: the edges meeting edge j, itself included.
    reach = [reduce(or_, map(incidence.__getitem__, _bits(mask)), 0) for mask in masks]

    def walk(seq: tuple[int, ...], used: int, options: dict) -> RainbowCycle | None:
        # options: used-parts mask -> least part sequence of seq's shared vertices.
        last = seq[-1]
        if len(seq) == k:
            for v in _bits(masks[last] & masks[seq[0]]):
                p = v // width
                free = [parts for mask, parts in options.items() if not mask >> p & 1]
                if free:
                    parts = (p,) + min(free)
                    vertices = tuple((p, h.edges[e][p]) for p, e in zip(parts, seq))
                    return RainbowCycle(vertices, seq)
            return None
        for e in _bits(reach[last] & ~used):
            grown: dict[int, tuple[int, ...]] = {}
            for v in _bits(masks[last] & masks[e]):
                p = v // width
                for mask, parts in options.items():
                    if not mask >> p & 1:
                        key, ext = mask | 1 << p, parts + (p,)
                        if key not in grown or ext < grown[key]:
                            grown[key] = ext
            if grown:
                found = walk(seq + (e,), used | 1 << e, grown)
                if found is not None:
                    return found
        return None

    for first in range(m - k + 1):
        # Edges up to first are used: later edges all have larger indices.
        found = walk((first,), (2 << first) - 1, {0: ()})
        if found is not None:
            return found
    return None


def shadow_graph(h: PartiteHypergraph) -> ShadowGraph:
    """Replace every hyperedge by the complete graph on its vertices."""
    vertices: set[tuple[int, int]] = set()
    sources: dict[frozenset, list[int]] = {}
    for idx, e in enumerate(h.edges):
        verts = [(i, e[i]) for i in range(h.parts)]
        vertices.update(verts)
        for va, vb in combinations(verts, 2):
            sources.setdefault(frozenset((va, vb)), []).append(idx)
    return ShadowGraph(
        tuple(sorted(vertices)),
        {pair: tuple(idxs) for pair, idxs in sources.items()},
    )


def cycle_to_violation(h: PartiteHypergraph, cycle: RainbowCycle) -> ViolationWitness:
    """Turn an even rainbow cycle spanning every part into a witness.

    With k = 2w = r, every row holds exactly one cycle vertex, and there the
    two adjacent edges (one odd-position, one even-position) collide, so no
    row separates the odd edges from the even edges.  The conclusion needs
    the cycle to touch all parts; shorter cycles leave rows free to
    separate, so they are rejected.
    """
    k = cycle.k
    if k % 2 != 0:
        raise ValueError("only even-length cycles yield a two-part violation")
    if k != h.parts:
        raise ValueError(
            "cycle must span every part: rows without a cycle vertex could separate"
        )
    odd = tuple(sorted(cycle.edges[0::2]))
    even = tuple(sorted(cycle.edges[1::2]))
    parts = tuple(sorted((odd, even), key=min))
    m = hypergraph_to_matrix(h)
    for f in range(m.rows):
        # A failure here would falsify the odd/even collision argument.
        _certify(not row_separates(m, f, parts), f"cycle blocks row {f}")
    return ViolationWitness(parts)
