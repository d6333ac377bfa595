"""Partite hypergraph view of a matrix and rainbow-cycle machinery.

An N x n matrix over q symbols is the representation matrix of an N-uniform
N-partite hypergraph: part i holds the vertices (i, 0..q-1) and column j
becomes the edge {(i, M[i][j]) : i}.  A rainbow k-cycle is an alternating
closed sequence v1,E1,v2,E2,...,vk,Ek with distinct edges and its k vertices
in k distinct parts; consecutive edges share the vertex between them.

Finding a rainbow cycle of even length 2w that touches every part certifies
that no row separates the odd-position edges from the even-position ones,
which converts directly into a separation violation witness.

find_rainbow_cycle is one depth-first walk over the edges as matrix
columns, on sephash.verification's agreement kernel (_Agreement): two edges
share a vertex in exactly the parts where their columns agree, so a pair's
shared parts are its agreeing rows, and the edges meeting an edge are one
mask, built when the walk first reaches the edge.
Each path keeps the least part sequence for every set of parts its shared
vertices can use.  The walk is one loop over a stack of frames, one per
path edge.  No vertex-bit layout is built here: that one lives in
sephash.search, whose exact searches read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matrix import Matrix, _certify, _integer
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
    iterate k = 3..r ascending.

    The walk runs on _Agreement with the edges as columns: edges a and e
    share a vertex in the parts rows_agreeing(a, e) lists, ascending, and
    the edges meeting e are meeting(e), built when the walk first reaches
    e.  Memory never grows with part_size.
    """
    k = _integer(k, "cycle length")
    if not 3 <= k <= h.parts:
        raise ValueError(f"cycle length must lie in [3, {h.parts}]")
    agreement = _Agreement(hypergraph_to_matrix(h))
    rows_agreeing, meeting = agreement.rows_agreeing, agreement.meeting
    for first in range(len(h.edges) - k + 1):
        # Each frame: a path, its used edges (and those below first),
        # options (used-parts mask -> least part sequence of the path's
        # shared vertices) and the untried edges meeting its last edge.
        used = (2 << first) - 1
        stack = [((first,), used, {0: ()}, _bits(meeting(first) & ~used))]
        while stack:
            seq, used, options, nxt = stack[-1]
            for e in nxt:
                grown: dict[int, tuple[int, ...]] = {}
                for p in rows_agreeing(seq[-1], e):
                    for mask, parts in options.items():
                        if not mask >> p & 1:
                            key, ext = mask | 1 << p, parts + (p,)
                            if key not in grown or ext < grown[key]:
                                grown[key] = ext
                if not grown:
                    continue
                path = seq + (e,)
                if len(path) < k:
                    grew = used | 1 << e
                    stack.append((path, grew, grown, _bits(meeting(e) & ~grew)))
                    break
                # e closes the cycle through a vertex it shares with first.
                for p in rows_agreeing(first, e):
                    free = [parts for mask, parts in grown.items() if not mask >> p & 1]
                    if free:
                        parts = (p,) + min(free)
                        vertices = tuple((p, h.edges[x][p]) for p, x in zip(parts, path))
                        return RainbowCycle(vertices, path)
            else:
                stack.pop()
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
