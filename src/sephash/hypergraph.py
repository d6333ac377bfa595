"""Partite hypergraph view of a matrix and rainbow-cycle machinery.

An N x n matrix over q symbols is the representation matrix of an N-uniform
N-partite hypergraph: part i holds the vertices (i, 0..q-1) and column j
becomes the edge {(i, M[i][j]) : i}.  A rainbow k-cycle is an alternating
closed sequence v1,E1,v2,E2,...,vk,Ek with distinct edges and its k vertices
in k distinct parts; consecutive edges share the vertex between them.

Finding a rainbow cycle of even length 2w that touches every part certifies
that no row separates the odd-position edges from the even-position ones,
which converts directly into a separation violation witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matrix import Matrix, _certify
from .verification import ViolationWitness, _first_nonlinear_pair, row_separates


@dataclass(frozen=True)
class PartiteHypergraph:
    """r-uniform r-partite hypergraph with parts of equal size q.

    Edge j is stored as a tuple of symbols, one per part: vertex (i, s)
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
    return _first_nonlinear_pair(h.edges) is None


def _shared_parts(h: PartiteHypergraph, a: int, b: int) -> tuple[int, ...]:
    ea, eb = h.edges[a], h.edges[b]
    return tuple(i for i in range(h.parts) if ea[i] == eb[i])


def _assign_cycle_parts(domains: list[tuple[int, ...]]) -> list[int] | None:
    """Pick one part per position, all distinct; first solution in part order."""
    chosen: list[int] = []
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == len(domains):
            return True
        for p in domains[i]:
            if p not in used:
                used.add(p)
                chosen.append(p)
                if rec(i + 1):
                    return True
                chosen.pop()
                used.remove(p)
        return False

    return chosen if rec(0) else None


def find_rainbow_cycle(h: PartiteHypergraph, k: int) -> RainbowCycle | None:
    """Search for a rainbow cycle of length exactly k.

    Deterministic: returns the cycle whose edge-index sequence is
    lexicographically least, normalized to start at its smallest edge index.
    Callers wanting any length iterate k = 3..r ascending.
    """
    if not 3 <= k <= h.parts:
        raise ValueError(f"cycle length must lie in [3, {h.parts}]")
    m = len(h.edges)
    if m < k:
        return None
    shared_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def shared(a: int, b: int) -> tuple[int, ...]:
        key = (a, b) if a < b else (b, a)
        got = shared_cache.get(key)
        if got is None:
            got = _shared_parts(h, key[0], key[1])
            shared_cache[key] = got
        return got

    def close_cycle(seq: list[int]) -> RainbowCycle | None:
        # Domains of the k shared vertices; position 0 closes the cycle.
        domains = [shared(seq[-1], seq[0])]
        domains += [shared(seq[i - 1], seq[i]) for i in range(1, k)]
        if any(not d for d in domains):
            return None
        parts = _assign_cycle_parts(domains)
        if parts is None:
            return None
        vertices = []
        for i, p in enumerate(parts):
            vertices.append((p, h.edges[seq[i]][p]))
        return RainbowCycle(tuple(vertices), tuple(seq))

    def extend(seq: list[int], used: set[int]) -> RainbowCycle | None:
        if len(seq) == k:
            return close_cycle(seq)
        for e in range(seq[0] + 1, m):
            if e in used:
                continue
            if not shared(seq[-1], e):
                continue
            seq.append(e)
            used.add(e)
            found = extend(seq, used)
            if found is not None:
                return found
            used.remove(e)
            seq.pop()
        return None

    for first in range(m):
        found = extend([first], {first})
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
