"""Tests for the matrix<->hypergraph view and rainbow-cycle machinery."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sephash.hypergraph import (
    PartiteHypergraph,
    _cycles,
    RainbowCycle,
    cycle_to_violation,
    find_rainbow_cycle,
    hypergraph_to_matrix,
    is_linear_hypergraph,
    matrix_to_hypergraph,
    shadow_graph,
)
from sephash.matrix import Matrix
from sephash.search import cyclic_overlap_matrix, rainbow_free_extremal_search, reed_solomon_frameproof
from sephash.verification import find_violation, is_linear_shf, row_separates

from helpers import random_linear_extension, random_matrix, reference_find_rainbow_cycle


@pytest.fixture
def chain4():
    return cyclic_overlap_matrix(4, 3)


class TestCorrespondence:
    def test_single_cell(self):
        h = matrix_to_hypergraph(Matrix(((0,),), 1))
        assert (h.parts, h.part_size) == (1, 1)
        assert h.edges == ((0,),)

    def test_identity_two_by_two(self):
        h = matrix_to_hypergraph(Matrix(((1, 0), (0, 1)), 2))
        assert h.edges == ((1, 0), (0, 1))

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(0, 5), rng.randint(1, 3))
            assert hypergraph_to_matrix(matrix_to_hypergraph(m)) == m

    def test_chain_pattern_shape(self, chain4):
        h = matrix_to_hypergraph(chain4)
        assert h.parts == 4 and len(h.edges) == 4
        assert is_linear_hypergraph(h)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            PartiteHypergraph(2, 2, ((0,),))
        with pytest.raises(ValueError):
            PartiteHypergraph(2, 2, ((0, 5),))


class TestLinearity:
    def test_duplicate_columns_not_linear(self):
        m = Matrix(((0, 0), (1, 1)), 2)
        assert not is_linear_hypergraph(matrix_to_hypergraph(m))

    def test_identity_linear(self):
        m = Matrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2)
        assert is_linear_hypergraph(matrix_to_hypergraph(m))

    def test_matches_matrix_linearity(self):
        rng = random.Random(4)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(2, 4), rng.randint(2, 6), rng.randint(2, 3))
            assert is_linear_hypergraph(matrix_to_hypergraph(m)) == is_linear_shf(m)


class TestFindRainbowCycle:
    def test_chain_pattern_cycle(self, chain4):
        h = matrix_to_hypergraph(chain4)
        c = find_rainbow_cycle(h, 4)
        assert c == RainbowCycle(((3, 0), (0, 0), (1, 0), (2, 0)), (0, 1, 2, 3))

    def test_disjoint_edges_no_cycle(self):
        # Constant columns: q pairwise disjoint edges.
        q = 4
        m = Matrix(tuple(tuple(range(q)) for _ in range(4)), q)
        h = matrix_to_hypergraph(m)
        for k in range(3, 5):
            assert find_rainbow_cycle(h, k) is None

    def test_chain_six_cycle(self):
        h = matrix_to_hypergraph(cyclic_overlap_matrix(6, 5))
        c = find_rainbow_cycle(h, 6)
        assert c is not None
        assert c.edges == (0, 1, 2, 3, 4, 5)

    def test_length_out_of_range(self):
        h = matrix_to_hypergraph(cyclic_overlap_matrix(4, 3))
        with pytest.raises(ValueError):
            find_rainbow_cycle(h, 2)
        with pytest.raises(ValueError):
            find_rainbow_cycle(h, 5)

    def test_returned_cycles_satisfy_definition(self):
        rng = random.Random(6)
        hits = 0
        for _ in range(40):
            base = cyclic_overlap_matrix(4, 7)
            m = random_linear_extension(rng, base, extra=4)
            h = matrix_to_hypergraph(m)
            c = find_rainbow_cycle(h, 4)
            assert c is not None
            hits += 1
            # (a)+(d): distinct vertices in distinct parts.
            parts = [v[0] for v in c.vertices]
            assert len(set(parts)) == len(parts) == 4
            assert len(set(c.vertices)) == 4
            # (b): distinct edges.
            assert len(set(c.edges)) == 4
            # (c): consecutive membership, cyclically.
            for i, (p, s) in enumerate(c.vertices):
                assert h.edges[c.edges[i]][p] == s
                assert h.edges[c.edges[i - 1]][p] == s
        assert hits == 40

    def test_no_short_cycle_in_chain(self, chain4):
        h = matrix_to_hypergraph(chain4)
        assert find_rainbow_cycle(h, 3) is None

    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_fewer_edges_than_length(self, chain4, count):
        # All four edges of chain4 carry a rainbow 4-cycle; fewer cannot.
        h = matrix_to_hypergraph(chain4)
        short = PartiteHypergraph(h.parts, h.part_size, h.edges[:count])
        assert find_rainbow_cycle(short, 4) is None


def test_large_alphabet_keeps_masks_small():
    # Part size 2**40 with symbols spread over it: masks indexed by raw
    # symbol would need terabytes.  The child caps its address space, so a
    # search that sizes its masks by the alphabet fails fast with MemoryError.
    small = ((0, 1, 0), (0, 0, 1), (1, 0, 0), (2, 2, 2))
    big = tuple(tuple(s * 2**38 + 7 for s in e) for e in small)
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import json\n"
        "from sephash.hypergraph import PartiteHypergraph, find_rainbow_cycle\n"
        f"h = PartiteHypergraph(3, 2**40, {big!r})\n"
        "print(json.dumps(find_rainbow_cycle(h, 3).as_json_dict()))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    cycle = find_rainbow_cycle(PartiteHypergraph(3, 3, small), 3)
    expected = {
        "k": 3,
        "vertices": [[p, s * 2**38 + 7] for p, s in cycle.vertices],
        "edges": list(cycle.edges),
    }
    assert json.loads(proc.stdout) == expected


def test_cycle_among_the_first_edges_builds_little():
    # The first three edges close a triangle, and 5,000 random edges over a
    # million symbols follow.  Under CPython 3.11 the search peaks at
    # 2.3 MiB: the walk builds agreement data only for the edges it reaches.
    # Masks built for every edge before the walk took it to 16 MiB.
    rng = random.Random(5)
    triangle = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    rest = tuple(tuple(rng.randrange(2, 10**6) for _ in range(3)) for _ in range(5000))
    h = PartiteHypergraph(3, 10**6, triangle + rest)
    tracemalloc.start()
    try:
        cycle = find_rainbow_cycle(h, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cycle == RainbowCycle(((1, 0), (0, 0), (2, 0)), (0, 1, 2))
    assert peak < 6 * 2**20


def test_wide_walk_keeps_no_row_per_reached_edge():
    # 2,000 random edges in 8 parts over 5,000 symbols: the walk reaches
    # many edges before its first triangle.  Under CPython 3.11 it peaks at
    # 2.3 MiB.  An n-entry agreement row kept for each reached edge took it
    # to 5.9 MiB, and masks built for every edge up front to 6.8 MiB.
    rng = random.Random(2)
    h = PartiteHypergraph(8, 5000, tuple(tuple(rng.randrange(5000) for _ in range(8)) for _ in range(2000)))
    tracemalloc.start()
    try:
        cycle = find_rainbow_cycle(h, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cycle == RainbowCycle(((1, 3620), (0, 4076), (7, 10)), (61, 222, 1785))
    assert peak < 4 * 2**20


# Tie-breaks recorded from the earlier implementation (now
# reference_find_rainbow_cycle): the closing vertex's part ranks first.
PINNED_CYCLES = [
    (
        PartiteHypergraph(4, 3, ((1, 0, 2, 0), (1, 2, 1, 1), (2, 0, 2, 1), (1, 0, 2, 1))),
        4,
        RainbowCycle(((1, 0), (0, 1), (3, 1), (2, 2)), (0, 1, 2, 3)),
    ),
    (
        PartiteHypergraph(
            6,
            3,
            (
                (1, 2, 2, 0, 0, 2),
                (1, 2, 2, 0, 0, 1),
                (1, 0, 0, 2, 2, 2),
                (0, 2, 1, 1, 2, 2),
                (2, 2, 0, 2, 0, 2),
                (0, 0, 0, 0, 0, 2),
                (0, 1, 1, 1, 2, 0),
            ),
        ),
        5,
        RainbowCycle(((1, 2), (2, 2), (0, 1), (4, 2), (5, 2)), (0, 1, 2, 3, 4)),
    ),
]


@pytest.mark.parametrize("h, k, expected", PINNED_CYCLES, ids=["4-parts", "6-parts"])
def test_pinned_tie_break(h, k, expected):
    assert reference_find_rainbow_cycle(h, k) == expected
    assert find_rainbow_cycle(h, k) == expected


@st.composite
def partite_hypergraphs(draw):
    """Random hypergraphs, half of them linear (edges kept greedily)."""
    parts = draw(st.integers(3, 6))
    q = draw(st.integers(1, 4))
    edge = st.tuples(*[st.integers(0, q - 1)] * parts)
    edges = draw(st.lists(edge, max_size=10))
    if draw(st.booleans()):
        kept = []
        for e in edges:
            if all(sum(a == b for a, b in zip(e, f)) <= 1 for f in kept):
                kept.append(e)
        edges = kept
    return PartiteHypergraph(parts, q, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(h=partite_hypergraphs())
@example(h=PINNED_CYCLES[0][0])
@example(h=PINNED_CYCLES[1][0])
@example(h=PartiteHypergraph(3, 1, ((0, 0, 0),) * 4))
def test_matches_reference_cycle(h):
    ks = range(3, h.parts + 1)
    want = [reference_find_rainbow_cycle(h, k) for k in ks]
    assert [find_rainbow_cycle(h, k) for k in ks] == want
    # Every k walked on one shared agreement kernel finds the same cycles.
    assert list(_cycles(h, ks)) == want


def _cycle_sweep_corpus():
    """Seeded hypergraphs for the cycle sweep, in a fixed order.

    Random edge lists (parts 3-7, q 1-6, 0-30 edges, half of them kept
    linear greedily), cyclic overlaps, the Reed-Solomon codes RS(11,4,2) and
    RS(23,4,2), and results of the rainbow-free search.
    """
    rng = random.Random(31)
    cases = []
    for parts in range(3, 8):
        for q in range(1, 7):
            for _ in range(80):
                edges = [tuple(rng.randrange(q) for _ in range(parts)) for _ in range(rng.randint(0, 30))]
                if rng.random() < 0.5:
                    kept = []
                    for e in edges:
                        if all(sum(a == b for a, b in zip(e, f)) <= 1 for f in kept):
                            kept.append(e)
                    edges = kept
                cases.append(PartiteHypergraph(parts, q, tuple(edges)))
    for k in range(3, 9):
        for q in (k - 1, k + 2):
            cases.append(matrix_to_hypergraph(cyclic_overlap_matrix(k, q)))
    for q in (11, 23):
        cases.append(matrix_to_hypergraph(reed_solomon_frameproof(q, 4, 2)))
    for parts, q, ks in [(3, 3, (3,)), (4, 3, (3,)), (4, 3, (4,)), (4, 3, (3, 4)), (5, 2, (3, 5)), (5, 3, (4,)), (6, 2, (3, 6))]:
        cases.append(rainbow_free_extremal_search(parts, q, ks, node_budget=3_000).hypergraph)
    return cases


@pytest.mark.slow
def test_cycle_sweep_is_byte_identical():
    """Every find_rainbow_cycle result on a seeded corpus, as recorded before
    the walk ran on the oracle's agreement rows.

    Per hypergraph and cycle length k in [3, parts], one JSON line (keys
    sorted) with the shape, k and the cycle, hashed in order.
    """
    digest = hashlib.sha256()
    calls = 0
    for h in _cycle_sweep_corpus():
        for k in range(3, h.parts + 1):
            cycle = find_rainbow_cycle(h, k)
            d = {
                "parts": h.parts,
                "q": h.part_size,
                "edges": len(h.edges),
                "k": k,
                "cycle": None if cycle is None else cycle.as_json_dict(),
            }
            digest.update((json.dumps(d, sort_keys=True) + "\n").encode())
            calls += 1
    assert calls == 7263
    assert digest.hexdigest() == "8afbcdb56fe0312277b168bd882517a27e85a4389b6ee29d3d7064e2c099014e"


class TestShadowGraph:
    def test_single_edge_triangle(self):
        h = PartiteHypergraph(3, 2, ((0, 1, 0),))
        sg = shadow_graph(h)
        assert len(sg.vertices) == 3
        assert sg.graph_edge_count == 3
        assert sg.disjoint_clique_count() == 1

    def test_two_disjoint_edges(self):
        h = PartiteHypergraph(2, 2, ((0, 0), (1, 1)))
        sg = shadow_graph(h)
        assert sg.graph_edge_count == 2
        assert sg.disjoint_clique_count() == 2

    def test_chain_pattern_counts(self, chain4):
        sg = shadow_graph(matrix_to_hypergraph(chain4))
        assert len(sg.vertices) == 12
        # 4 edge-disjoint K4 copies: 4 * C(4,2) distinct graph edges.
        assert sg.graph_edge_count == 24
        assert all(len(src) == 1 for src in sg.edge_sources.values())
        assert sg.disjoint_clique_count() == 4

    def test_duplicate_edges_share_all(self):
        h = PartiteHypergraph(3, 2, ((0, 1, 0), (0, 1, 0)))
        sg = shadow_graph(h)
        assert sg.disjoint_clique_count() == 0


class TestCycleToViolation:
    def test_chain4_witness(self, chain4):
        h = matrix_to_hypergraph(chain4)
        c = find_rainbow_cycle(h, 4)
        w = cycle_to_violation(h, c)
        assert w.parts == ((0, 2), (1, 3))

    def test_chain6_witness(self):
        m = cyclic_overlap_matrix(6, 5)
        h = matrix_to_hypergraph(m)
        c = find_rainbow_cycle(h, 6)
        w = cycle_to_violation(h, c)
        assert w.parts == ((0, 2, 4), (1, 3, 5))
        for f in range(m.rows):
            assert not row_separates(m, f, w.parts)

    def test_rejects_odd_cycle(self):
        # Triangle pattern: 3 parts, cycle of length 3.
        m = cyclic_overlap_matrix(3, 2)
        h = matrix_to_hypergraph(m)
        c = find_rainbow_cycle(h, 3)
        assert c is not None
        with pytest.raises(ValueError, match="even"):
            cycle_to_violation(h, c)

    def test_rejects_partial_span(self):
        # A 4-cycle inside a 5-partite hypergraph: the extra row may separate.
        base = cyclic_overlap_matrix(4, 4)
        extra_row = (0, 1, 2, 3)
        m = Matrix(base.entries + (extra_row,), 4)
        h = matrix_to_hypergraph(m)
        c = find_rainbow_cycle(h, 4)
        assert c is not None
        with pytest.raises(ValueError, match="span"):
            cycle_to_violation(h, c)


class TestContrapositive:
    def test_planted_cycle_forces_violation(self):
        # Any matrix whose hypergraph holds a rainbow 2w-cycle through all
        # parts fails {w,w}-separation.
        rng = random.Random(8)
        for k, w in ((4, 2), (6, 3)):
            for _ in range(15):
                base = cyclic_overlap_matrix(k, k + 2)
                m = random_linear_extension(rng, base, extra=3)
                h = matrix_to_hypergraph(m)
                assert find_rainbow_cycle(h, k) is not None
                assert find_violation(m, [w, w]) is not None
