"""Tests for constructions and the exact capacity search."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sephash
from sephash.hypergraph import _cube, find_rainbow_cycle, is_linear_hypergraph, matrix_to_hypergraph
from sephash.matrix import Matrix, write_matrix
from sephash.search import (
    CapacityResult,
    CertificationError,
    _arm_splits,
    _doomed,
    _free_part_pairs,
    _holed_layouts,
    _holed_tuples,
    cyclic_overlap_matrix,
    exact_capacity,
    identity_construction,
    rainbow_free_extremal_search,
    random_shf_alteration,
    reed_solomon_frameproof,
)
from sephash.verification import (
    PreconditionError,
    ViolationWitness,
    find_violation,
    is_linear_shf,
)

from helpers import naive_is_separating, reference_capacity, reference_rainbow_free

# (N, q, W) -> (value, nodes, exact, witness text), recorded from the search
# before its candidate filter was rewritten.  Node counts pin the search tree:
# DFS order, size pruning and candidate filtering must all stay the same.
CAPACITY_REGRESSION = [
    (6, 2, (2, 2), 5, 6034, True, "6 5 2\n0 0 0 1 1\n0 0 1 0 1\n0 0 1 1 0\n0 1 0 0 1\n0 1 0 1 0\n0 1 1 0 0\n"),
    (6, 2, (1, 3), 6, 2794, True, "6 6 2\n0 0 0 0 0 1\n0 0 0 0 1 0\n0 0 0 1 0 0\n0 0 1 0 0 0\n0 1 0 0 0 0\n0 1 1 1 1 1\n"),
    (2, 5, (1, 2), 8, 934, True, "2 8 5\n0 0 0 0 1 2 3 4\n0 1 2 3 4 4 4 4\n"),
    (4, 3, (1, 1, 2), 3, 3159, True, "4 3 3\n0 0 0\n0 0 0\n0 0 0\n0 1 2\n"),
    (5, 2, (2, 2), 4, 739, True, "5 4 2\n0 0 0 0\n0 0 0 0\n0 0 1 1\n0 1 0 1\n0 1 1 0\n"),
    (3, 3, (1, 3), 6, 421, True, "3 6 3\n0 0 0 0 1 2\n0 0 1 2 0 0\n0 1 2 2 2 2\n"),
    (3, 3, (2, 2), 5, 358, True, "3 5 3\n0 0 1 1 2\n0 1 0 1 2\n0 1 1 0 2\n"),
    (3, 3, (1, 1, 1), 6, 227, True, "3 6 3\n0 0 1 1 2 2\n0 1 0 2 1 2\n0 1 2 1 2 0\n"),
    (2, 4, (1, 1, 1), 6, 81, True, "2 6 4\n0 0 0 1 2 3\n0 1 2 3 3 3\n"),
    (5, 2, (1, 2), 6, 389, True, "5 6 2\n0 0 0 0 1 1\n0 0 0 1 0 1\n0 0 1 0 0 1\n0 1 0 0 0 1\n0 1 1 1 1 0\n"),
    (2, 5, (1, 1, 2), 5, 1568, True, "2 5 5\n0 0 0 0 0\n0 1 2 3 4\n"),
    (5, 2, (1, 3), 5, 436, True, "5 5 2\n0 0 0 0 1\n0 0 0 1 0\n0 0 1 0 0\n0 1 0 0 0\n0 1 1 1 1\n"),
    (3, 3, (1, 2), 9, 288, True, "3 9 3\n0 0 0 1 1 1 2 2 2\n0 1 2 0 1 2 0 1 2\n0 1 2 1 2 0 2 0 1\n"),
    (4, 3, (2, 2), 9, 12196, True, "4 9 3\n0 0 0 1 1 1 2 2 2\n0 1 2 0 1 2 0 1 2\n0 1 2 1 2 0 2 0 1\n0 1 2 2 0 1 1 2 0\n"),
]

# (parts, part_size, k_range, node_budget) -> (edges, nodes, certified),
# recorded from the search before its linearity and cycle checks became
# bitmask kernels.  All but the first four points trip their budget; the
# last one has the largest candidate set (5**6 edges).
RAINBOW_FREE_REGRESSION = [
    (3, 2, (3,), None, "000 111", 55, True),
    (3, 3, (3,), None, "000 011 102 121 212 220", 7201, True),
    (5, 2, (3, 4, 5), None, "00000 11111", 1279, True),
    (6, 2, (4, 6), None, "000000 111111", 5743, True),
    (4, 3, (3, 4), None, "0000 1111 2222", 200002, False),
    (4, 3, (4,), 50000, "0000 0111 0222 1012 1120 1201 2021 2102 2210", 50004, False),
    (4, 3, (3,), 50000, "0000 0111 1022 2212", 50003, False),
    (3, 4, (3,), 50000, "000 011 022 103 131 213 232 323 330", 50006, False),
    (3, 5, (3,), 50000, "000 011 022 033 104 141 214 240 324 343 434 442", 50006, False),
    (5, 3, (5,), 20000, "00000 01111 10122 12201", 20003, False),
    (4, 4, (3, 4), 20000, "0000 1111 2222 3333", 20004, False),
    (6, 5, (3, 4, 5, 6), 50000, "000000 111111 222222 333333 444444", 50005, False),
    (6, 5, (3,), 1000, "000000 111111 222222 333333 444444", 1002, False),
]

# (N, q, W, node_budget) -> (value, nodes, witness text), recorded from
# capacity searches whose budget trips (exact=False).  Each level above the
# trip counts one more candidate before it sees the trip, so nodes exceed
# the budget by up to the depth reached.
CAPACITY_BUDGET_TRIPS = [
    (4, 3, (2, 2), 3000, 5, 3002, "4 5 3\n0 0 0 0 0\n0 0 1 1 2\n0 1 0 1 2\n0 1 1 0 2\n"),
    (3, 4, (2, 2), 2000, 8, 2003, "3 8 4\n0 0 1 1 2 2 3 3\n0 1 0 1 2 3 2 3\n0 1 1 0 2 3 3 2\n"),
    (4, 4, (2, 2), 10_000, 4, 10_002, "4 4 4\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 1 2 3\n"),
    (5, 3, (1, 1, 1), 10_000, 10, 10_003, "5 10 3\n0 0 0 0 1 1 1 2 2 2\n0 0 1 2 0 1 2 0 1 2\n0 0 1 2 1 2 0 2 0 1\n0 0 1 2 2 0 1 1 2 0\n0 1 2 2 2 2 2 2 2 2\n"),
    (4, 4, (1, 1, 2), 10_000, 4, 10_002, "4 4 4\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 1 2 3\n"),
    (7, 2, (1, 2), 10_000, 9, 10_004, "7 9 2\n0 0 0 0 0 1 1 1 1\n0 0 0 1 1 0 0 1 1\n0 0 0 1 1 1 1 0 0\n0 0 1 0 1 0 1 0 1\n0 0 1 0 1 1 0 1 0\n0 1 0 0 1 0 1 1 0\n0 1 1 1 0 1 0 0 1\n"),
]


def _point_id(n_rows, q, weights):
    return f"{n_rows}-{q}-" + ",".join(map(str, weights))


def _reference_point(point_id, *row, slow=False):
    return pytest.param(*row, id=point_id(*row), marks=pytest.mark.slow if slow else ())


def _capacity_id(n_rows, q, weights, budget):
    return f"{_point_id(n_rows, q, weights)}-{budget}"


def _rainbow_free_id(parts, q, ks, budget):
    return f"{parts}-{q}-{','.join(map(str, ks))}-{budget}"


# Points checked against the reference searches in helpers, which run a
# whole-matrix check per candidate per node (about 0.05-0.7 ms a node).  The
# regression points below 2,000 (capacity) or 10,000 (rainbow-free) nodes,
# plus one tripped budget each, take about 3 s together.  The larger points
# are marked slow (deselected by default; run them with `pytest -m slow`):
# the four capacity points of 2,794-12,196 nodes take about 20 s, the eight
# tripped rainbow-free points of 20,000 nodes or more about 30 s.
REFERENCE_CAPACITY_POINTS = [
    _reference_point(_capacity_id, n_rows, q, weights, None, slow=nodes >= 2000)
    for n_rows, q, weights, _, nodes, *_ in CAPACITY_REGRESSION
] + [_reference_point(_capacity_id, 5, 2, (2, 2), 300)] + [
    # Runs of equal-size parts after the hole, where the holed-tuple walk
    # ends a frame once too few columns are left for the run.
    _reference_point(_capacity_id, n_rows, q, weights, None)
    for n_rows, q, weights in [(2, 3, (1, 1, 1, 1)), (2, 4, (1, 1, 1, 1)), (3, 2, (2, 2, 2)), (2, 3, (1, 2, 2, 2))]
]
REFERENCE_RAINBOW_FREE_POINTS = [
    _reference_point(_rainbow_free_id, parts, q, ks, budget, slow=nodes >= 10_000)
    for parts, q, ks, budget, _, nodes, _ in RAINBOW_FREE_REGRESSION
] + [_reference_point(_rainbow_free_id, 4, 3, (3,), 300)]

NAIVE_POINTS = [(2, 2, (1, 1)), (3, 2, (1, 2)), (3, 2, (2, 2)), (2, 3, (1, 2))]


class TestIdentityConstruction:
    def test_four_rows(self):
        m = identity_construction(4, 3)
        assert m.entries == (
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )
        assert find_violation(m, [1, 3]) is None

    def test_two_rows(self):
        m = identity_construction(2, 1)
        assert find_violation(m, [1, 1]) is None

    def test_rejects_oversized_w(self):
        with pytest.raises(PreconditionError):
            identity_construction(3, 3)

    def test_large_w_certifies_in_linear_time(self):
        # The oracle check of {1, 20} over 40 columns would not finish.
        m = identity_construction(40, 20)
        assert m.entries == tuple(
            tuple(int(i == j) for j in range(40)) for i in range(40)
        )


class TestReedSolomon:
    def test_3_3_2(self):
        m = reed_solomon_frameproof(3, 3, 2)
        assert (m.rows, m.cols, m.q) == (3, 9, 3)
        assert find_violation(m, [1, 2]) is None

    def test_size_law(self):
        for q, n_rows, w in ((3, 3, 2), (5, 4, 2), (5, 5, 4), (7, 3, 3)):
            k = -(-n_rows // w)
            assert reed_solomon_frameproof(q, n_rows, w).cols == q**k

    def test_agreement_below_degree(self):
        m = reed_solomon_frameproof(5, 5, 4)
        cols = m.columns()
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                agree = sum(1 for a, b in zip(cols[i], cols[j]) if a == b)
                assert agree <= 1  # k = 2: distinct polynomials of degree < 2

    def test_constant_columns_when_w_covers(self):
        m = reed_solomon_frameproof(5, 3, 4)
        assert m.cols == 5
        assert all(len(set(col)) == 1 for col in m.columns())

    def test_rejects_composite(self):
        with pytest.raises(PreconditionError, match="prime"):
            reed_solomon_frameproof(4, 3, 2)

    def test_rejects_long_code(self):
        with pytest.raises(PreconditionError):
            reed_solomon_frameproof(3, 4, 2)

    @pytest.mark.parametrize("q", [11, 13])
    def test_large_codes_certified(self, q):
        # Certified by agreement: columns meet in <= (N-1)//w = 1 row.
        m = reed_solomon_frameproof(q, 4, 2)
        assert (m.rows, m.cols) == (4, q * q)

    def test_agreement_certificate_matches_oracle(self):
        assert find_violation(reed_solomon_frameproof(11, 4, 2), [1, 2]) is None


class TestCyclicOverlap:
    def test_shape_and_linearity(self):
        m = cyclic_overlap_matrix(4, 3)
        assert (m.rows, m.cols) == (4, 4)
        assert is_linear_shf(m)

    def test_adjacent_columns_agree_once(self):
        m = cyclic_overlap_matrix(6, 5)
        cols = m.columns()
        k = 6
        for i in range(k):
            j = (i + 1) % k
            agree = sum(1 for a, b in zip(cols[i], cols[j]) if a == b)
            assert agree == 1

    def test_needs_room_for_fillers(self):
        with pytest.raises(ValueError):
            cyclic_overlap_matrix(4, 2)


class TestExactCapacity:
    def test_all_columns_for_two_singletons(self):
        r = exact_capacity(2, 2, [1, 1])
        assert r.value == 4 and r.exact

    def test_single_row_ternary(self):
        r = exact_capacity(1, 3, [1, 2])
        assert r.value == 3 and r.exact

    def test_binary_two_frameproof_length3(self):
        # The even-weight code achieves 4; nothing achieves 5.
        r = exact_capacity(3, 2, [1, 2])
        assert r.value == 4 and r.exact
        assert naive_is_separating(r.witness, [1, 2])

    def test_witness_verified_and_sized(self):
        r = exact_capacity(2, 3, [1, 1])
        assert r.value == 9
        assert r.witness.cols == 9
        assert find_violation(r.witness, [1, 1]) is None

    def test_vacuous_regime_duplicates(self):
        # Only q**N = 2 distinct columns, but u-1 = 3 duplicates still count.
        r = exact_capacity(1, 2, [2, 2])
        assert r.value == 3
        assert r.witness.cols == 3

    def test_budget_flag(self):
        r = exact_capacity(2, 3, [1, 1], node_budget=3)
        assert not r.exact
        assert find_violation(r.witness, [1, 1]) is None

    @pytest.mark.parametrize("budget", [1, 2])
    def test_tripped_search_keeps_vacuous_columns(self, budget):
        # Tripped before depth u-1 = 3: the u-1 vacuous columns still stand.
        r = exact_capacity(3, 3, (2, 2), node_budget=budget)
        assert (r.value, r.exact, r.witness.cols) == (3, False, 3)
        assert find_violation(r.witness, (2, 2)) is None

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="node_budget >= 1"):
            exact_capacity(3, 3, (2, 2), node_budget=budget)

    @pytest.mark.parametrize(
        "budget, nodes, exact", [(357, 357, False), (358, 358, False), (359, 358, True)]
    )
    def test_exact_iff_nodes_below_budget(self, budget, nodes, exact):
        # The full search takes 358 nodes: a budget of 358 trips on the last.
        r = exact_capacity(3, 3, (2, 2), node_budget=budget)
        assert (r.nodes, r.exact) == (nodes, exact)

    def test_monotone_in_rows_and_alphabet(self):
        grid = {}
        for n_rows in (1, 2, 3):
            for q in (2, 3):
                grid[(n_rows, q)] = exact_capacity(n_rows, q, [1, 2]).value
        for (n_rows, q), val in grid.items():
            if (n_rows + 1, q) in grid:
                assert grid[(n_rows + 1, q)] >= val
            if (n_rows, q + 1) in grid:
                assert grid[(n_rows, q + 1)] >= val

    @pytest.mark.parametrize(
        "n_rows, q, weights", NAIVE_POINTS, ids=[_point_id(*p) for p in NAIVE_POINTS]
    )
    def test_matches_naive_maximum_tiny(self, n_rows, q, weights):
        # Cross-check the canonical search against unreduced subset search.
        cols = list(product(range(q), repeat=n_rows))
        best = 0
        for size in range(1, len(cols) + 1):
            for sub in combinations(cols, size):
                m = Matrix(tuple(zip(*sub)), q)
                if naive_is_separating(m, weights):
                    best = max(best, size)
        assert exact_capacity(n_rows, q, weights).value == best

    @pytest.mark.parametrize(
        "n_rows, q, weights, value, nodes, exact, witness",
        CAPACITY_REGRESSION,
        ids=[_point_id(*row[:3]) for row in CAPACITY_REGRESSION],
    )
    def test_search_tree_regression(self, n_rows, q, weights, value, nodes, exact, witness):
        r = exact_capacity(n_rows, q, weights)
        assert (r.value, r.nodes, r.exact, write_matrix(r.witness)) == (
            value,
            nodes,
            exact,
            witness,
        )
        assert naive_is_separating(r.witness, weights)

    @pytest.mark.parametrize(
        "n_rows, q, weights, budget, value, nodes, witness",
        CAPACITY_BUDGET_TRIPS,
        ids=[f"{_point_id(*row[:3])}-{row[3]}" for row in CAPACITY_BUDGET_TRIPS],
    )
    def test_budget_trip_regression(self, n_rows, q, weights, budget, value, nodes, witness):
        r = exact_capacity(n_rows, q, weights, node_budget=budget)
        assert (r.value, r.nodes, r.exact, write_matrix(r.witness)) == (
            value,
            nodes,
            False,
            witness,
        )

    @pytest.mark.parametrize(
        "n_rows, q, weights, budget",
        REFERENCE_CAPACITY_POINTS,
    )
    def test_matches_reference_search(self, n_rows, q, weights, budget):
        kwargs = {} if budget is None else {"node_budget": budget}
        r = exact_capacity(n_rows, q, weights, **kwargs)
        value, nodes, exact, witness = reference_capacity(n_rows, q, weights, **kwargs)
        assert (r.value, r.nodes, r.exact) == (value, nodes, exact)
        assert naive_is_separating(r.witness, weights)
        assert r.witness == witness

    # {1,1} keeps every column, so a family is as deep as it is wide.
    @pytest.mark.parametrize(
        "budget, value, nodes, exact",
        [(None, 1200, 1199, True), (1100, 1100, 2199, False)],
    )
    def test_family_deeper_than_the_recursion_limit(self, budget, value, nodes, exact):
        # Past the trip each of the 1099 frames below counts one more node.
        kwargs = {} if budget is None else {"node_budget": budget}
        r = exact_capacity(1, 1200, [1, 1], **kwargs)
        assert (r.value, r.nodes, r.exact) == (value, nodes, exact)
        assert r.witness.cols == value

    def test_wide_family_memory_is_linear_in_its_depth(self):
        # The frames share one path.  Under CPython 3.11 a copy of the
        # chosen set per frame peaked at 11.8 MB, one shared path at 1.6 MB.
        tracemalloc.start()
        try:
            r = exact_capacity(2, 40, [1, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.value, r.nodes, r.exact) == (1600, 1599, True)
        assert peak < 4_000_000

    def test_wide_family_holed_tuples_are_chained(self):
        # {1,2} has holed tuples through every chosen column.  Each frame
        # links only those through its newest column onto its parent's
        # chain.  Under CPython 3.11 the chain peaked at 9.3 MB, most of it
        # the spared memo; every tuple built again in a list per frame
        # peaked at 26.5 MB.
        tracemalloc.start()
        try:
            r = exact_capacity(1, 300, [1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.value, r.nodes, r.exact) == (300, 299, True)
        assert peak < 15_000_000

    def test_depth_does_not_depend_on_the_recursion_limit(self):
        script = (
            "import sys\n"
            "sys.setrecursionlimit(120)\n"
            "from sephash.search import exact_capacity\n"
            "r = exact_capacity(1, 300, [1, 1])\n"
            "sys.exit(0 if (r.value, r.exact) == (300, True) else 1)\n"
        )
        assert _run(script) == 0

    def test_rejects_oversized_space(self):
        with pytest.raises(ValueError, match="too large"):
            exact_capacity(10, 10, [1, 1])

    @pytest.mark.parametrize("n_rows", [10**12, 14])
    def test_rejects_oversized_binary_space(self, n_rows):
        # 2**(10**12) is never built: the check stops at q**14.
        with pytest.raises(ValueError, match="too large"):
            exact_capacity(n_rows, 2, [1, 1])

    def test_accepts_largest_binary_space(self):
        r = exact_capacity(13, 2, [1, 1], node_budget=1)
        assert (r.value, r.nodes, r.exact) == (1, 1, False)

    @pytest.mark.parametrize("q", [0, -1])
    def test_rejects_alphabet_below_one(self, q):
        with pytest.raises(ValueError, match="q >= 1"):
            exact_capacity(2, q, [1, 1])

    def test_json_shape(self):
        d = exact_capacity(1, 2, [1, 1]).as_json_dict()
        assert set(d) == {
            "N",
            "q",
            "weights",
            "value",
            "exact",
            "nodes",
            "elapsed_seconds",
            "witness",
        }


class TestAlteration:
    def test_distinct_columns_survive_pairs(self):
        m = random_shf_alteration(3, 4, [1, 1], seed=0)
        assert len(set(m.columns())) == m.cols
        assert find_violation(m, [1, 1]) is None

    def test_seed_determinism(self):
        a = random_shf_alteration(4, 3, [2, 2], seed=1)
        b = random_shf_alteration(4, 3, [2, 2], seed=1)
        assert a == b
        assert find_violation(a, [2, 2]) is None

    def test_different_seeds_allowed_to_differ(self):
        outs = {random_shf_alteration(3, 3, [1, 1], seed=s).cols for s in range(4)}
        assert all(isinstance(c, int) for c in outs)

    def test_trials_keep_best(self):
        single = random_shf_alteration(4, 4, [2, 2], seed=7, trials=1)
        multi = random_shf_alteration(4, 4, [2, 2], seed=7, trials=4)
        assert multi.cols >= single.cols

    def test_rejects_too_few_symbols(self):
        with pytest.raises(PreconditionError):
            random_shf_alteration(2, 1, [1, 2], seed=0)

    def test_rejects_single_part(self):
        with pytest.raises(ValueError, match="need at least two parts"):
            random_shf_alteration(3, 3, [1], seed=0)

    @pytest.mark.parametrize(
        "n_rows, q, weights, pool",
        [
            (3, 2, [1, 2], 6),  # g = 0: the 2u floor
            (3, 4, [1, 1], 32),
            (1, 30, [1, 1], 15),  # the optimum 15, exactly
            (200, 1000, [1, 1], 4096),  # (1-g)**N underflows to 0.0
            (24, 10**14, [1, 1], 4096),
            (1, 10**17, [1, 1], 4096),  # g rounds to 1.0
        ],
    )
    def test_initial_pool_size(self, monkeypatch, n_rows, q, weights, pool):
        # With an oracle that finds nothing, no column is deleted.
        monkeypatch.setattr("sephash.search.find_violation", lambda m, w: None)
        assert random_shf_alteration(n_rows, q, weights, seed=0).cols == pool

    @pytest.mark.parametrize("trials", [1, 2])
    def test_one_oracle_call_per_deletion_and_one_that_accepts(self, monkeypatch, trials):
        # The pool for (3, 4, {1, 1}) is 32 columns.  Each trial shrinks it
        # one column per call until a call accepts, and that accepted matrix
        # is returned as is, with no second check.
        calls = []

        def counted(m, w):
            got = find_violation(m, w)
            calls.append((m, got))
            return got

        monkeypatch.setattr("sephash.search.find_violation", counted)
        result = random_shf_alteration(3, 4, [1, 1], seed=0, trials=trials)
        starts = [i for i, (m, _) in enumerate(calls) if m.cols == 32]
        assert len(starts) == trials and starts[0] == 0
        accepted = []
        for a, b in zip(starts, starts[1:] + [len(calls)]):
            trial = calls[a:b]
            assert [m.cols for m, _ in trial] == list(range(32, 32 - len(trial), -1))
            assert all(got is not None for _, got in trial[:-1])
            assert trial[-1][1] is None
            accepted.append(trial[-1][0])
        assert any(result is m for m in accepted)

    def test_full_pool_of_distinct_one_row_columns(self):
        # 4,096 distinct one-row columns: no two agree, so the oracle's
        # distance certificate accepts the whole pool at once instead of
        # walking its part tuples.
        m = random_shf_alteration(1, 10**20, [2, 2], seed=0)
        assert m.cols == 4096
        assert find_violation(m, [2, 2]) is None


class TestRainbowFreeSearch:
    def test_triangle_free_max(self):
        r = rainbow_free_extremal_search(3, 2, [3])
        assert r.certified
        assert r.edge_count == 2  # matching is optimal at q = 2

    def test_four_parts(self):
        r = rainbow_free_extremal_search(4, 2, [3, 4])
        assert r.certified
        assert r.edge_count == 2

    def test_at_least_matching(self):
        for parts, q in ((3, 3), (4, 3)):
            r = rainbow_free_extremal_search(parts, q, [3], node_budget=20_000)
            assert r.edge_count >= q

    def test_result_recertified(self):
        r = rainbow_free_extremal_search(4, 3, [3, 4], node_budget=20_000)
        assert is_linear_hypergraph(r.hypergraph)
        if r.edge_count >= 3:
            for k in (3, 4):
                assert find_rainbow_cycle(r.hypergraph, k) is None

    def test_budget_flag(self):
        r = rainbow_free_extremal_search(4, 3, [3], node_budget=5)
        assert not r.certified
        assert r.edge_count >= 3  # seeded matching survives

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="node_budget >= 1"):
            rainbow_free_extremal_search(3, 3, [3], node_budget=budget)

    @pytest.mark.parametrize(
        "budget, nodes, certified", [(54, 54, False), (55, 55, False), (56, 55, True)]
    )
    def test_certified_iff_nodes_below_budget(self, budget, nodes, certified):
        # The full search takes 55 nodes: a budget of 55 trips on the last.
        r = rainbow_free_extremal_search(3, 2, (3,), node_budget=budget)
        assert (r.nodes, r.certified) == (nodes, certified)

    @pytest.mark.parametrize(
        "parts, q, ks, budget, edges, nodes, certified",
        RAINBOW_FREE_REGRESSION,
        ids=[f"{p}-{q}-{','.join(map(str, ks))}-{b}" for p, q, ks, b, *_ in RAINBOW_FREE_REGRESSION],
    )
    def test_rainbow_free_regression(self, parts, q, ks, budget, edges, nodes, certified):
        kwargs = {} if budget is None else {"node_budget": budget}
        r = rainbow_free_extremal_search(parts, q, ks, **kwargs)
        edge_list = [[int(s) for s in e] for e in edges.split()]
        assert r.as_json_dict() == {
            "parts": parts,
            "part_size": q,
            "edge_count": len(edge_list),
            "edges": edge_list,
            "nodes": nodes,
            "certified": certified,
        }

    @pytest.mark.parametrize(
        "parts, q, ks, budget",
        REFERENCE_RAINBOW_FREE_POINTS,
    )
    def test_matches_reference_search(self, parts, q, ks, budget):
        kwargs = {} if budget is None else {"node_budget": budget}
        r = rainbow_free_extremal_search(parts, q, ks, **kwargs)
        edges, nodes, certified = reference_rainbow_free(parts, q, ks, **kwargs)
        assert (list(r.hypergraph.edges), r.nodes, r.certified) == (edges, nodes, certified)

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            rainbow_free_extremal_search(7, 2, [3])

    def test_accepts_lengths_an_int_equals(self):
        r = rainbow_free_extremal_search(3, 2, [3.0])
        assert r.as_json_dict() == rainbow_free_extremal_search(3, 2, [3]).as_json_dict()

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            rainbow_free_extremal_search(4, 2, [2])


def _brute_cycle_through(new, edges, parts, ks, via=None):
    """True iff a rainbow k-cycle, k in ks, runs through new and distinct `edges`.

    From the definition: consecutive edges (cyclically) share a vertex, and
    one shared vertex per consecutive pair can be picked in k distinct parts.
    With via given, only cycles that also run through via count.
    """
    for k in ks:
        for seq in permutations(edges, k - 1):
            if via is not None and via not in seq:
                continue
            cycle = [new, *seq]
            shared = [
                [p for p in range(parts) if cycle[i - 1][p] == cycle[i][p]] for i in range(k)
            ]
            if any(len(set(pick)) == k for pick in product(*shared)):
                return True
    return False


def _linear_with(e, edges):
    return all(sum(a == b for a, b in zip(e, f)) <= 1 for f in edges)


def _doomed_over_cube(i, others, parts, q, ks):
    """The candidates of range(q)**parts and _doomed's mask for edge i and
    the chosen edges others, with every candidate's near mask built."""
    candidates, masks, edges_at, _ = _cube(parts, q)
    chosen = sum(1 << candidates.index(e) for e in others)
    near = [reduce(or_, at) for at in edges_at]
    splits, pairs = _arm_splits(ks), _free_part_pairs(parts)
    return candidates, _doomed(candidates.index(i), chosen, splits, q, masks, near, edges_at, pairs)


@pytest.mark.parametrize(
    "ks, splits",
    [((3,), [(0, 1)]), ((4,), [(1, 1), (0, 2)]), ((3, 6), [(0, 1), (2, 2), (1, 3), (0, 4)])],
)
def test_arm_splits(ks, splits):
    assert _arm_splits(ks) == splits


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_doomed_matches_definition(data):
    # Every candidate linear with the chosen edges and i is in _doomed's
    # mask iff a rainbow cycle runs through it and i.
    parts = data.draw(st.integers(3, 6))
    q = data.draw(st.integers(2, 4))
    ks = tuple(sorted(data.draw(st.sets(st.integers(3, parts), min_size=1))))
    pool = list(product(range(q), repeat=parts))
    data.draw(st.randoms(use_true_random=False)).shuffle(pool)
    edges = []
    for e in pool:
        if len(edges) < 8 and _linear_with(e, edges):
            edges.append(e)
    i = edges[data.draw(st.integers(0, len(edges) - 1))]
    candidates, doomed = _doomed_over_cube(i, [e for e in edges if e != i], parts, q, ks)
    for c, e in enumerate(candidates):
        if e not in edges and _linear_with(e, edges):
            assert (doomed >> c & 1) == _brute_cycle_through(e, edges, parts, ks, via=i)


def test_doomed_needs_edge_disjoint_arms():
    # Arms i-E-G (parts 0, 3) and i-B-E (parts 1, 2) use disjoint parts
    # but share E, and j meets G in part 4 and E in part 5.  The walk
    # j, G, E, i, B, E repeats E: five edges hold no rainbow 6-cycle.
    i, e, b, g = (0,) * 6, (0, 1, 1, 1, 1, 1), (1, 0, 1, 2, 2, 2), (2, 2, 2, 1, 3, 3)
    j = (3, 3, 3, 3, 3, 1)
    assert _linear_with(j, [i, e, b, g])
    assert not _brute_cycle_through(j, [i, e, b, g], 6, (6,), via=i)
    candidates, doomed = _doomed_over_cube(i, [e, b, g], 6, 4, (6,))
    assert not doomed >> candidates.index(j) & 1


def test_doomed_is_empty_when_no_chosen_edge_meets_i():
    # The chosen path (1,1,1,1)-(1,2,2,2)-(3,2,3,3) misses i, so i has no
    # arm beyond itself and no cycle runs through it.
    i, chosen = (0,) * 4, [(1, 1, 1, 1), (1, 2, 2, 2), (3, 2, 3, 3)]
    assert _linear_with(i, chosen)
    candidates, doomed = _doomed_over_cube(i, chosen, 4, 4, (3, 4))
    assert doomed == 0
    edges = [i, *chosen]
    for e in candidates:
        if e not in edges and _linear_with(e, edges):
            assert not _brute_cycle_through(e, edges, 4, (3, 4), via=i)


def test_rainbow_free_candidate_masks_are_built_lazily():
    # 15,625 candidate edges, each mask a 15,625-bit int.  Under CPython
    # 3.11 the search peaked at 3.6 MiB with masks built as edges join; a
    # conflict mask per candidate built up front took about 32 MB.
    tracemalloc.start()
    try:
        r = rainbow_free_extremal_search(6, 5, (3, 4, 5, 6), node_budget=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not r.certified
    assert peak < 8 * 2**20


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 4),
    st.integers(2, 3),
    st.data(),
    st.integers(1, 300),
)
def test_rainbow_free_matches_reference_search(parts, q, data, budget):
    ks = sorted(data.draw(st.sets(st.integers(3, parts), min_size=1)))
    r = rainbow_free_extremal_search(parts, q, ks, node_budget=budget)
    edges, nodes, certified = reference_rainbow_free(parts, q, ks, node_budget=budget)
    assert (list(r.hypergraph.edges), r.nodes, r.certified) == (edges, nodes, certified)


CAPACITY_TYPES = [(1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 1, 2)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(CAPACITY_TYPES),
    st.integers(1, 300),
)
def test_capacity_matches_reference_search(n_rows, q, weights, budget):
    r = exact_capacity(n_rows, q, weights, node_budget=budget)
    value, nodes, exact, witness = reference_capacity(n_rows, q, weights, node_budget=budget)
    assert (r.value, r.nodes, r.exact, r.witness) == (value, nodes, exact, witness)


@pytest.mark.slow
def test_capacity_sweep_is_byte_identical():
    """Every capacity result of a 675-run sweep, as recorded before the
    holed-tuple chain replaced the per-child walk.

    Nine types, every (N, q) with q <= 4 and q**N <= 300, and budgets of
    7, 500 and 20,000 nodes: one JSON line per run (elapsed_seconds left
    out, keys sorted), hashed in order.  A change that alters node
    counts on purpose, such as ROADMAP item 4 (symmetry breaking) or
    item 7 (an exact node budget), re-records this digest and says so.
    """
    types = [(1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 1, 2), (2, 3), (1, 2, 2), (1, 1, 1, 1)]
    points = [(n_rows, q) for q in range(1, 5) for n_rows in range(1, 9) if q**n_rows <= 300]
    digest = hashlib.sha256()
    for weights in types:
        for n_rows, q in points:
            for budget in (7, 500, 20_000):
                d = exact_capacity(n_rows, q, weights, node_budget=budget).as_json_dict()
                del d["elapsed_seconds"]
                digest.update((json.dumps(d, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == "2a44197f989478120cc9682c6d7401cffb6bb7296fba611cfc4f5896df4baf9f"


def _brute_holed_tuples(weights, masks, prior, n_rows, q):
    """Counter of (bad, other, out, into_hole) over the holed tuples from prior.

    From the definition: a holed tuple is a part tuple of type W less one
    member of one part, the hole.  Its members are the joiner (here -1) and
    u-2 columns of prior.  Every split of every such member set is built,
    and each unordered tuple (its parts told apart by members alone) is
    counted once.  bad holds the full q-bit field of each row where two
    parts show a common symbol; joiner vertices count nowhere.
    """
    found = set()
    for hole in set(weights):
        rest = list(weights)
        rest.remove(hole)
        sizes = [hole - 1, *rest]
        for members in combinations(prior, sum(sizes) - 1):
            for order in permutations((-1, *members)):
                ends = [sum(sizes[: i + 1]) for i in range(len(sizes))]
                parts = [frozenset(order[end - size : end]) for size, end in zip(sizes, ends)]
                found.add((parts[0], frozenset(parts[1:])))

    def symbols(part, r):
        return {s for x in part if x >= 0 for s in range(q) if masks[x] >> (r * q + s) & 1}

    def vertices(parts):
        return reduce(or_, (masks[x] for part in parts for x in part if x >= 0), 0)

    tally = Counter()
    for hole, others in found:
        parts = [hole, *others]
        bad = sum(
            ((1 << q) - 1) << (r * q)
            for r in range(n_rows)
            if any(a & b for a, b in combinations([symbols(p, r) for p in parts], 2))
        )
        other = vertices(p for p in parts if -1 not in p)
        tally[bad, other, vertices(others), -1 in hole] += 1
    return tally


@pytest.mark.parametrize(
    "weights",
    [(1, 1), (1, 3), (2, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3), (1, 1, 2, 2)],
    ids=lambda w: ",".join(map(str, w)),
)
def test_holed_tuples_match_brute_force(weights):
    # Chained over the prefixes of prior, as exact_capacity's frames link
    # them, the walks give every holed tuple from prior once, equal-size
    # parts of size 2 and more included.
    rng = random.Random(",".join(map(str, weights)))
    layouts = _holed_layouts(weights)
    for _ in range(25):
        n_rows, q = rng.randint(1, 3), rng.randint(2, 3)
        masks = [sum(1 << (r * q + rng.randrange(q)) for r in range(n_rows)) for _ in range(30)]
        prior = sorted(rng.sample(range(30), rng.randint(0, 6)))
        low = sum(1 << (r * q) for r in range(n_rows))
        top = low << (q - 1)
        chained = Counter()
        for end in range(len(prior) + 1):
            chained.update(_holed_tuples(layouts, masks, prior[:end], q, top - low, top))
        assert chained == _brute_holed_tuples(weights, masks, prior, n_rows, q)


class TestCapacityLaws:
    def test_two_singletons_fill_the_cube(self):
        # C(N, q, {1,1}) = q**N whenever distinct columns exist.
        for n_rows, q in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (1, 5), (2, 9)):
            assert exact_capacity(n_rows, q, [1, 1]).value == q**n_rows


class TestCertification:
    """Self-checks raise CertificationError, which python -O cannot strip."""

    def test_rejected_capacity_witness_raises(self, monkeypatch):
        monkeypatch.setattr(
            "sephash.search.find_violation",
            lambda m, w: ViolationWitness(((0,), (1,))),
        )
        with pytest.raises(CertificationError):
            exact_capacity(2, 2, [1, 1])

    def test_rejected_reed_solomon_agreement_raises(self, monkeypatch):
        monkeypatch.setattr(
            "sephash.search.find_violation",
            lambda m, w: ViolationWitness(((0,), (1, 2))),
        )
        with pytest.raises(CertificationError):
            reed_solomon_frameproof(5, 4, 2)

    def test_rejected_identity_private_rows_raise(self, monkeypatch):
        monkeypatch.setattr("sephash.search._has_private_rows", lambda m: False)
        with pytest.raises(CertificationError, match="private row"):
            identity_construction(4, 3)

    def test_rejected_identity_private_rows_raise_under_optimize(self):
        script = (
            "import sys\n"
            "import sephash.search as s\n"
            "s._has_private_rows = lambda m: False\n"
            "try:\n"
            "    s.identity_construction(4, 3)\n"
            "except s.CertificationError:\n"
            "    sys.exit(0 if sys.flags.optimize else 3)\n"
            "sys.exit(1)\n"
        )
        assert _run(script, "-O") == 0

    def test_rejected_capacity_witness_raises_under_optimize(self):
        script = (
            "import sys\n"
            "import sephash.search as s\n"
            "from sephash.verification import ViolationWitness\n"
            "s.find_violation = lambda m, w: ViolationWitness(((0,), (1,)))\n"
            "try:\n"
            "    s.exact_capacity(2, 2, [1, 1])\n"
            "except s.CertificationError:\n"
            "    sys.exit(0 if sys.flags.optimize else 3)\n"
            "sys.exit(1)\n"
        )
        assert _run(script, "-O") == 0

    def test_rejected_reed_solomon_agreement_raises_under_optimize(self):
        script = (
            "import sys\n"
            "import sephash.search as s\n"
            "from sephash.verification import ViolationWitness\n"
            "s.find_violation = lambda m, w: ViolationWitness(((0,), (1, 2)))\n"
            "try:\n"
            "    s.reed_solomon_frameproof(5, 4, 2)\n"
            "except s.CertificationError:\n"
            "    sys.exit(0 if sys.flags.optimize else 3)\n"
            "sys.exit(1)\n"
        )
        assert _run(script, "-O") == 0


def test_no_walk_depends_on_the_recursion_limit():
    # Each walk is deeper than the limit: a 149-member part or cover, a
    # 150-edge cycle and a 150-part holed tuple.  Exit 1-4 names the walk.
    script = (
        "import sys\n"
        "sys.setrecursionlimit(120)\n"
        "from sephash.coverfree import is_cff\n"
        "from sephash.hypergraph import find_rainbow_cycle, matrix_to_hypergraph\n"
        "from sephash.matrix import Matrix\n"
        "from sephash.search import cyclic_overlap_matrix, exact_capacity\n"
        "from sephash.verification import find_violation\n"
        "zeros, rest = Matrix(((0,) * 150,), 2), tuple(range(1, 150))\n"
        "if find_violation(zeros, [1, 149]).parts != ((0,), rest):\n"
        "    sys.exit(1)\n"
        "if is_cff(zeros, 149) != (0, rest):\n"
        "    sys.exit(2)\n"
        "h = matrix_to_hypergraph(cyclic_overlap_matrix(150, 149))\n"
        "if find_rainbow_cycle(h, 150).edges != tuple(range(150)):\n"
        "    sys.exit(3)\n"
        "r = exact_capacity(1, 200, [1] * 150, node_budget=149)\n"
        "sys.exit(0 if (r.value, r.nodes, r.exact) == (149, 297, False) else 4)\n"
    )
    assert _run(script) == 0


def _run(script, *flags):
    """Exit code of script run by a fresh interpreter with this sephash importable."""
    src = str(Path(sephash.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *flags, "-c", script], env=env, timeout=60).returncode
