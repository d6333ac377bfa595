"""Input checks of the public calls: each bad argument raises a named error.

One row per check: the call, the exception type and a fragment of its
message.  PreconditionError is a ValueError, so rows name the narrower type
where the library raises it.
"""

import pytest

from sephash.bounds import (
    all_distinct_probability,
    applicable_upper_bounds,
    balanced_grouping_bound,
    best_upper_bound,
    blackburn_bound,
    equal_weight_max_rate,
    grouping_composition_bound,
    johnson_recursive_bound,
    johnson_step,
    niu_cao_bound,
    perfect_hash_upper_bound,
    prob_lower_bound,
    separation_rate,
    small_alphabet_bound,
    trung_bound,
)
from sephash.coverfree import (
    cff_derived,
    cff_is_shf_check,
    cover_free_threshold_lower,
    frameproof_threshold_bounds,
    is_cff,
    shf_to_cff_double,
)
from sephash.hypergraph import PartiteHypergraph, find_rainbow_cycle
from sephash.matrix import Matrix, SeparationType, group_rows
from sephash.search import (
    cyclic_overlap_matrix,
    exact_capacity,
    identity_construction,
    rainbow_free_extremal_search,
    random_shf_alteration,
    reed_solomon_frameproof,
)
from sephash.verification import PreconditionError, find_violation, row_separates

BINARY = Matrix(((1, 0), (0, 1)), 2)
# Both members are 1 on every row, so each covers the other.
COVERED = Matrix(((1, 1),), 2)
# Two members are vacuously 2-cover-free, and member 0 is 1 on every row.
FULL_MEMBER = Matrix(((1, 0), (1, 0)), 2)
# Three edges that pairwise share one vertex in distinct parts: a rainbow 3-cycle.
TRIANGLE = PartiteHypergraph(3, 2, ((0, 0, 0), (0, 1, 1), (1, 1, 0)))

REJECTIONS = [
    # bounds.py
    ("all_distinct_probability q<1", lambda: all_distinct_probability(0, 1), ValueError, "q must be positive"),
    ("blackburn_bound t<2", lambda: blackburn_bound(2, [2]), ValueError, "at least two parts"),
    ("trung_bound t<2", lambda: trung_bound(2, [2]), ValueError, "at least two parts"),
    ("balanced_grouping_bound u<2", lambda: balanced_grouping_bound(3, 2, [1]), ValueError, "need u >= 2"),
    ("balanced_grouping_bound N<1", lambda: balanced_grouping_bound(0, 2, [1, 1]), ValueError, "need N >= 1"),
    ("grouping_composition_bound u<2", lambda: grouping_composition_bound(3, 2, [1]), ValueError, "need u >= 2"),
    ("grouping_composition_bound N<1", lambda: grouping_composition_bound(0, 2, [1, 1]), ValueError, "need N >= 1"),
    ("johnson_recursive_bound t<2", lambda: johnson_recursive_bound(3, 2, [2]), ValueError, "at least two parts"),
    ("johnson_recursive_bound N<1", lambda: johnson_recursive_bound(0, 2, [1, 1]), ValueError, "need N >= 1"),
    ("prob_lower_bound u<2", lambda: prob_lower_bound(3, 2, [1]), ValueError, "need u >= 2"),
    ("perfect_hash_upper_bound t<2", lambda: perfect_hash_upper_bound(3, 2, 1), ValueError, "need t >= 2"),
    ("perfect_hash_upper_bound N<0", lambda: perfect_hash_upper_bound(-1, 3, 2), ValueError, "need N >= 0"),
    ("perfect_hash_upper_bound N nan", lambda: perfect_hash_upper_bound(float("nan"), 3, 3), ValueError, "need N >= 0"),
    ("separation_rate point length", lambda: separation_rate([1, 2], [1.0]), ValueError, "point length"),
    ("equal_weight_max_rate t<2", lambda: equal_weight_max_rate(1, 2), ValueError, "need t >= 2"),
    ("equal_weight_max_rate w<2", lambda: equal_weight_max_rate(2, 1), ValueError, "need w >= 2"),
    ("equal_weight_max_rate lossy t", lambda: equal_weight_max_rate(2.5, 2), ValueError, "t 2.5 is not an integer"),
    ("equal_weight_max_rate lossy w", lambda: equal_weight_max_rate(2, 2.5), ValueError, "w 2.5 is not an integer"),
    ("small_alphabet_bound t<2", lambda: small_alphabet_bound(3, 1, [2]), ValueError, "need t >= 2"),
    ("applicable_upper_bounds t<2", lambda: applicable_upper_bounds(3, 2, [2]), ValueError, "at least two parts"),
    ("all_distinct_probability lossy q", lambda: all_distinct_probability(2.5, 1), ValueError, "q 2.5 is not an integer"),
    ("all_distinct_probability lossy j", lambda: all_distinct_probability(3, 1.5), ValueError, "j 1.5 is not an integer"),
    ("blackburn_bound lossy q", lambda: blackburn_bound(2.5, [1, 2]), ValueError, "q 2.5 is not an integer"),
    ("trung_bound lossy q", lambda: trung_bound(2.5, [1, 2]), ValueError, "q 2.5 is not an integer"),
    ("niu_cao_bound lossy q", lambda: niu_cao_bound(2.5, 2), ValueError, "q 2.5 is not an integer"),
    ("niu_cao_bound lossy w", lambda: niu_cao_bound(3, 2.5), ValueError, "w 2.5 is not an integer"),
    ("balanced_grouping_bound lossy q", lambda: balanced_grouping_bound(3, 2.5, [1, 2]), ValueError, "q 2.5 is not an integer"),
    ("balanced_grouping_bound lossy N", lambda: balanced_grouping_bound(3.5, 2, [1, 2]), ValueError, "N 3.5 is not an integer"),
    ("grouping_composition_bound lossy q", lambda: grouping_composition_bound(3, 2.5, [1, 2]), ValueError, "q 2.5 is not an integer"),
    ("grouping_composition_bound lossy N", lambda: grouping_composition_bound(3.5, 2, [1, 2]), ValueError, "N 3.5 is not an integer"),
    ("johnson_step lossy q", lambda: johnson_step(4, 2.5, [1, 2], 1, 1), ValueError, "q 2.5 is not an integer"),
    ("johnson_step lossy N", lambda: johnson_step(4.5, 2, [1, 2], 1, 1), ValueError, "N 4.5 is not an integer"),
    ("johnson_step lossy length", lambda: johnson_step(4, 2, [1, 2], 1.5, 1), ValueError, "step length 1.5 is not an integer"),
    ("johnson_step lossy i", lambda: johnson_step(4, 2, [1, 2], 1, 1.5), ValueError, "weight position 1.5 is not an integer"),
    ("johnson_recursive_bound lossy q", lambda: johnson_recursive_bound(3, 2.5, [1, 2]), ValueError, "q 2.5 is not an integer"),
    ("johnson_recursive_bound lossy N", lambda: johnson_recursive_bound(3.5, 2, [1, 2]), ValueError, "N 3.5 is not an integer"),
    ("prob_lower_bound lossy q", lambda: prob_lower_bound(3, 2.5, [1, 1]), ValueError, "q 2.5 is not an integer"),
    ("prob_lower_bound lossy N", lambda: prob_lower_bound(3.5, 2, [1, 1]), ValueError, "N 3.5 is not an integer"),
    ("perfect_hash_upper_bound lossy q", lambda: perfect_hash_upper_bound(3, 2.5, 2), ValueError, "q 2.5 is not an integer"),
    ("perfect_hash_upper_bound lossy t", lambda: perfect_hash_upper_bound(3, 3, 2.5), ValueError, "t 2.5 is not an integer"),
    ("small_alphabet_bound lossy t", lambda: small_alphabet_bound(8, 2.5, [2, 2]), ValueError, "t 2.5 is not an integer"),
    ("small_alphabet_bound lossy N", lambda: small_alphabet_bound(8.5, 2, [2, 2]), ValueError, "N 8.5 is not an integer"),
    ("applicable_upper_bounds lossy q", lambda: applicable_upper_bounds(3, 2.5, [1, 2]), ValueError, "q 2.5 is not an integer"),
    ("applicable_upper_bounds lossy N", lambda: applicable_upper_bounds(3.5, 2, [1, 2]), ValueError, "N 3.5 is not an integer"),
    ("best_upper_bound lossy q", lambda: best_upper_bound(3, 2.5, [1, 2]), ValueError, "q 2.5 is not an integer"),
    ("best_upper_bound text N", lambda: best_upper_bound("3", 2, [1, 2]), ValueError, "N '3' is not an integer"),
    # coverfree.py
    ("is_cff w<1", lambda: is_cff(BINARY, 0), ValueError, "w must be positive"),
    ("cff_derived w<2", lambda: cff_derived(BINARY, 0, 1), PreconditionError, "need w >= 2"),
    ("cff_derived full member", lambda: cff_derived(FULL_MEMBER, 0, 2), PreconditionError, "covers every row"),
    ("cff_is_shf_check not cover-free", lambda: cff_is_shf_check(COVERED, 1), PreconditionError, "not w-cover-free"),
    ("shf_to_cff_double w<1", lambda: shf_to_cff_double(BINARY, 0), ValueError, "w must be positive"),
    ("is_cff lossy w", lambda: is_cff(BINARY, 1.5), ValueError, "w 1.5 is not an integer"),
    ("cff_derived lossy w", lambda: cff_derived(BINARY, 0, 2.5), ValueError, "w 2.5 is not an integer"),
    ("cff_derived lossy member", lambda: cff_derived(BINARY, 0.5, 2), ValueError, "member 0.5 is not an integer"),
    ("shf_to_cff_double lossy w", lambda: shf_to_cff_double(BINARY, 1.5), ValueError, "w 1.5 is not an integer"),
    ("cover_free_threshold_lower lossy w", lambda: cover_free_threshold_lower(1.5), ValueError, "w 1.5 is not an integer"),
    ("frameproof_threshold_bounds lossy w", lambda: frameproof_threshold_bounds(3.5), ValueError, "w 3.5 is not an integer"),
    # hypergraph.py
    ("PartiteHypergraph no parts", lambda: PartiteHypergraph(0, 2, ()), ValueError, "at least one part"),
    ("PartiteHypergraph float symbol", lambda: PartiteHypergraph(2, 2, ((1.0, 0),)), ValueError, "not an int"),
    ("find_rainbow_cycle lossy k", lambda: find_rainbow_cycle(TRIANGLE, 3.5), ValueError, "cycle length 3.5 is not an integer"),
    # matrix.py
    ("Matrix q<1", lambda: Matrix(((0,),), 0), ValueError, "alphabet size must be >= 1"),
    ("Matrix.submatrix index", lambda: BINARY.submatrix([2]), IndexError, "column index 2 out of range"),
    ("Matrix.submatrix lossy index", lambda: BINARY.submatrix([0.5]), ValueError, "column index 0.5 is not an integer"),
    ("SeparationType empty", lambda: SeparationType(()), ValueError, "at least one weight"),
    ("SeparationType unsorted", lambda: SeparationType((2, 1)), ValueError, "sorted ascending"),
    ("SeparationType float weight", lambda: SeparationType((1.5, 2.5)), ValueError, "weight 1.5 is not an int"),
    ("SeparationType bool weight", lambda: SeparationType((True, 2)), ValueError, "weight True is not an int"),
    ("SeparationType.of lossy cast", lambda: SeparationType.of([1.7, 2]), ValueError, "weight 1.7 is not an integer"),
    ("SeparationType.of inf", lambda: SeparationType.of([float("inf")]), ValueError, "weight inf is not an integer"),
    ("SeparationType.of -inf", lambda: SeparationType.of([2, float("-inf")]), ValueError, "weight -inf is not an integer"),
    ("SeparationType.of nan", lambda: SeparationType.of([float("nan"), 2]), ValueError, "weight nan is not an integer"),
    ("SeparationType.parse non-integer", lambda: SeparationType.parse("1,x"), ValueError, "bad type spec '1,x'"),
    ("group_rows a<1", lambda: group_rows(BINARY, 0), ValueError, "group size must be >= 1"),
    ("group_rows lossy a", lambda: group_rows(BINARY, 1.5), ValueError, "group size 1.5 is not an integer"),
    # search.py
    ("identity_construction N<2", lambda: identity_construction(1, 1), PreconditionError, "at least 2 rows"),
    ("reed_solomon_frameproof composite q", lambda: reed_solomon_frameproof(4, 2, 2), PreconditionError, "4 is not prime"),
    ("reed_solomon_frameproof w<1", lambda: reed_solomon_frameproof(5, 3, 0), PreconditionError, "w must be positive"),
    ("cyclic_overlap_matrix k<3", lambda: cyclic_overlap_matrix(2, 5), ValueError, "need k >= 3"),
    ("identity_construction lossy N", lambda: identity_construction(3.5, 1), ValueError, "N 3.5 is not an integer"),
    ("identity_construction lossy w", lambda: identity_construction(3, 1.5), ValueError, "w 1.5 is not an integer"),
    ("reed_solomon_frameproof lossy q", lambda: reed_solomon_frameproof(5.5, 3, 2), ValueError, "q 5.5 is not an integer"),
    ("reed_solomon_frameproof lossy N", lambda: reed_solomon_frameproof(5, 3.5, 2), ValueError, "N 3.5 is not an integer"),
    ("reed_solomon_frameproof lossy w", lambda: reed_solomon_frameproof(5, 3, 2.5), ValueError, "w 2.5 is not an integer"),
    ("cyclic_overlap_matrix lossy k", lambda: cyclic_overlap_matrix(4.5, 3), ValueError, "k 4.5 is not an integer"),
    ("cyclic_overlap_matrix lossy q", lambda: cyclic_overlap_matrix(4, 3.5), ValueError, "q 3.5 is not an integer"),
    ("exact_capacity t<2", lambda: exact_capacity(2, 2, [2]), ValueError, "at least two parts"),
    ("exact_capacity N<1", lambda: exact_capacity(0, 2, [1, 1]), ValueError, "need N >= 1"),
    ("exact_capacity lossy N", lambda: exact_capacity(2.5, 2, [1, 1]), ValueError, "N 2.5 is not an integer"),
    ("exact_capacity lossy q", lambda: exact_capacity(2, 2.5, [1, 1]), ValueError, "q 2.5 is not an integer"),
    ("random_shf_alteration lossy N", lambda: random_shf_alteration(2.5, 3, [1, 1], seed=0), ValueError, "N 2.5 is not an integer"),
    ("random_shf_alteration lossy q", lambda: random_shf_alteration(2, 3.5, [1, 1], seed=0), ValueError, "q 3.5 is not an integer"),
    ("random_shf_alteration lossy seed", lambda: random_shf_alteration(2, 3, [1, 1], seed=2.5), ValueError, "seed 2.5 is not an integer"),
    ("random_shf_alteration N<1", lambda: random_shf_alteration(0, 3, [1, 1], seed=0), ValueError, "need N >= 1"),
    ("random_shf_alteration trials<1", lambda: random_shf_alteration(2, 3, [1, 1], seed=0, trials=0), ValueError, "trials >= 1"),
    ("random_shf_alteration lossy trials", lambda: random_shf_alteration(2, 3, [1, 1], seed=0, trials=2.5), ValueError, "trials 2.5 is not an integer"),
    ("random_shf_alteration text trials", lambda: random_shf_alteration(2, 3, [1, 1], seed=0, trials="2"), ValueError, "trials '2' is not an integer"),
    ("exact_capacity lossy budget", lambda: exact_capacity(2, 2, [1, 1], node_budget=2.5), ValueError, "node_budget 2.5 is not an integer"),
    ("exact_capacity inf budget", lambda: exact_capacity(2, 2, [1, 1], node_budget=float("inf")), ValueError, "node_budget inf is not an integer"),
    ("rainbow_free_extremal_search lossy budget", lambda: rainbow_free_extremal_search(3, 2, [3], node_budget=2.5), ValueError, "node_budget 2.5 is not an integer"),
    ("rainbow_free_extremal_search nan budget", lambda: rainbow_free_extremal_search(3, 2, [3], node_budget=float("nan")), ValueError, "node_budget nan is not an integer"),
    ("rainbow_free_extremal_search no parts", lambda: rainbow_free_extremal_search(0, 2, [3]), ValueError, "at least one part"),
    ("rainbow_free_extremal_search lossy parts", lambda: rainbow_free_extremal_search(3.5, 2, [3]), ValueError, "parts 3.5 is not an integer"),
    ("rainbow_free_extremal_search lossy part_size", lambda: rainbow_free_extremal_search(3, 2.5, [3]), ValueError, "part_size 2.5 is not an integer"),
    ("rainbow_free_extremal_search no lengths", lambda: rainbow_free_extremal_search(3, 2, []), ValueError, "at least one cycle length"),
    ("rainbow_free_extremal_search lossy length", lambda: rainbow_free_extremal_search(3, 2, [3.7]), ValueError, "cycle length 3.7 is not an integer"),
    ("rainbow_free_extremal_search text length", lambda: rainbow_free_extremal_search(3, 2, ["3"]), ValueError, "cycle length '3' is not an integer"),
    ("rainbow_free_extremal_search nan length", lambda: rainbow_free_extremal_search(3, 2, [float("nan")]), ValueError, "cycle length nan is not an integer"),
    # verification.py
    ("find_violation lossy weights", lambda: find_violation(BINARY, [1.7, 2]), ValueError, "weight 1.7 is not an integer"),
    ("row_separates lossy row", lambda: row_separates(BINARY, 0.5, [[0], [1]]), ValueError, "row 0.5 is not an integer"),
    ("row_separates lossy column", lambda: row_separates(BINARY, 0, [[0], [1.5]]), ValueError, "column 1.5 is not an integer"),
    ("row_separates integral column out of range", lambda: row_separates(BINARY, 0, [[0], [5.0]]), IndexError, "column 5 out of range"),
]


@pytest.mark.parametrize(
    "call, error, fragment", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS]
)
def test_rejects_bad_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


# An integral float passes the gate as the int it equals.
INTEGRAL = [
    ("trung_bound q", lambda: trung_bound(2.0, [1, 2]).params["q"], lambda: 2),
    ("equal_weight_max_rate t, w", lambda: equal_weight_max_rate(2.0, 3.0), lambda: equal_weight_max_rate(2, 3)),
    ("find_rainbow_cycle k", lambda: find_rainbow_cycle(TRIANGLE, 3.0), lambda: find_rainbow_cycle(TRIANGLE, 3)),
    ("row_separates row", lambda: row_separates(BINARY, 0.0, [[0], [1]]), lambda: row_separates(BINARY, 0, [[0], [1]])),
    ("row_separates column", lambda: row_separates(BINARY, 0, [[0], [1.0]]), lambda: row_separates(BINARY, 0, [[0], [1]])),
    ("Matrix.submatrix index", lambda: BINARY.submatrix([1.0]), lambda: BINARY.submatrix([1])),
    ("johnson_step length", lambda: johnson_step(5, 3, (2, 2), 2.0, 1).value, lambda: johnson_step(5, 3, (2, 2), 2, 1).value),
    ("identity_construction N", lambda: identity_construction(3.0, 1), lambda: identity_construction(3, 1)),
    ("reed_solomon_frameproof q", lambda: reed_solomon_frameproof(5.0, 3, 2), lambda: reed_solomon_frameproof(5, 3, 2)),
    ("cyclic_overlap_matrix k", lambda: cyclic_overlap_matrix(4.0, 3), lambda: cyclic_overlap_matrix(4, 3)),
    ("is_cff w", lambda: is_cff(COVERED, 1.0), lambda: is_cff(COVERED, 1)),
    ("group_rows a", lambda: group_rows(BINARY, 2.0), lambda: group_rows(BINARY, 2)),
    ("exact_capacity q", lambda: exact_capacity(2, 2.0, [1, 1]).q, lambda: 2),
    ("exact_capacity value", lambda: exact_capacity(2, 2.0, [1, 1]).value, lambda: exact_capacity(2, 2, [1, 1]).value),
    ("rainbow_free_extremal_search parts", lambda: rainbow_free_extremal_search(3.0, 2, [3]).hypergraph.parts, lambda: 3),
    ("random_shf_alteration q", lambda: random_shf_alteration(2, 3.0, [1, 1], seed=1), lambda: random_shf_alteration(2, 3, [1, 1], seed=1)),
]


@pytest.mark.parametrize("call, expected", [r[1:] for r in INTEGRAL], ids=[r[0] for r in INTEGRAL])
def test_integral_float_is_cast(call, expected):
    got, want = call(), expected()
    assert got == want and type(got) is type(want)
    if isinstance(got, Matrix):
        assert type(got.q) is int
