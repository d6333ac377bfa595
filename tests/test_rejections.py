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
    blackburn_bound,
    equal_weight_max_rate,
    grouping_composition_bound,
    johnson_recursive_bound,
    perfect_hash_upper_bound,
    prob_lower_bound,
    separation_rate,
    small_alphabet_bound,
    trung_bound,
)
from sephash.coverfree import cff_derived, cff_is_shf_check, is_cff, shf_to_cff_double
from sephash.hypergraph import PartiteHypergraph
from sephash.matrix import Matrix, SeparationType, group_rows
from sephash.search import (
    cyclic_overlap_matrix,
    exact_capacity,
    identity_construction,
    rainbow_free_extremal_search,
    random_shf_alteration,
    reed_solomon_frameproof,
)
from sephash.verification import PreconditionError, find_violation

BINARY = Matrix(((1, 0), (0, 1)), 2)
# Both members are 1 on every row, so each covers the other.
COVERED = Matrix(((1, 1),), 2)
# Two members are vacuously 2-cover-free, and member 0 is 1 on every row.
FULL_MEMBER = Matrix(((1, 0), (1, 0)), 2)

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
    ("separation_rate point length", lambda: separation_rate([1, 2], [1.0]), ValueError, "point length"),
    ("equal_weight_max_rate t<2", lambda: equal_weight_max_rate(1, 2), ValueError, "need t >= 2"),
    ("equal_weight_max_rate w<2", lambda: equal_weight_max_rate(2, 1), ValueError, "need w >= 2"),
    ("small_alphabet_bound t<2", lambda: small_alphabet_bound(3, 1, [2]), ValueError, "need t >= 2"),
    ("applicable_upper_bounds t<2", lambda: applicable_upper_bounds(3, 2, [2]), ValueError, "at least two parts"),
    # coverfree.py
    ("is_cff w<1", lambda: is_cff(BINARY, 0), ValueError, "w must be positive"),
    ("cff_derived w<2", lambda: cff_derived(BINARY, 0, 1), PreconditionError, "need w >= 2"),
    ("cff_derived full member", lambda: cff_derived(FULL_MEMBER, 0, 2), PreconditionError, "covers every row"),
    ("cff_is_shf_check not cover-free", lambda: cff_is_shf_check(COVERED, 1), PreconditionError, "not w-cover-free"),
    ("shf_to_cff_double w<1", lambda: shf_to_cff_double(BINARY, 0), ValueError, "w must be positive"),
    # hypergraph.py
    ("PartiteHypergraph no parts", lambda: PartiteHypergraph(0, 2, ()), ValueError, "at least one part"),
    ("PartiteHypergraph float symbol", lambda: PartiteHypergraph(2, 2, ((1.0, 0),)), ValueError, "not an int"),
    # matrix.py
    ("Matrix q<1", lambda: Matrix(((0,),), 0), ValueError, "alphabet size must be >= 1"),
    ("Matrix.submatrix index", lambda: BINARY.submatrix([2]), IndexError, "column index 2 out of range"),
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
    # search.py
    ("identity_construction N<2", lambda: identity_construction(1, 1), PreconditionError, "at least 2 rows"),
    ("reed_solomon_frameproof composite q", lambda: reed_solomon_frameproof(4, 2, 2), PreconditionError, "4 is not prime"),
    ("reed_solomon_frameproof w<1", lambda: reed_solomon_frameproof(5, 3, 0), PreconditionError, "w must be positive"),
    ("cyclic_overlap_matrix k<3", lambda: cyclic_overlap_matrix(2, 5), ValueError, "need k >= 3"),
    ("exact_capacity t<2", lambda: exact_capacity(2, 2, [2]), ValueError, "at least two parts"),
    ("exact_capacity N<1", lambda: exact_capacity(0, 2, [1, 1]), ValueError, "need N >= 1"),
    ("random_shf_alteration N<1", lambda: random_shf_alteration(0, 3, [1, 1], seed=0), ValueError, "need N >= 1"),
    ("random_shf_alteration trials<1", lambda: random_shf_alteration(2, 3, [1, 1], seed=0, trials=0), ValueError, "trials >= 1"),
    ("rainbow_free_extremal_search no parts", lambda: rainbow_free_extremal_search(0, 2, [3]), ValueError, "at least one part"),
    ("rainbow_free_extremal_search no lengths", lambda: rainbow_free_extremal_search(3, 2, []), ValueError, "at least one cycle length"),
    # verification.py
    ("find_violation lossy weights", lambda: find_violation(BINARY, [1.7, 2]), ValueError, "weight 1.7 is not an integer"),
]


@pytest.mark.parametrize(
    "call, error, fragment", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS]
)
def test_rejects_bad_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
