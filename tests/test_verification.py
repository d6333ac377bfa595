"""Tests for the separation oracle and the greedy extraction algorithms."""

import hashlib
import json
import random
import tracemalloc
from itertools import combinations
from operator import eq

import pytest
from hypothesis import example, given, settings, strategies as st

from sephash import verification
from sephash.hypergraph import PartiteHypergraph, is_linear_hypergraph, matrix_to_hypergraph
from sephash.matrix import Matrix, write_matrix
from sephash.search import (
    _has_private_rows,
    cyclic_overlap_matrix,
    exact_capacity,
    identity_construction,
    reed_solomon_frameproof,
)
from sephash.verification import (
    PreconditionError,
    SpecialColumnReport,
    ViolationWitness,
    extract_linear_subfamily,
    extract_nonspecial_subfamily,
    find_violation,
    is_linear_shf,
    row_separates,
    special_columns,
)

from helpers import (
    naive_is_separating,
    naive_special_columns,
    random_matrix,
    reference_find_violation,
    reference_first_pair_over,
    reference_has_private_rows,
    reference_nonspecial_subfamily,
)


@pytest.fixture
def chain4():
    """4x4 closed-chain pattern: linear but not {2,2}-separating."""
    return cyclic_overlap_matrix(4, 3)


class TestRowSeparates:
    def test_distinct_symbols(self):
        m = Matrix(((0, 1),), 2)
        assert row_separates(m, 0, [(0,), (1,)])

    def test_shared_symbol(self):
        m = Matrix(((0, 0),), 2)
        assert not row_separates(m, 0, [(0,), (1,)])

    def test_chain_pattern_never_separated(self, chain4):
        for f in range(4):
            assert not row_separates(chain4, f, [(0, 2), (1, 3)])

    def test_rejects_overlap(self):
        m = Matrix(((0, 1),), 2)
        with pytest.raises(ValueError, match="overlap"):
            row_separates(m, 0, [(0,), (0,)])

    def test_rejects_bad_indices(self):
        m = Matrix(((0, 1),), 2)
        with pytest.raises(IndexError):
            row_separates(m, 0, [(0,), (5,)])
        with pytest.raises(IndexError):
            row_separates(m, 3, [(0,), (1,)])


class TestFindViolation:
    def test_identity_is_frameproof(self):
        m = identity_construction(4, 3)
        assert find_violation(m, [1, 3]) is None

    def test_equal_columns_first_witness(self):
        m = Matrix(((0, 1, 0), (1, 0, 1)), 2)
        w = find_violation(m, [1, 1])
        assert w == ViolationWitness(((0,), (2,)))

    def test_chain_pattern_violates_22(self, chain4):
        w = find_violation(chain4, [2, 2])
        assert w == ViolationWitness(((0, 2), (1, 3)))

    def test_vacuous_when_too_few_columns(self):
        m = Matrix(((0, 0), (0, 0)), 2)
        assert find_violation(m, [1, 2]) is None

    def test_too_few_columns_skip_the_search(self, monkeypatch):
        # Without the early exit the search tries every way to fill the
        # leading parts before it finds nothing, exponentially many.
        def search_ran(*args):
            raise AssertionError("the search ran on fewer than u columns")

        monkeypatch.setattr(verification, "_first_cover", search_ran)
        assert find_violation(Matrix(((0,) * 13,), 2), [2] * 7) is None

    # P*A = sum_{i<j} wi*wj times the most rows two columns agree in.
    @pytest.mark.parametrize(
        "code,weights",
        [((5, 5, 2), (1, 2)), ((5, 5, 3), (2, 2)), ((7, 4, 2), (1, 1, 1))],
        ids=["RS(5,5,2) {1,2} P*A=N-1", "RS(5,5,3) {2,2}", "RS(7,4,2) {1,1,1}"],
    )
    def test_distance_certificate_skips_the_search(self, monkeypatch, code, weights):
        def search_ran(*args):
            raise AssertionError("the search ran on a certified input")

        m = reed_solomon_frameproof(*code)
        monkeypatch.setattr(verification, "_first_cover", search_ran)
        assert find_violation(m, weights) is None

    def test_one_part_type_is_vacuous(self, monkeypatch):
        def search_ran(*args):
            raise AssertionError("the search ran on a one-part type")

        monkeypatch.setattr(verification, "_first_cover", search_ran)
        assert find_violation(Matrix(((0, 0, 0), (1, 1, 1)), 2), [2]) is None

    def test_equal_size_run_ends_dead_frames(self, monkeypatch):
        # 40 singletons on 40 columns make one tuple, which the all-distinct
        # row separates; the all-zero row defeats the distance certificate.
        # Without the run test about 2**39 prefixes reach a cover search.
        searched = []

        def first_cover(*args):
            searched.append(args)
            if len(searched) > 1:
                raise AssertionError("a dead prefix reached the cover search")
            return real(*args)

        real = verification._first_cover
        monkeypatch.setattr(verification, "_first_cover", first_cover)
        m = Matrix((tuple(range(40)), (0,) * 40), 40)
        assert find_violation(m, [1] * 40) is None
        assert len(searched) == 1

    def test_witness_sound(self, chain4):
        w = find_violation(chain4, [2, 2])
        for f in range(chain4.rows):
            assert not row_separates(chain4, f, w.parts)

    def test_witness_json(self, chain4):
        w = find_violation(chain4, [2, 2])
        assert w.as_json_dict(chain4.rows) == {
            "parts": [[0, 2], [1, 3]],
            "checked_rows": 4,
        }

    def test_agrees_with_naive_oracle_sample(self):
        rng = random.Random(7)
        for _ in range(120):
            n_rows = rng.randint(1, 3)
            n_cols = rng.randint(0, 6)
            q = rng.randint(1, 3)
            if n_cols == 0:
                continue
            m = random_matrix(rng, n_rows, n_cols, q)
            for weights in ([1, 1], [1, 2]):
                got = find_violation(m, weights)
                assert (got is None) == naive_is_separating(m, weights)
                if got is not None:
                    assert not any(
                        row_separates(m, f, got.parts) for f in range(m.rows)
                    )

    def test_monotone_under_added_rows(self):
        rng = random.Random(11)
        m = identity_construction(5, 2)
        for _ in range(10):
            extra = tuple(rng.randrange(2) for _ in range(m.cols))
            m = Matrix(m.entries + (extra,), m.q)
            assert find_violation(m, [1, 2]) is None


def late_collision_rs552():
    """RS(5,5,2) with column 124 rewritten in the two rows where neither 56
    nor 58 shares its symbol, so no row separates {124} from {56, 58}.  The
    first certificate in canonical order follows 152,764 of the 953,250
    canonical tuples."""
    rows = [list(r) for r in reed_solomon_frameproof(5, 5, 2).entries]
    for r in rows:
        if r[124] not in (r[56], r[58]):
            r[124] = r[56]
    return Matrix(tuple(map(tuple, rows)), 5)


# First certificates in canonical order, recorded with the full-enumeration
# oracle (tests/helpers.reference_find_violation) that the kernel replaced.
PINNED_WITNESSES = [
    ("RS(11,4,2)", lambda: reed_solomon_frameproof(11, 4, 2), (2, 2), ((0, 11), (1, 43))),
    ("RS(5,5,2) late collision", late_collision_rs552, (1, 2), ((20,), (1, 124))),
    ("cyclic overlap 6x6 q=5", lambda: cyclic_overlap_matrix(6, 5), (3, 3), ((0, 2, 4), (1, 3, 5))),
    ("RS(5,3,2)", lambda: reed_solomon_frameproof(5, 3, 2), (2, 2), ((0, 1), (2, 14))),
    # P*A = 3*1 = N, one short of the distance certificate: the search decides.
    ("RS(5,3,2)", lambda: reed_solomon_frameproof(5, 3, 2), (1, 1, 1), ((0,), (1,), (14,))),
    ("RS(5,5,3)", lambda: reed_solomon_frameproof(5, 5, 3), (1, 1, 2), ((0,), (1,), (7, 9))),
    ("RS(7,4,2)", lambda: reed_solomon_frameproof(7, 4, 2), (1, 3), None),
]


@pytest.mark.parametrize(
    "name,build,weights,parts", PINNED_WITNESSES, ids=[f"{p[0]} {p[2]}" for p in PINNED_WITNESSES]
)
def test_pinned_witness(name, build, weights, parts):
    got = find_violation(build(), weights)
    assert (got and got.parts) == parts


@st.composite
def small_matrices(draw, min_q=1, max_q=4):
    q = draw(st.integers(min_q, max_q))
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(0, 11))
    cells = st.integers(0, q - 1)
    return Matrix(tuple(tuple(draw(cells) for _ in range(n_cols)) for _ in range(n_rows)), q)


@settings(max_examples=300, deadline=None)
@given(
    m=small_matrices(),
    weights=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 1, 1), (3, 3)]),
)
@example(m=Matrix(((0, 0, 0),), 1), weights=(2, 2))
@example(m=Matrix(((0, 0, 0, 0), (0, 0, 0, 0)), 1), weights=(1, 1, 2))
@example(m=Matrix(((), ()), 2), weights=(1, 1))
# Distance-certificate boundaries: P*A = N-1 is certified, P*A = N is not.
@example(m=Matrix(((0, 1, 1), (0, 0, 1)), 2), weights=(1, 1))
@example(m=Matrix(((0, 0, 1), (0, 1, 0)), 2), weights=(1, 2))
@example(m=Matrix(((0, 0, 1, 2), (0, 1, 2, 2)), 3), weights=(1, 2))
@example(m=cyclic_overlap_matrix(4, 3), weights=(2, 2))
def test_find_violation_matches_reference_witness(m, weights):
    assert find_violation(m, weights) == reference_find_violation(m, weights)


# With q up to 40 most (row, symbol) classes are singletons.
@settings(max_examples=200, deadline=None)
@given(
    m=small_matrices(min_q=5, max_q=40),
    weights=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2), (3, 3)]),
)
@example(m=Matrix(((0, 1, 2, 3, 4, 0), (39, 38, 37, 36, 35, 39)), 40), weights=(1, 1))
@example(m=Matrix(((0, 1, 2, 3), (7, 7, 8, 9), (10, 11, 10, 12)), 13), weights=(2, 2))
# The first six columns of RS(5,5,3): P*A = 4*1 = N-1, certified.
@example(
    m=Matrix(tuple(r[:6] for r in reed_solomon_frameproof(5, 5, 3).entries), 5),
    weights=(2, 2),
)
def test_find_violation_matches_reference_witness_large_alphabet(m, weights):
    assert find_violation(m, weights) == reference_find_violation(m, weights)


def test_distance_scan_keeps_one_agreement_row():
    # 2,048 distinct one-row columns: no two agree, so the scan certifies.
    # It keeps column 0's agreement row (2,048 ints, well under 1 MiB) and
    # a column mask per symbol, each empty here (a class of one column);
    # an agreement row per column would cost about 32 MiB.
    m = Matrix((tuple(range(2048)),), 2048)
    tracemalloc.start()
    try:
        assert find_violation(m, [2, 2]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestLinearity:
    def test_identity_linear(self):
        assert is_linear_shf(identity_construction(3, 1))

    def test_duplicate_column_not_linear(self):
        m = Matrix(((0, 0), (1, 1)), 2)
        assert not is_linear_shf(m)

    def test_chain_pattern_linear(self, chain4):
        assert is_linear_shf(chain4)


class TestSpecialColumns:
    def test_single_column_special(self):
        m = Matrix(((0,), (1,)), 2)
        reports = special_columns(m)
        assert reports == [SpecialColumnReport(0, 0, 0)]

    def test_permutation_rows_all_special(self):
        m = Matrix(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 3)
        assert [r.column for r in special_columns(m)] == [0, 1, 2]
        assert all(r.sharers == 0 for r in special_columns(m))

    def test_three_identical_columns_not_special(self):
        col = (0, 1, 0, 1)
        m = Matrix(tuple((s, s, s) for s in col), 2)
        assert special_columns(m) == []

    def test_matches_naive_scan(self):
        rng = random.Random(13)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(0, 15), rng.randint(1, 4))
            got = [(r.column, r.row, r.sharers) for r in special_columns(m)]
            assert got == naive_special_columns(m)

    def test_report_rejects_bad_sharer_count(self):
        with pytest.raises(ValueError):
            SpecialColumnReport(0, 0, 2)


class TestGreedyExtraction:
    def test_identity_fully_deleted(self):
        m = Matrix(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 3)
        survivor, deleted = extract_nonspecial_subfamily(m)
        assert survivor.cols == 0
        assert deleted == [0, 1, 2]

    def test_dense_matrix_untouched(self):
        # Four copies of each column: every symbol shared by >= 3 others.
        base = [(0, 1), (1, 0), (0, 0)]
        cols = [c for c in base for _ in range(4)]
        m = Matrix(tuple(zip(*cols)), 2)
        survivor, deleted = extract_nonspecial_subfamily(m)
        assert deleted == []
        assert survivor == m

    def test_deletion_bound_2nq(self):
        rng = random.Random(3)
        for _ in range(60):
            n_rows = rng.randint(1, 4)
            n_cols = rng.randint(1, 30)
            q = rng.randint(1, 3)
            m = random_matrix(rng, n_rows, n_cols, q)
            _, deleted = extract_nonspecial_subfamily(m)
            assert len(deleted) <= 2 * n_rows * q

    def test_survivor_has_no_special_columns(self):
        rng = random.Random(5)
        for _ in range(40):
            m = random_matrix(rng, 4, rng.randint(1, 25), 3)
            survivor, _ = extract_nonspecial_subfamily(m)
            if survivor.cols:
                assert special_columns(survivor) == []

    def test_survivor_sharer_floor(self):
        # Every surviving coordinate is shared by at least two other columns.
        rng = random.Random(9)
        for _ in range(30):
            m = random_matrix(rng, 3, rng.randint(1, 24), 2)
            survivor, _ = extract_nonspecial_subfamily(m)
            for x in range(survivor.cols):
                for i in range(survivor.rows):
                    sym = survivor.entries[i][x]
                    sharers = sum(
                        1
                        for y in range(survivor.cols)
                        if y != x and survivor.entries[i][y] == sym
                    )
                    assert sharers >= 2


@settings(max_examples=300, deadline=None)
@given(m=small_matrices(max_q=5))
@example(m=Matrix(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 3))
# Deletes 2, then 1 (special only once 2 is gone), then 3; 0, 4, 5 survive.
@example(m=Matrix(((1, 0, 0, 0, 1, 1), (0, 0, 1, 0, 0, 0)), 2))
def test_greedy_matches_definitional_reference(m):
    survivor, deleted = extract_nonspecial_subfamily(m)
    assert (survivor, deleted) == reference_nonspecial_subfamily(m)


class TestExtractLinearSubfamily:
    def test_rejects_wrong_row_count(self):
        with pytest.raises(PreconditionError):
            extract_linear_subfamily(Matrix(((0, 1),), 2))

    def test_chain_pattern_trips_precondition(self, chain4):
        # The chain pattern is its own nonspecial core and is linear, so we
        # thicken it: three copies of each chain column produce a nonspecial
        # family that is certifiably non-linear, exposing the violated
        # {2,2} precondition.
        cols = [c for c in chain4.columns() for _ in range(3)]
        m = Matrix(tuple(zip(*cols)), chain4.q)
        with pytest.raises(PreconditionError) as err:
            extract_linear_subfamily(m)
        assert err.value.pair == (0, 1)
        assert str(err.value) == (
            "input is not {2,2}-separating: survivor columns 0 and 1 agree in 4 rows"
        )

    def test_reports_first_nonlinear_pair(self):
        rng = random.Random(17)
        raised = 0
        for _ in range(150):
            m = random_matrix(rng, 4, rng.randint(1, 30), rng.randint(2, 4))
            survivor, _ = extract_nonspecial_subfamily(m)
            cols = survivor.columns()
            first = next(
                (
                    (i, j)
                    for i in range(len(cols))
                    for j in range(i + 1, len(cols))
                    if sum(a == b for a, b in zip(cols[i], cols[j])) > 1
                ),
                None,
            )
            if first is None:
                assert extract_linear_subfamily(m) == survivor
                continue
            with pytest.raises(PreconditionError) as err:
                extract_linear_subfamily(m)
            assert err.value.pair == first
            raised += 1
        assert raised > 0

    def test_distinct_symbol_columns_survive(self):
        # Columns j -> constant j: any two columns agree in no row.
        q = 5
        m = Matrix(tuple(tuple(range(q)) for _ in range(4)), q)
        assert find_violation(m, [2, 2]) is None
        out = extract_linear_subfamily(m)
        assert is_linear_shf(out)

    def test_empty_matrix_trivially_linear(self):
        m = Matrix(((), (), (), ()), 3)
        out = extract_linear_subfamily(m)
        assert out.cols == 0

    def test_verified_shf_yields_linear_survivor(self):
        # Constant-column family over q symbols is {2,2}-separating for q >= 4.
        q = 4
        m = Matrix(tuple(tuple(range(q)) for _ in range(4)), q)
        assert find_violation(m, [2, 2]) is None
        assert is_linear_shf(extract_linear_subfamily(m))


def test_agreement_kernel_matches_pairwise_reference():
    # Every caller of the column-agreement kernel against the entry-by-entry
    # pair loop (and the private-row certificate against a per-row Counter),
    # on random matrices with N 1-6, n 0-12 and q 1-5, plus the edge cases.
    rng = random.Random(41)
    cases = [Matrix(((),) * 4, 2), Matrix(((0,),) * 4, 1), Matrix(((0, 1, 1),), 2)]
    cases += [
        random_matrix(rng, rng.randint(1, 6), rng.randint(0, 12), rng.randint(1, 5))
        for _ in range(1500)
    ]
    cases += [random_matrix(rng, 4, rng.randint(0, 12), rng.randint(1, 5)) for _ in range(500)]
    assert is_linear_hypergraph(PartiteHypergraph(3, 2, ()))
    nonlinear = private = raised = 0
    for m in cases:
        pair = reference_first_pair_over(m.columns())
        assert is_linear_shf(m) == (pair is None)
        assert is_linear_hypergraph(matrix_to_hypergraph(m)) == (pair is None)
        assert _has_private_rows(m) == reference_has_private_rows(m)
        private += _has_private_rows(m)
        for limit in range(m.rows + 1):
            got = verification._Agreement(m).first_pair_over(limit)
            assert got == reference_first_pair_over(m.columns(), limit)
        nonlinear += pair is not None
        if m.rows != 4:
            continue
        survivor, _ = extract_nonspecial_subfamily(m)
        pair = reference_first_pair_over(survivor.columns())
        if pair is None:
            assert extract_linear_subfamily(m) == survivor
            continue
        with pytest.raises(PreconditionError) as err:
            extract_linear_subfamily(m)
        assert err.value.pair == pair[:2]
        assert str(err.value) == (
            "input is not {{2,2}}-separating: survivor columns "
            "{} and {} agree in {} rows".format(*pair)
        )
        raised += 1
    assert nonlinear > 500 and 200 < private < 1500 and raised > 50


def test_agreement_ladder_matches_pairwise_reference_on_wide_matrices():
    # first_pair_over at every limit on matrices wider than one machine
    # word (n 65-200, N 7-16): random rows mixed with all-distinct rows
    # (permutations of the n columns, as at q = n), some with a planted
    # duplicate column so that the first pair lies at column 0, in the
    # middle or at (n-2, n-1).  The reference is the pair loop, run once
    # per matrix.
    rng = random.Random(30)
    at_zero = at_end = 0
    for _ in range(40):
        n_rows, n = rng.randint(7, 16), rng.randint(65, 200)
        q = rng.choice([n, rng.randint(2, 12)])
        rows = []
        for _ in range(n_rows):
            if q == n and rng.random() < 0.5:
                rows.append(rng.sample(range(n), n))
            else:
                rows.append([rng.randrange(q) for _ in range(n)])
        cols = [list(c) for c in zip(*rows)]
        plant = rng.choice([None, (0, rng.randrange(1, n)), (n - 2, n - 1), tuple(sorted(rng.sample(range(n), 2)))])
        if plant is not None:
            cols[plant[1]] = cols[plant[0]]
        m = Matrix(tuple(zip(*cols)), q)
        agree = [(i, j, sum(map(eq, a, b))) for (i, a), (j, b) in combinations(enumerate(m.columns()), 2)]
        for limit in range(n_rows + 1):
            want = next((p for p in agree if p[2] > limit), None)
            assert verification._Agreement(m).first_pair_over(limit) == want, (n_rows, n, q, plant, limit)
            at_zero += want is not None and want[0] == 0
            at_end += want is not None and want[:2] == (n - 2, n - 1)
    assert at_zero > 20 and at_end > 5


def test_wide_certificates_run_on_column_masks():
    # Pairs past column 0 on one-row families of thousands of columns: the
    # capacity witness's final certificate and a planted duplicate.
    r = exact_capacity(1, 5000, (1, 1))
    assert (r.value, r.exact) == (5000, True)
    row = list(range(4000))
    row[3999] = row[2]
    m = Matrix((tuple(row),), 4000)
    pair = reference_first_pair_over(m.columns(), 0)
    assert pair == (2, 3999, 1)
    assert verification._Agreement(m).first_pair_over(0) == pair
    assert find_violation(m, (1, 1)) == ViolationWitness(((2,), (3999,)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_find_violation_matches_naive_property(data):
    q = data.draw(st.integers(1, 3))
    n_rows = data.draw(st.integers(1, 3))
    n_cols = data.draw(st.integers(1, 5))
    entries = tuple(
        tuple(data.draw(st.integers(0, q - 1)) for _ in range(n_cols))
        for _ in range(n_rows)
    )
    m = Matrix(entries, q)
    weights = data.draw(st.sampled_from([[1, 1], [1, 2], [2, 2]]))
    assert (find_violation(m, weights) is None) == naive_is_separating(m, weights)


def test_grouping_rows_preserves_separation():
    # A family that separates with aN short rows still separates after the
    # rows are stacked into length-a symbols.
    from sephash.matrix import group_rows

    rng = random.Random(29)
    checked = 0
    while checked < 25:
        m = random_matrix(rng, 4, rng.randint(2, 5), rng.randint(2, 3))
        if find_violation(m, [1, 2]) is None and m.cols >= 3:
            grouped = group_rows(m, 2)
            assert find_violation(grouped, [1, 2]) is None
            checked += 1


def _oracle_sweep_corpus():
    """Seeded matrices with N 1-12, n 0-150 and q 1-12 for the byte sweep.

    Random matrices (some with a planted duplicate column, so a pair also
    starts late or at (n-2, n-1)), 4-row ones for the linear extractor,
    and column-permuted Reed-Solomon, identity and cyclic-overlap codes,
    which pass the distance certificate or fail it only at its threshold.
    """
    rng = random.Random(30)
    cases = [Matrix(((),), 1), Matrix(((0,),) * 12, 1), Matrix(((0, 0),), 1), Matrix(((),) * 4, 3)]
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 12), rng.randint(0, 150), rng.randint(1, 12))
        if m.cols >= 2 and rng.random() < 0.3:
            cols = m.columns()
            a, b = sorted(rng.sample(range(m.cols), 2)) if rng.random() < 0.5 else (m.cols - 2, m.cols - 1)
            cols[b] = cols[a]
            m = Matrix(tuple(zip(*cols)), m.q)
        cases.append(m)
    cases += [random_matrix(rng, 4, rng.randint(0, 150), rng.randint(1, 12)) for _ in range(60)]
    codes = [reed_solomon_frameproof(*args) for args in ((5, 5, 2), (7, 4, 2), (11, 4, 2), (5, 3, 2), (3, 3, 2), (7, 7, 3))]
    codes += [identity_construction(12, 3), cyclic_overlap_matrix(12, 11), cyclic_overlap_matrix(4, 3)]
    for code in codes:
        cols = code.columns()[:150]
        rng.shuffle(cols)
        cases.append(Matrix(tuple(zip(*cols)), code.q))
    return cases


@pytest.mark.slow
def test_oracle_sweep_is_byte_identical():
    """Every agreement-kernel output on a seeded corpus, as recorded before
    the distance scan counted agreement on column masks.

    Per matrix, one JSON line (keys sorted), hashed in order: the
    find_violation witness JSON for six types, is_linear_shf,
    is_linear_hypergraph, first_pair_over at every limit 0..N and, on
    4-row inputs, extract_linear_subfamily's survivor text or message.
    """
    types = [(1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 1, 2)]
    digest = hashlib.sha256()
    for m in _oracle_sweep_corpus():
        d = {
            "witnesses": [
                None if w is None else w.as_json_dict(m.rows)
                for w in (find_violation(m, t) for t in types)
            ],
            "linear": is_linear_shf(m),
            "hypergraph_linear": is_linear_hypergraph(matrix_to_hypergraph(m)),
            "pairs": [verification._Agreement(m).first_pair_over(limit) for limit in range(m.rows + 1)],
        }
        if m.rows == 4:
            try:
                d["extract"] = write_matrix(extract_linear_subfamily(m))
            except PreconditionError as err:
                d["extract"] = [str(err), list(err.pair)]
        digest.update((json.dumps(d, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == "0b820ca6abf7bd8ff4e8c87f226adf36182cbbdd4cb3f8049a24ce8306e8a191"
