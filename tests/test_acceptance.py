"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

from sephash.bounds import (
    balanced_grouping_bound,
    best_upper_bound,
    equal_weight_max_rate,
    johnson_recursive_bound,
    max_separation_rate,
    prob_lower_bound,
    separation_rate,
    trung_bound,
)
from sephash.coverfree import (
    cff_derived,
    cff_is_shf_check,
    frameproof_threshold_bounds,
    is_cff,
    shf_to_cff_double,
)
from sephash.hypergraph import (
    cycle_to_violation,
    find_rainbow_cycle,
    matrix_to_hypergraph,
)
from sephash.matrix import Matrix
from sephash.search import (
    cyclic_overlap_matrix,
    exact_capacity,
    identity_construction,
    random_shf_alteration,
    reed_solomon_frameproof,
)
from sephash.verification import (
    extract_nonspecial_subfamily,
    find_violation,
    is_linear_shf,
    row_separates,
    special_columns,
)

from helpers import (
    naive_is_separating,
    random_linear_extension,
    random_matrix,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} [{label}]: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} [{label}]: PASS")


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence on 1000 random matrices"):
        rng = random.Random(101)
        start = time.perf_counter()
        disagreements = 0
        for _ in range(1000):
            m = random_matrix(
                rng, rng.randint(1, 3), rng.randint(1, 6), rng.randint(1, 3)
            )
            for weights in ([1, 1], [1, 2]):
                fast = find_violation(m, weights)
                slow = naive_is_separating(m, weights)
                if (fast is None) != slow:
                    disagreements += 1
        elapsed = time.perf_counter() - start
        assert disagreements == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_rainbow_cycles_force_violations():
    with criterion(2, "planted rainbow cycles convert to confirmed violations"):
        rng = random.Random(202)
        failures = 0
        for k, w, q, extra in ((4, 2, 7, 4), (6, 3, 8, 3)):
            for _ in range(200):
                base = cyclic_overlap_matrix(k, q)
                m = random_linear_extension(rng, base, extra)
                assert is_linear_shf(m)
                h = matrix_to_hypergraph(m)
                cycle = find_rainbow_cycle(h, k)
                if cycle is None:
                    failures += 1
                    continue
                witness = cycle_to_violation(h, cycle)
                sizes = tuple(len(p) for p in witness.parts)
                assert sizes == (w, w)
                for f in range(m.rows):
                    if row_separates(m, f, witness.parts):
                        failures += 1
        assert failures == 0


def test_criterion_03_greedy_deletion_bound_and_linearity():
    with criterion(3, "greedy special-column extraction: bound and linearity"):
        rng = random.Random(303)
        for _ in range(500):
            q = rng.randint(1, 5)
            n_cols = rng.randint(1, 6 * q)
            m = random_matrix(rng, 4, n_cols, q)
            survivor, deleted = extract_nonspecial_subfamily(m)
            assert len(deleted) <= 8 * q
            if survivor.cols:
                assert special_columns(survivor) == []
        # Verified {2,2}-separating corpus: exact-search witnesses plus
        # alteration outputs, all re-verified before use.
        corpus = [
            exact_capacity(4, 2, [2, 2]).witness,
            exact_capacity(4, 3, [2, 2]).witness,
        ]
        for seed in range(5):
            corpus.append(random_shf_alteration(4, 4, [2, 2], seed=seed))
        for m in corpus:
            assert find_violation(m, [2, 2]) is None
            survivor, deleted = extract_nonspecial_subfamily(m)
            assert len(deleted) <= 8 * m.q
            assert is_linear_shf(survivor)


def test_criterion_04_exact_capacities():
    with criterion(4, "exact capacities match the stated table"):
        # The entry for (3, 2, {1,2}) is 4, and the checks after the table
        # prove it with the unpruned oracle `naive_is_separating`, not the
        # library's: (a) the even-weight code {000, 011, 101, 110} is
        # {1,2}-separating (any two codewords agree in exactly one of the
        # three rows, so the two bad rows of a ({c},{a,b}) tuple never cover
        # all three); (b) none of the C(8,5) = 56 five-column subsets of
        # {0,1}^3 is, and a repeated column always fails (c against a pair
        # holding its copy), so no 5-column family exists.
        table = [
            (2, 2, (1, 1), 4),
            (1, 3, (1, 2), 3),
            (3, 2, (1, 2), 4),
            (2, 3, (1, 1), 9),
        ]
        computed = {}
        witnesses = {}
        for n_rows, q, weights, _ in table:
            start = time.perf_counter()
            result = exact_capacity(n_rows, q, weights)
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"({n_rows},{q},{weights}) took {elapsed:.1f}s"
            assert result.exact
            lower = prob_lower_bound(n_rows, q, weights).value
            upper = best_upper_bound(n_rows, q, weights).value
            assert lower <= result.value <= upper
            computed[(n_rows, q, weights)] = result.value
            witnesses[(n_rows, q, weights)] = result.witness
        mismatches = [
            (point, expected, computed[point])
            for *point_fields, expected in [t for t in table]
            for point in [tuple(point_fields)]
            if computed[point] != expected
        ]
        assert not mismatches, (
            "capacity table mismatch (advertised vs computed): "
            + "; ".join(
                f"C{p} advertised {e} but exhaustive search proves {c}"
                for p, e, c in mismatches
            )
        )

        def from_columns(cols):
            return Matrix(tuple(zip(*cols)), 2)

        binary = list(product((0, 1), repeat=3))
        even_weight = [c for c in binary if sum(c) % 2 == 0]
        assert naive_is_separating(from_columns(even_weight), (1, 2))
        five_subsets = list(combinations(binary, 5))
        assert len(five_subsets) == 56
        assert not any(
            naive_is_separating(from_columns(cols), (1, 2)) for cols in five_subsets
        )
        assert not any(
            naive_is_separating(from_columns((c, c, d)), (1, 2))
            for c in binary
            for d in binary
        )
        witness = witnesses[(3, 2, (1, 2))]
        assert witness.cols == 4
        assert naive_is_separating(witness, (1, 2))


def test_criterion_05_bound_engine_regression():
    with criterion(5, "bound engine regression values"):
        assert balanced_grouping_bound(3, 4, [1, 1, 1]).value == 20
        assert johnson_recursive_bound(4, 3, [2, 2]).value == 15
        # niu-cao's quoted 5 is listed but flagged unchecked-hypothesis; the
        # proven bound wins, and it caps the verified 9-column family.
        best = best_upper_bound(4, 3, [2, 2])
        assert (best.provenance, best.value, best.flags) == ("johnson-recursion", 15, ())
        found = exact_capacity(4, 3, (2, 2))
        assert found.exact and found.value == found.witness.cols == 9
        assert find_violation(found.witness, (2, 2)) is None
        # Linear bound and balanced grouping coincide at N = u - 1.
        weight_sets = []

        def gen(prefix, lo, room):
            if len(prefix) >= 2:
                weight_sets.append(tuple(prefix))
            for w in range(lo, room + 1):
                prefix.append(w)
                gen(prefix, w, room - w)
                prefix.pop()

        gen([], 1, 6)
        for weights in weight_sets:
            u = sum(weights)
            for q in range(2, 11):
                assert (
                    balanced_grouping_bound(u - 1, q, weights).value
                    == trung_bound(q, weights).value
                )


def test_criterion_06_simplex_maximum_certification():
    with criterion(6, "simplex maximizer certified against closed form and grid"):
        for t in range(2, 6):
            for w in range(2, 5):
                got = max_separation_rate([w] * t).value
                assert abs(got - equal_weight_max_rate(t, w)) <= 1e-6
        step = 0.01
        for t in (2, 3):
            for w in (2, 3, 4):
                weights = [w] * t
                got = max_separation_rate(weights).value
                best_grid = 0.0
                if t == 2:
                    for i in range(101):
                        p = (i * step, 1 - i * step)
                        best_grid = max(best_grid, separation_rate(weights, p))
                else:
                    for i in range(101):
                        for j in range(101 - i):
                            p = (i * step, j * step, 1 - (i + j) * step)
                            best_grid = max(best_grid, separation_rate(weights, p))
                assert got >= best_grid - 1e-9
        assert max_separation_rate([1, 2]).value == 1.0


def _augmented_identity(rng, n, extra_rows):
    rows = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    for _ in range(extra_rows):
        rows.append(tuple(rng.randrange(2) for _ in range(n)))
    rng.shuffle(rows)
    return Matrix(tuple(rows), 2)


def test_criterion_07_cover_free_transforms():
    with criterion(7, "cover-free <-> separating transforms on 100 + 100 families"):
        rng = random.Random(707)
        # Forward: verified cover-free families satisfy the separation check.
        cffs = []
        while len(cffs) < 100:
            n = rng.randint(3, 6)
            if rng.random() < 0.5:
                w = rng.randint(1, n - 1)
                m = _augmented_identity(rng, n, rng.randint(0, 3))
            else:
                w = rng.randint(1, 2)
                m = random_matrix(rng, rng.randint(3, 6), n, 2)
                if is_cff(m, w) is not None:
                    continue
            assert is_cff(m, w) is None
            cffs.append((m, w))
        for m, w in cffs:
            assert cff_is_shf_check(m, w)
        # Derived families drop one cover-free order.
        derived_checked = 0
        for m, w in cffs:
            if w >= 2 and m.cols >= 2:
                out = cff_derived(m, rng.randrange(m.cols), w)
                assert is_cff(out, w - 1) is None
                derived_checked += 1
        assert derived_checked > 0
        # Backward: verified binary {1,w} families double into cover-free.
        shfs = []
        while len(shfs) < 100:
            if rng.random() < 0.5:
                n = rng.randint(3, 6)
                w = rng.randint(1, n - 1)
                m = _augmented_identity(rng, n, rng.randint(0, 2))
            else:
                w = rng.randint(1, 2)
                m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 5), 2)
            if find_violation(m, [1, w]) is not None:
                continue
            shfs.append((m, w))
        for m, w in shfs:
            doubled = shf_to_cff_double(m, w)
            assert doubled.rows == 2 * m.rows
            assert is_cff(doubled, w) is None


def test_criterion_08_constructions_self_certify():
    with criterion(8, "constructions verified; evaluation-code size law exact"):
        for n_rows in range(2, 7):
            for w in range(1, n_rows):
                m = identity_construction(n_rows, w)
                assert find_violation(m, [1, w]) is None
        rs = reed_solomon_frameproof(3, 3, 2)
        assert rs.cols == 9
        assert find_violation(rs, [1, 2]) is None
        rs = reed_solomon_frameproof(5, 5, 4)
        assert rs.cols == 25
        assert find_violation(rs, [1, 4]) is None
        for q, n_rows, w in ((3, 3, 2), (5, 5, 4), (5, 4, 2), (7, 2, 2)):
            k = -(-n_rows // w)
            assert reed_solomon_frameproof(q, n_rows, w).cols == q**k


def test_criterion_09_binary_frameproof_threshold_consistency():
    with criterion(9, "threshold bound value and binary {1,3} capacity ladder"):
        start = time.perf_counter()
        assert frameproof_threshold_bounds(12).lower == 87
        # Below the threshold the capacity sticks at N.  The ladder starts at
        # N = 3 = u - 1: for N <= 2 the vacuous regime already gives 3 > N.
        for n_rows in range(3, 8):
            result = exact_capacity(n_rows, 2, [1, 3])
            assert result.exact
            assert result.value == n_rows
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_10_separation_rate_law_of_large_numbers():
    with criterion(10, "empirical row separation rate matches the polynomial"):
        rng = random.Random(1010)
        n = 200
        fractions = (0.3, 0.7)
        counts = (60, 140)
        rows = []
        for _ in range(4):
            row = [0] * counts[0] + [1] * counts[1]
            rng.shuffle(row)
            rows.append(tuple(row))
        m = Matrix(tuple(rows), 2)
        predicted = separation_rate([2, 2], fractions)
        hits = 0
        samples = 10_000
        for _ in range(samples):
            f = rng.randrange(m.rows)
            c1 = rng.randrange(n)
            c2 = rng.randrange(n - 1)
            if c2 >= c1:
                c2 += 1
            if row_separates(m, f, ((c1,), (c2,))):
                hits += 1
        empirical = hits / samples
        assert abs(empirical - predicted) / predicted < 0.10
