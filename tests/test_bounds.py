"""Tests for the capacity bound engine and the simplex optimizer."""

import json
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sephash.bounds import (
    FLAG_ASYMPTOTIC,
    FLAG_BELOW_VACUOUS,
    FLAG_LOWER,
    FLAG_MONOTONE_EXT,
    FLAG_UNCHECKED,
    INF,
    PROV_JOHNSON,
    PROV_NIU_CAO,
    PROV_SMALL_ALPHABET,
    _ascend,
    _johnson_value,
    _log_miss,
    _rate_forward,
    _rate_grad,
    all_distinct_probability,
    applicable_upper_bounds,
    balanced_grouping_bound,
    best_upper_bound,
    blackburn_bound,
    equal_weight_max_rate,
    grouping_composition_bound,
    johnson_recursive_bound,
    johnson_step,
    max_separation_rate,
    niu_cao_bound,
    perfect_hash_upper_bound,
    prob_lower_bound,
    separation_rate,
    small_alphabet_bound,
    trung_bound,
    vacuous_lower_bound,
)
from helpers import reference_johnson_value, reference_rate_grad, reference_rate_value


def weight_multisets(max_u, min_t=2):
    """All ascending weight tuples with at least min_t parts and sum <= max_u."""
    out = []

    def rec(prefix, lo, remaining):
        if len(prefix) >= min_t:
            out.append(tuple(prefix))
        for w in range(lo, remaining + 1):
            prefix.append(w)
            rec(prefix, w, remaining - w)
            prefix.pop()

    rec([], 1, max_u)
    return [w for w in out if sum(w) <= max_u]


class TestDistinctProbability:
    def test_values(self):
        assert all_distinct_probability(2, 2) == Fraction(1, 2)
        assert all_distinct_probability(3, 2) == Fraction(2, 3)
        for q in range(1, 8):
            assert all_distinct_probability(q, 1) == 1

    def test_zero_beyond_alphabet(self):
        assert all_distinct_probability(3, 4) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            all_distinct_probability(3, 0)


class TestLinearBounds:
    def test_blackburn(self):
        assert blackburn_bound(5, [2, 2]).value == 20
        assert blackburn_bound(5, [1, 1]).value == 5
        assert blackburn_bound(7, [1, 1, 1]).value == 14

    def test_trung(self):
        assert trung_bound(5, [2, 2]).value == 15
        assert trung_bound(3, [1, 2]).value == 6
        assert trung_bound(2, [1, 1]).value == 2

    def test_trung_never_above_blackburn(self):
        for w in weight_multisets(6):
            for q in (2, 3, 5):
                assert trung_bound(q, w).value <= blackburn_bound(q, w).value

    def test_niu_cao(self):
        assert niu_cao_bound(3, 2).value == 5
        assert niu_cao_bound(10, 2).value == 82

    def test_niu_cao_tiny_alphabet_flagged(self):
        b = niu_cao_bound(2, 2)
        assert b.value == 2
        assert FLAG_BELOW_VACUOUS in b.flags

    def test_niu_cao_rejects_w1(self):
        with pytest.raises(ValueError):
            niu_cao_bound(3, 1)


class TestBalancedGrouping:
    def test_examples(self):
        assert balanced_grouping_bound(3, 4, [1, 1, 1]).value == 20
        assert balanced_grouping_bound(4, 3, [2, 2]).value == 15

    def test_matches_linear_bound_at_u_minus_1(self):
        for w in weight_multisets(6):
            u = sum(w)
            for q in range(2, 11):
                assert (
                    balanced_grouping_bound(u - 1, q, w).value
                    == trung_bound(q, w).value
                )

    def test_divisible_case_uses_full_remainder(self):
        # N = 2(u-1): r = u-1, both exponents equal 2.
        b = balanced_grouping_bound(6, 3, [2, 2])
        assert b.value == 3 * 9
        assert b.params["r"] == 3

    def test_carries_assumption_flag(self):
        assert FLAG_UNCHECKED in balanced_grouping_bound(4, 3, [2, 2]).flags


class TestJohnson:
    def test_examples(self):
        assert johnson_recursive_bound(3, 3, [1, 1, 1]).value == 12
        assert johnson_recursive_bound(4, 3, [2, 2]).value == 15
        assert johnson_recursive_bound(2, 5, [1, 1]).value == 25

    def test_step_example(self):
        assert johnson_step(3, 3, [1, 1, 1], 1, 1).value == 12

    def test_step_at_full_sum_matches_single_row_form(self):
        # N = u, l = 1: q + max(u-1, reduced bound).
        q, w = 3, (1, 1, 1)
        u = sum(w)
        step = johnson_step(u, q, w, 1, 1)
        reduced = johnson_recursive_bound(u - 1, q, [1, 1]).value
        assert step.value == q + max(u - 1, reduced)

    def test_step_vacuous_reduction(self):
        assert johnson_step(3, 3, [1, 2], 1, 1).value == INF
        # Lowering the only weight of {1} leaves no part: still unbounded.
        assert johnson_step(3, 3, [1], 3, 1).value == INF

    def test_step_validates_range(self):
        with pytest.raises(ValueError):
            johnson_step(3, 3, [1, 1, 1], 0, 1)
        with pytest.raises(ValueError):
            johnson_step(3, 3, [1, 1, 1], 1, 4)

    def test_never_above_uniform_grouping(self):
        for w in weight_multisets(5):
            u = sum(w)
            for q in range(u, 9):
                for n_rows in range(1, 7):
                    assert (
                        johnson_recursive_bound(n_rows, q, w).value
                        <= grouping_composition_bound(n_rows, q, w).value
                    )

    def test_rejects_alphabet_below_one(self):
        with pytest.raises(ValueError, match="q >= 1"):
            johnson_recursive_bound(5, 0, [2, 2])
        for weights in ([2, 2], [1, 1]):
            with pytest.raises(ValueError, match="q >= 1"):
                johnson_step(5, 0, weights, 1, 1)

    def test_small_row_counts_flagged(self):
        assert FLAG_MONOTONE_EXT in johnson_recursive_bound(1, 3, [2, 2]).flags

    def test_early_exit_matches_full_scan(self):
        # Exact equality, int against int and INF against INF, with the
        # dynamic program that scans every step length.  The library's
        # program is keyed by the total weight alone.
        types = [
            w for t in range(1, 5) for w in combinations_with_replacement(range(1, 5), t)
        ]
        many_parts = [
            w
            for t in range(5, 9)
            for w in combinations_with_replacement(range(1, 7), t)
            if sum(w) <= 20
        ]
        points = [(n, q, w) for q in range(2, 11) for w in types for n in range(61)]
        points += [(n, q, w) for q in (2, 3, 5) for w in many_parts for n in range(0, 26, 5)]
        points += [(n, 1, w) for w in types for n in range(61)]
        points += [(n, 1, w) for w in many_parts for n in range(0, 26, 5)]
        for n_rows, q, w in points:
            got = INF if len(w) == 1 else _johnson_value(n_rows, q, sum(w))
            want = reference_johnson_value(n_rows, q, w)
            assert got == want and type(got) is type(want), (n_rows, q, w)

    def test_unbounded_tails_past_double_range(self):
        # Lowering a weight of (1, 2) leaves one part, an unbounded tail,
        # while q**l passes the double range from l = 647 on.  The value
        # splits 700 = 234 + 233 + 233 rows into three groups.
        assert johnson_recursive_bound(700, 3, [2, 2]).value == 3**234 + 2 * 3**233

    def test_large_n_is_the_balanced_grouping_value(self):
        assert (
            johnson_recursive_bound(5000, 2, [2, 2]).value
            == balanced_grouping_bound(5000, 2, [2, 2]).value
        )


class TestGroupingComposition:
    def test_examples(self):
        assert grouping_composition_bound(4, 3, [2, 2]).value == 27
        assert grouping_composition_bound(3, 2, [1, 1, 1]).value == 8

    def test_exponent_one_at_u_minus_1(self):
        assert grouping_composition_bound(3, 5, [2, 2]).value == 15

    def test_big_integers_exact(self):
        v = grouping_composition_bound(120, 10, [1, 1]).value
        assert v == 1 * 10**120


class TestProbLower:
    def test_binary_pair(self):
        assert prob_lower_bound(2, 2, [1, 1]).value == pytest.approx(1.0)

    def test_flagged_lower(self):
        assert FLAG_LOWER in prob_lower_bound(2, 2, [1, 1]).flags

    def test_positivity(self):
        for u, q in ((3, 3), (4, 4), (4, 2)):
            assert prob_lower_bound(1, q, [1, u - 1]).value > 0

    def test_degenerate_small_alphabet(self):
        # q < u: distinct-symbol probability is zero, bound collapses to 2**-u.
        assert prob_lower_bound(4, 3, [2, 2]).value == pytest.approx(2.0**-4)

    def test_past_double_range_saturates_at_float_max(self):
        # The exact value is larger still, so the largest double is a true
        # lower bound; its natural log is kept in params.
        b = prob_lower_bound(5000, 4, [1, 2])
        assert b.value == sys.float_info.max
        log_value = -3 * math.log(2) - 2500 * math.log(Fraction(5, 8))
        assert b.params["log_value"] == pytest.approx(log_value, rel=1e-12)

    def test_log_value_matches_value(self):
        b = prob_lower_bound(4, 9, [2, 2])
        assert b.params["log_value"] == pytest.approx(math.log(b.value), rel=1e-14)

    @pytest.mark.parametrize(
        "n_rows, q, weights",
        [(1, 10**17, (1, 1)), (3, 10**17, (1, 2)), (2, 2**60, (2, 2)), (2, 10**400, (1, 1))],
    )
    def test_g_rounding_to_one_is_answered(self, n_rows, q, weights):
        # float(g) is 1.0 here; ln(1 - g) still comes from exact integers.
        lower = prob_lower_bound(n_rows, q, weights)
        assert lower.params["g"] == 1.0
        assert 0 < lower.value <= best_upper_bound(n_rows, q, weights).value

    def test_log_miss_at_large_q(self):
        # 1 - g = 6/10**17 - 11/10**34 + 6/10**51 at q = 10**17, u = 4.
        _, log_miss = _log_miss(10**17, 4)
        assert log_miss == pytest.approx(math.log(6e-17), rel=1e-15)

    def test_log_miss_matches_decimal_reference(self):
        for q in [*range(1, 61), *(10**k for k in range(2, 20)), 10**200, 10**400]:
            for u in range(2, 31):
                hits, total = math.perm(q, u), q**u
                g, log_miss = _log_miss(q, u)
                with localcontext() as ctx:
                    ctx.prec = 50
                    ref_g = Decimal(hits) / Decimal(total)
                    ref_log = (Decimal(total - hits) / Decimal(total)).ln()
                assert abs(Decimal(g) - ref_g) <= Decimal("1e-15") * ref_g
                assert abs(Decimal(log_miss) - ref_log) <= Decimal("1e-15") * abs(ref_log)

    def test_secure_frameproof_point(self):
        got = prob_lower_bound(4, 9, [2, 2]).value
        expect = (1 / 16) * (6561 / 3537) ** (4 / 3)
        assert got == pytest.approx(expect)
        assert abs(got - 0.1422) < 1e-3


class TestPerfectHashBound:
    def test_three_symbols(self):
        b = perfect_hash_upper_bound(6, 3, 3)
        assert b.value == pytest.approx(16.0)
        assert b.params["j"] == 1

    def test_pairs_collapse_to_power(self):
        assert perfect_hash_upper_bound(3, 4, 2).value == pytest.approx(64.0)

    def test_binary_pair(self):
        assert perfect_hash_upper_bound(5, 2, 2).value == pytest.approx(32.0)

    def test_real_row_count(self):
        assert perfect_hash_upper_bound(1.5, 2, 2).value == pytest.approx(2**1.5)

    def test_asymptotic_flag(self):
        assert FLAG_ASYMPTOTIC in perfect_hash_upper_bound(6, 3, 3).flags

    def test_rejects_small_alphabet(self):
        with pytest.raises(ValueError):
            perfect_hash_upper_bound(3, 2, 3)

    def test_past_double_range_is_infinity(self):
        # 2**5000 overflows a double; INF is still a true upper bound.
        b = perfect_hash_upper_bound(5000, 2, 2)
        assert b.value == INF
        assert b.as_json_dict()["value"] == "infinity"


class TestSeparationRate:
    def test_pair_polynomial(self):
        assert separation_rate([2, 2], (0.3, 0.7)) == pytest.approx(2 * 0.3 * 0.7)

    def test_weight_one_contributes_unit(self):
        assert separation_rate([1, 2], (0.25, 0.75)) == pytest.approx(1.0)

    def test_exact_enumeration_converges(self):
        # Exact per-row separation probability against the asymptotic
        # polynomial on a prescribed-count row.
        n = 200
        counts = (60, 140)
        row = [0] * counts[0] + [1] * counts[1]
        exact = 0.0
        total = 0
        for c1 in range(n):
            for c2 in range(n):
                if c1 == c2:
                    continue
                total += 1
                if row[c1] != row[c2]:
                    exact += 1
        exact /= total
        asymptotic = separation_rate([2, 2], (0.3, 0.7))
        assert abs(exact - asymptotic) / asymptotic < 0.10


def _close(got, want):
    """1e-12 relative agreement, or exact when the reference is zero."""
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= 1e-12 * abs(want)


@st.composite
def rate_cases(draw):
    """Exponents 0-4 (weights 1-5) and a simplex point that may hold zeros."""
    t = draw(st.integers(2, 6))
    exps = tuple(draw(st.lists(st.integers(0, 4), min_size=t, max_size=t)))
    counts = draw(st.lists(st.integers(0, 1000), min_size=t, max_size=t))
    total = sum(counts) or 1
    return exps, tuple(c / total for c in counts)


@settings(max_examples=300, deadline=None)
@given(case=rate_cases())
@example(case=((0, 0), (0.0, 0.0)))
@example(case=((0, 3), (0.0, 1.0)))
@example(case=((1, 1, 2), (0.0, 0.5, 0.5)))
@example(case=((0, 2, 2, 4, 1, 3), (0.0, 0.1, 0.2, 0.0, 0.3, 0.4)))
def test_rate_kernel_matches_permutation_sum(case):
    exps, point = case
    value, f, rows = _rate_forward(exps, point)
    assert _close(value, reference_rate_value(exps, point))
    grad = _rate_grad(exps, point, f, rows)
    want = reference_rate_grad(exps, point)
    assert len(grad) == len(want)
    for got_j, want_j in zip(grad, want):
        assert _close(got_j, want_j), (grad, want)


@settings(max_examples=100, deadline=None)
@given(case=rate_cases())
@example(case=((0, 3), (0.0, 1.0)))
@example(case=((0, 2, 2, 4, 1, 3), (0.0, 0.1, 0.2, 0.0, 0.3, 0.4)))
def test_rate_invariant_under_every_point_permutation(case):
    # Permuting the point permutes the permanent's columns, whatever the
    # weights; the maximizer's start set relies on this.
    exps, point = case
    weights = [e + 1 for e in exps]
    want = separation_rate(weights, point)
    for perm in permutations(point):
        assert _close(separation_rate(weights, perm), want), (weights, perm)


# Maxima recorded with the permutation-sum objective.  The objective is
# flat at a maximum, so a change in rounding moves the point much more
# than the value: points are pinned to 1e-6 and values to 1e-9 relative.
PINNED_MAXIMA = {
    (2, 2, 3, 5): (
        0.00036916419138656345,
        (0.20734517852344533, 0.20734517852344556, 0.20734517852344578, 0.3779644644296633),
    ),
    (2, 3, 3, 4, 5): (
        4.915200000000041e-07,
        (0.19999999988970138, 0.1999999998909183, 0.19999999993731707, 0.2000000000768589, 0.20000000020520434),
    ),
    (2, 2, 2, 3, 3): (
        0.001536000000000005,
        (0.19999999967722445, 0.2000000000616093, 0.2000000000723494, 0.2000000000859586, 0.2000000001028582),
    ),
    (2, 2, 3): (
        0.07407407407407417,
        (0.33333333301910545, 0.33333333349044486, 0.3333333334904495),
    ),
    (3, 3, 3, 3): (
        0.0003662109375000009,
        (0.24999999926701605, 0.24999999926701605, 0.24999999926701605, 0.2500000021989519),
    ),
}


@lru_cache(maxsize=None)
def _maximum(weights):
    return max_separation_rate(weights)


class TestSimplexPinned:
    @pytest.mark.parametrize("weights", sorted(PINNED_MAXIMA))
    def test_pinned_maximum(self, weights):
        value, point = PINNED_MAXIMA[weights]
        r = _maximum(weights)
        assert r.value == pytest.approx(value, rel=1e-9, abs=0.0)
        assert r.point == pytest.approx(point, abs=1e-6)

    @pytest.mark.parametrize("weights", [(2, 2, 3, 5), (2, 3, 3, 4, 5), (2, 2, 2, 3, 3)])
    def test_converged_when_every_start_stops(self, weights):
        assert _maximum(weights).converged is True

    @pytest.mark.parametrize("weights", sorted(PINNED_MAXIMA))
    def test_vertex_starts_are_one_orbit(self, weights):
        # Permuting the point permutes the permanent's columns, so the ascents
        # from the t perturbed vertices mirror one another and the maximizer
        # runs only the first of them.
        t = len(weights)
        exps = tuple(w - 1 for w in weights)
        values = [
            _ascend(exps, [0.9 if i == v else 0.1 / (t - 1) for i in range(t)])[1]
            for v in range(t)
        ]
        for value in values[1:]:
            assert _close(value, values[0]), values

    def test_not_converged_when_a_start_hits_the_cap(self):
        # The maximum of p**3 q + p q**3 at p = 1/2 is quartic-flat, and 18
        # of the 19 starts run into _RATE_MAX_ITERATIONS: 180,001 iterations.
        r = max_separation_rate([2, 4])
        assert r.converged is False
        assert r.value == pytest.approx(0.125, abs=1e-12)


class TestSimplexOptimizer:
    def test_pair_equal_weights(self):
        r = max_separation_rate([2, 2])
        assert r.value == pytest.approx(0.5, abs=1e-9)
        assert r.point == pytest.approx((0.5, 0.5), abs=1e-6)

    def test_constant_objective_is_exactly_one(self):
        assert max_separation_rate([1, 2]).value == 1.0

    def test_zero_gradient_stops_every_start_at_once(self):
        # {1,1}: perm of the all-ones 2x2 matrix is 2! everywhere.
        r = max_separation_rate([1, 1])
        assert r.value == 2.0 and r.converged
        assert r.iterations == r.starts

    def test_triple_equal_weights(self):
        r = max_separation_rate([2, 2, 2])
        assert r.value == pytest.approx(2 / 9, abs=1e-9)

    def test_matches_closed_form(self):
        for t in range(2, 5):
            for w in range(2, 4):
                got = max_separation_rate([w] * t).value
                assert abs(got - equal_weight_max_rate(t, w)) <= 1e-6

    def test_point_sorted_and_normalized(self):
        r = max_separation_rate([2, 3])
        assert list(r.point) == sorted(r.point)
        assert sum(r.point) == pytest.approx(1.0)

    def test_beats_grid_small_types(self):
        for weights in ([2, 2], [2, 3], [2, 4], [2, 2, 2], [2, 2, 3]):
            got = max_separation_rate(weights).value
            t = len(weights)
            step = 0.01
            best = 0.0
            if t == 2:
                for i in range(101):
                    p = (i * step, 1 - i * step)
                    best = max(best, separation_rate(weights, p))
            else:
                for i in range(101):
                    for j in range(101 - i):
                        p = (i * step, j * step, 1 - (i + j) * step)
                        best = max(best, separation_rate(weights, p))
            assert got >= best - 1e-9

    def test_value_invariant_under_weight_permutation(self):
        a = max_separation_rate([2, 3, 2]).value
        b = max_separation_rate([3, 2, 2]).value
        assert a == pytest.approx(b, abs=1e-9)

    def test_rejects_large_types(self):
        with pytest.raises(ValueError):
            max_separation_rate([2] * 9)

    def test_closed_form_values(self):
        assert equal_weight_max_rate(2, 2) == pytest.approx(0.5)
        assert equal_weight_max_rate(3, 2) == pytest.approx(2 / 9)
        assert equal_weight_max_rate(2, 3) == pytest.approx(0.125)


class TestSmallAlphabetBound:
    def test_binary_pairs(self):
        assert small_alphabet_bound(8, 2, [2, 2]).value == pytest.approx(18.0)

    @pytest.mark.parametrize(
        "n_rows, t, w",
        [(6, 3, 2), (39, 5, 2), (8, 2, 2), (40, 4, 3), (200, 3, 4), (299, 9, 2)],
    )
    def test_equal_weights_are_the_phf_bound(self, n_rows, t, w):
        # The equal-weight closed forms are terms of the phf minimum, so
        # nothing beyond the reduction is evaluated.
        phf = perfect_hash_upper_bound(equal_weight_max_rate(t, w) * n_rows, t, t)
        assert small_alphabet_bound(n_rows, t, [w] * t).value == phf.value + t * w - t

    def test_rejects_weight_one(self):
        with pytest.raises(ValueError):
            small_alphabet_bound(6, 2, [1, 2])

    def test_rejects_mismatched_alphabet(self):
        with pytest.raises(ValueError):
            small_alphabet_bound(6, 3, [2, 2])

    def test_unequal_weights_use_optimizer(self):
        b = small_alphabet_bound(6, 2, [2, 3])
        assert b.params["rate_route"] == "optimizer"
        assert b.params["rate"] == pytest.approx(0.25, abs=1e-6)

    def test_past_double_range_is_infinity(self):
        # The reduction's perfect-hash terms overflow.
        assert small_alphabet_bound(5000, 2, [2, 2]).value == INF


class TestBestUpper:
    def test_secure_frameproof_winner(self):
        # niu-cao's 5 is listed but flagged: a verified 9-column family
        # exists (acceptance 05), so the proven Johnson value wins.
        listed = applicable_upper_bounds(4, 3, [2, 2])
        niu_cao = [(b.value, b.flags) for b in listed if b.provenance == PROV_NIU_CAO]
        assert niu_cao == [(5, (FLAG_UNCHECKED,))]
        b = best_upper_bound(4, 3, [2, 2])
        assert (b.provenance, b.value, b.flags) == (PROV_JOHNSON, 15, ())

    def test_single_row(self):
        assert best_upper_bound(1, 7, [1, 1]).value == 7

    def test_three_rows_tie(self):
        assert best_upper_bound(3, 4, [1, 1, 1]).value == 20

    @pytest.mark.parametrize(
        "n_rows, q, weights", [(20, 2, (2, 2)), (12, 3, (1, 2, 2)), (30, 5, (1, 1, 1))]
    )
    def test_tie_goes_to_the_proven_bound(self, n_rows, q, weights):
        # balanced-grouping ties johnson-recursion but assumes a hypothesis.
        b = best_upper_bound(n_rows, q, weights)
        assert (b.provenance, b.flags) == (PROV_JOHNSON, ())
        assert b.value == balanced_grouping_bound(n_rows, q, weights).value

    def test_below_vacuous_candidates_skipped(self):
        # Tiny alphabet: the quadratic formula collapses below u-1 and must
        # not win.
        b = best_upper_bound(4, 2, [2, 2])
        assert b.value >= 3

    def test_never_below_probabilistic_lower(self):
        rng = random.Random(31)
        for _ in range(60):
            w = rng.choice(weight_multisets(5))
            q = rng.randint(2, 8)
            n_rows = rng.randint(1, 6)
            upper = best_upper_bound(n_rows, q, w)
            lower = prob_lower_bound(n_rows, q, w)
            assert upper.value >= lower.value

    def test_vacuous_lower(self):
        b = vacuous_lower_bound([2, 2])
        assert b.value == 3 and FLAG_LOWER in b.flags

    def test_large_unequal_type_skips_small_alphabet(self):
        # t = 9 unequal weights: the optimizer is capped at t = 8, so the
        # advisory small-alphabet bound is left out instead of raising.
        w = [2] * 8 + [3]
        provs = {b.provenance for b in applicable_upper_bounds(20, 9, w)}
        assert PROV_SMALL_ALPHABET not in provs
        assert {"johnson-recursion", "balanced-grouping", "uniform-grouping"} <= provs
        assert best_upper_bound(20, 9, w).value >= vacuous_lower_bound(w).value

    def test_large_equal_type_keeps_small_alphabet(self):
        # Equal weights use the closed form, which holds for every t.
        provs = {b.provenance for b in applicable_upper_bounds(20, 9, [2] * 9)}
        assert PROV_SMALL_ALPHABET in provs

    @pytest.mark.parametrize("n_rows, q, weights", [(5000, 4, (1, 2)), (3000, 3, (1, 1))])
    def test_answers_where_the_lower_bound_is_past_double_range(self, n_rows, q, weights):
        # The winner is checked against the lower bound in logarithms.
        lower = prob_lower_bound(n_rows, q, weights)
        assert lower.value == sys.float_info.max
        assert lower.params["log_value"] > math.log(sys.float_info.max)
        b = best_upper_bound(n_rows, q, weights)
        assert b.provenance == PROV_JOHNSON and b.flags == ()
        assert b.value == johnson_recursive_bound(n_rows, q, weights).value

    @pytest.mark.parametrize("q", [0, -1])
    def test_rejects_alphabet_below_one(self, q):
        with pytest.raises(ValueError, match="q >= 1"):
            applicable_upper_bounds(4, q, [2, 2])

    def test_applicability_gates(self):
        provs = {b.provenance for b in applicable_upper_bounds(4, 3, [2, 2])}
        assert PROV_NIU_CAO in provs
        provs = {b.provenance for b in applicable_upper_bounds(5, 3, [2, 2])}
        assert PROV_NIU_CAO not in provs


class TestJsonShape:
    def test_infinity_serializes_as_string(self):
        b = johnson_step(3, 3, [1, 2], 1, 1)
        assert b.as_json_dict()["value"] == "infinity"

    def test_keys(self):
        d = trung_bound(3, [1, 2]).as_json_dict()
        assert set(d) == {"value", "provenance", "params", "flags"}


class TestSandwich:
    def test_capacity_between_bounds(self):
        from sephash.search import exact_capacity

        grid = [
            (1, 2, (1, 1)),
            (2, 2, (1, 1)),
            (3, 2, (1, 1)),
            (2, 3, (1, 1)),
            (1, 3, (1, 2)),
            (2, 2, (1, 2)),
            (3, 2, (1, 2)),
            (2, 3, (1, 2)),
            (3, 3, (1, 1, 1)),
            (2, 2, (2, 2)),
            (3, 3, (2, 2)),
            (4, 3, (2, 2)),
        ]
        for n_rows, q, weights in grid:
            value = exact_capacity(n_rows, q, weights).value
            lo = prob_lower_bound(n_rows, q, weights).value
            hi = best_upper_bound(n_rows, q, weights).value
            assert lo <= value <= hi, (n_rows, q, weights, lo, value, hi)


def _same_bound_value(actual, golden) -> bool:
    # The benchmark's rule: integers exactly, floats to 1e-9 relative.
    if golden == "inf":
        return actual == INF
    if isinstance(golden, int):
        return actual == golden
    return math.isclose(actual, golden, rel_tol=1e-9, abs_tol=0.0)


def test_matches_benchmark_goldens():
    # perfbench/goldens_bounds.json pins every bound at the 5,040 points of
    # the benchmark's grid; this catches an engine change that the
    # benchmark's own output check would reject.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "goldens_bounds.json"
    grid = json.loads(path.read_text(encoding="utf-8"))
    assert len(grid) == 5040
    mismatches = []
    for key, golden in grid.items():
        n_rows, q, weights = key.split()
        got = applicable_upper_bounds(int(n_rows), int(q), [int(x) for x in weights.split(",")])
        same = [b.provenance for b in got] == [p for p, _ in golden] and all(
            _same_bound_value(b.value, v) for b, (_, v) in zip(got, golden)
        )
        if not same:
            mismatches.append(key)
    assert not mismatches, mismatches[:10]
