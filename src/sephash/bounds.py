"""Capacity bounds for separating hash families.

C(N, q, W) is the largest n admitting an N x n matrix over q symbols that is
W-separating.  This module evaluates every bound the library knows about:

* exact integer bounds: the linear bounds at N = u-1, the Johnson-type
  recursion, the row-grouping compositions, and the quadratic secure-
  frameproof bound;
* real-valued asymptotic bounds: the perfect-hash-family minimum and the
  small-alphabet reduction through the simplex maximum of the row
  separation polynomial (these carry an "asymptotic-approximate" flag and
  are never the basis of an exact desk-scale claim);
* the probabilistic lower bound, flagged as a lower bound.

The row separation polynomial is the permanent of the t x t matrix
A[i][j] = p_j**(w_i - 1).  Its value and gradient come from dynamic
programs over column subsets in O(2**t * t) steps, not from the t! terms
of its expansion, and every term they add is nonnegative.  The Johnson-type
recursion depends on the type only through its total weight u, and it has
a closed form: for q >= 2 and N >= u-1 it equals the balanced-grouping
value r * q**ceil(N/(u-1)) + (u-1-r) * q**floor(N/(u-1)), because q**x is
convex and the steps whose tail falls below u-2 rows never win (the proof
is in _johnson_value); for q = 1 and N >= u it is u.

Integer arithmetic is arbitrary precision; real-valued results are double
precision and flagged "real-valued", and a real-valued upper bound past the
double range is INF.  All functions are pure; the cached tables are
idempotent, so concurrent calls are safe.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

from .matrix import SeparationType, _certify, normalize_weights

INF = math.inf

# Provenance labels, stable across runs for scripted consumers.
PROV_JOHNSON = "johnson-recursion"
PROV_BALANCED = "balanced-grouping"
PROV_BLACKBURN = "blackburn"
PROV_TRUNG = "bazrafshan-trung"
PROV_NIU_CAO = "niu-cao"
PROV_UNIFORM = "uniform-grouping"
PROV_PROB_LOWER = "probabilistic-lower"
PROV_PHF = "perfect-hash-min"
PROV_SMALL_ALPHABET = "small-alphabet"
PROV_VACUOUS = "vacuous-columns"

FLAG_REAL = "real-valued"
FLAG_ASYMPTOTIC = "asymptotic-approximate"
FLAG_LOWER = "lower-bound"
FLAG_UNCHECKED = "unchecked-hypothesis"
FLAG_MONOTONE_EXT = "monotonicity-extended"
FLAG_BELOW_VACUOUS = "below-vacuous-range"

# Flags that keep a bound from winning best_upper_bound.
_ADVISORY = frozenset((FLAG_UNCHECKED, FLAG_ASYMPTOTIC, FLAG_BELOW_VACUOUS))


@dataclass(frozen=True)
class BoundResult:
    """A numeric bound with the name of the producing formula.

    flags qualify how the value may be used; in particular a finite upper
    bound below u-1 contradicts the vacuous regime (n = u-1 always exists)
    and is marked below-vacuous-range rather than trusted.
    """

    value: float
    provenance: str
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def as_json_dict(self) -> dict:
        value = self.value
        if value == INF:
            value = "infinity"
        return {
            "value": value,
            "provenance": self.provenance,
            "params": dict(self.params),
            "flags": list(self.flags),
        }


def _upper(value, provenance, weights: SeparationType, params, flags=()) -> BoundResult:
    """Build an upper-bound result, flagging values below the vacuous floor."""
    if value != INF and value < weights.u - 1:
        flags = tuple(flags) + (FLAG_BELOW_VACUOUS,)
    return BoundResult(value, provenance, params, tuple(flags))


def all_distinct_probability(q: int, j: int) -> Fraction:
    """Probability that j independent uniform q-ary symbols are all distinct.

    Falling factorial q(q-1)...(q-j+1) over q**j, exact.  Zero when j > q.
    """
    if j < 1:
        raise ValueError("j must be positive")
    if q < 1:
        raise ValueError("q must be positive")
    return Fraction(math.perm(q, j), q**j)


def blackburn_bound(q: int, weights) -> BoundResult:
    """(w1*w2 + u - w1 - w2) * q columns at N = u - 1 rows."""
    w = normalize_weights(weights)
    if w.t < 2:
        raise ValueError("need at least two parts")
    w1, w2 = w.weights[0], w.weights[1]
    value = (w1 * w2 + w.u - w1 - w2) * q
    return _upper(value, PROV_BLACKBURN, w, {"q": q, "weights": w.weights, "N": w.u - 1})


def trung_bound(q: int, weights) -> BoundResult:
    """(u - 1) * q columns at N = u - 1 rows."""
    w = normalize_weights(weights)
    if w.t < 2:
        raise ValueError("need at least two parts")
    value = (w.u - 1) * q
    return _upper(value, PROV_TRUNG, w, {"q": q, "weights": w.weights, "N": w.u - 1})


def niu_cao_bound(q: int, w: int) -> BoundResult:
    """(q-1)**2 + 1 columns for type {w, w} at N = 2w rows.

    Quoted quadratic bound for secure frameproof families.  Caution: the
    published form carries small-alphabet hypotheses this quote drops; at
    q = 3, w = 2 exhaustive search exhibits a 9-column family, exceeding
    the formula's 5.  Treat small-q values as advisory.
    """
    if w < 2:
        raise ValueError("need w >= 2")
    wt = SeparationType.of([w, w])
    value = (q - 1) ** 2 + 1
    return _upper(
        value, PROV_NIU_CAO, wt, {"q": q, "w": w, "N": 2 * w}, flags=(FLAG_UNCHECKED,)
    )


def _balanced_value(n_rows: int, q: int, span: int):
    """Least sum of q**n_i over splits of n_rows >= span rows into span parts.

    With n_rows = m*span + r, 0 <= r < span, a balanced split attains it:
    r * q**(m+1) + (span-r) * q**m.
    """
    m, r = divmod(n_rows, span)
    return r * q ** (m + 1) + (span - r) * q**m


def balanced_grouping_bound(n_rows: int, q: int, weights) -> BoundResult:
    """Split the rows into u-1 nearly equal groups and bound per group.

    With N = r (mod u-1), 1 <= r <= u-1, the bound is
    r * q**ceil(N/(u-1)) + (u-1-r) * q**floor(N/(u-1)).  The derivation
    assumes the floor-size instance still admits u columns; that hypothesis
    is not checked here, so results carry an assumption flag.
    """
    w = normalize_weights(weights)
    if w.u < 2:
        raise ValueError("need u >= 2")
    if n_rows < 1:
        raise ValueError("need N >= 1")
    span = w.u - 1
    r = n_rows % span or span
    return _upper(
        _balanced_value(n_rows, q, span),
        PROV_BALANCED,
        w,
        {"q": q, "weights": w.weights, "N": n_rows, "r": r},
        flags=(FLAG_UNCHECKED,),
    )


def grouping_composition_bound(n_rows: int, q: int, weights) -> BoundResult:
    """(u-1) * q**ceil(N/(u-1)): group rows, then apply the linear bound."""
    w = normalize_weights(weights)
    if w.u < 2:
        raise ValueError("need u >= 2")
    if n_rows < 1:
        raise ValueError("need N >= 1")
    value = (w.u - 1) * q ** (-(-n_rows // (w.u - 1)))
    return _upper(value, PROV_UNIFORM, w, {"q": q, "weights": w.weights, "N": n_rows})


def _decrement_weight(weights: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Decrease the i-th (1-based) weight; weights hitting zero drop out."""
    if not 1 <= i <= len(weights):
        raise ValueError(f"weight position {i} out of range")
    reduced = list(weights)
    reduced[i - 1] -= 1
    if reduced[i - 1] == 0:
        reduced.pop(i - 1)
    return tuple(sorted(reduced))


def _johnson_value(n_rows: int, q: int, u: int):
    """Closed form of the Johnson-type recursion, for t >= 2 parts.

    The recursion J(N, u) = min over l in 1..N of q**l + max(u-1, J(N-l, u-1))
    depends on the type only through its total weight u: lowering a weight
    either leaves a single part, whose tail is unbounded and never wins, or
    a type of weight u-1 with at least two parts, and every type with
    t >= 2 and u >= 3 has a weight of the second kind.  Base cases (each
    forced by the definition of separation):
      * u = 2, which is exactly W = {1,1}: distinct columns are necessary
        and sufficient, J = q**N;
      * N <= 0: nothing is ever separated, J = u - 1;
      * N = 1: all u tuple symbols must differ on the single row, so
        J = q when q >= u, else the vacuous u - 1;
      * N <= u - 1: the linear bound (u-1)q, extended below u-1 by row
        monotonicity.
    Past them (u >= 3, N >= u) the recursion has a closed form:
      * q = 1: J = u.  Every tail is at most u - 1 (the bases give at
        most u - 2, and by induction J(N', u-1) = u - 1 for N' >= u - 1
        when u >= 4), so every step is 1 + (u-1).
      * q >= 2: J = B(N, u) = r * q**(m+1) + (u-1-r) * q**m with
        N = m(u-1) + r, 0 <= r < u-1: _balanced_value(N, q, u-1), the
        balanced_grouping_bound value.
    Proof of the second, by induction on u, of J(N, u) = B(N, u) for all
    N >= u - 1 (u = 2 and N = u - 1 are bases with that value).  Write
    B(N, k+1) for the least sum of q**n_i over splits of N into k positive
    parts; q**x is convex, and moving one row from a part a to a part
    b <= a - 2 changes the sum by (q-1)(q**b - q**(a-1)) <= 0, so a
    balanced split attains the least sum, which is the value above.  Take
    u >= 3, N >= u and a step l with tail N' = N - l.
      * N' >= u - 2: by induction the tail is B(N', u-1) >= (u-2)q >=
        2(u-2) >= u-1, so the step is q**l + B(N', u-1), the least sum over
        splits of N into u-1 parts that have a part l.  The least such
        step over l is B(N, u).
      * N' < u - 2 (short tails; u = 3 admits only N' = 0).  Each such
        step is at least the sum C = q**(N-u+2) + (u-2)q of the split
        (N-u+2, 1, ..., 1), and C >= B(N, u):
          - 2 <= N' <= u-3, the monotone (u-2)q base: the step is
            q**l + (u-2)q with l >= N-u+3, so it exceeds C;
          - N' = 1, the max(q, u-2) base (u >= 4): the step is
            q**(N-1) + max(u-1, q), and q**(N-1) - q**(N-u+2) >=
            q**2 (q**(u-3) - 1) >= (u-3)q >= (u-2)q - max(u-1, q);
          - N' = 0, the N <= 0 base u-2 (for u = 3 the u = 2 base
            q**0 = 1 = u-2): the step is q**N + u-1, and q**N -
            q**(N-u+2) >= q**2 (q**(u-2) - 1) >= (u-2)q > (u-2)q - (u-1).
    So the short tails never win and J(N, u) = B(N, u).
    """
    if q < 1:
        raise ValueError("need q >= 1")
    if u == 2:
        return q**n_rows
    if n_rows <= 0:
        return u - 1
    if n_rows == 1:
        return max(q, u - 1)
    if n_rows <= u - 1:
        return (u - 1) * q
    if q == 1:
        return u
    return _balanced_value(n_rows, q, u - 1)


def johnson_step(n_rows: int, q: int, weights, length: int, i: int) -> BoundResult:
    """One application of the recursive inequality.

    C(N, q, W) <= q**l + max(u - 1, C(N - l, q, W with wi lowered by one)).
    `i` is the 1-based position in the ascending weight list; a weight
    lowered to zero leaves the type, and a type reduced to a single part
    makes the tail unbounded.
    """
    w = normalize_weights(weights)
    if q < 1:
        raise ValueError("need q >= 1")
    if not 1 <= length <= n_rows:
        raise ValueError(f"step length must lie in [1, {n_rows}]")
    reduced = _decrement_weight(w.weights, i)
    if len(reduced) < 2:
        value = INF
    else:
        value = q**length + max(w.u - 1, _johnson_value(n_rows - length, q, w.u - 1))
    return _upper(
        value,
        PROV_JOHNSON,
        w,
        {
            "q": q,
            "weights": w.weights,
            "N": n_rows,
            "l": length,
            "i": i,
            "reduced": reduced,
        },
    )


def johnson_recursive_bound(n_rows: int, q: int, weights) -> BoundResult:
    """Best bound reachable by iterating the recursive inequality."""
    w = normalize_weights(weights)
    if w.t < 2:
        raise ValueError("need at least two parts")
    if n_rows < 1:
        raise ValueError("need N >= 1")
    flags = (FLAG_MONOTONE_EXT,) if n_rows < w.u - 1 else ()
    value = _johnson_value(n_rows, q, w.u)
    return _upper(value, PROV_JOHNSON, w, {"q": q, "weights": w.weights, "N": n_rows}, flags)


def _log_miss(q: int, u: int) -> tuple[float, float]:
    """g = all_distinct_probability(q, u) and ln(1 - g), both from exact integers.

    ln(1 - g) = -ln(1 + hits/misses) with hits = perm(q, u) and misses =
    q**u - hits; int true division is correctly rounded, so both stay
    accurate where 1 - g is too small for a double (large q).  Needs u >= 2.
    """
    hits, total = math.perm(q, u), q**u
    misses = total - hits
    try:
        return hits / total, -math.log1p(hits / misses)
    except OverflowError:
        # hits/misses is past the double range, where ln(1 + x) = ln(x):
        # scale it into range by a power of two.
        k = hits.bit_length() - misses.bit_length()
        return 1.0, -math.log(hits / (misses << k)) - k * math.log(2)


def _log_prob_lower(n_rows: int, q: int, w: SeparationType) -> tuple[float, float]:
    """g and the natural log of prob_lower_bound's value, finite at every N."""
    g, log_miss = _log_miss(q, w.u)
    return g, -w.u * math.log(2.0) - n_rows / (w.u - 1) * log_miss


def prob_lower_bound(n_rows: int, q: int, weights) -> BoundResult:
    """Random-construction lower bound 2**-u * (1 - g)**(-N/(u-1)).

    g is the all-distinct probability of u symbols; for q < u it vanishes
    and the bound degenerates to 2**-u.  This is a LOWER bound on capacity.
    params["log_value"] is the natural log of the bound.  Past the double
    range the value is the largest double, still a true lower bound.
    """
    w = normalize_weights(weights)
    if w.u < 2:
        raise ValueError("need u >= 2")
    g, log_value = _log_prob_lower(n_rows, q, w)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = sys.float_info.max
    return BoundResult(
        value,
        PROV_PROB_LOWER,
        {"q": q, "weights": w.weights, "N": n_rows, "g": g, "log_value": log_value},
        (FLAG_LOWER, FLAG_REAL),
    )


def _power_or_inf(base: float, exponent: float) -> float:
    """base**exponent in doubles, INF past the double range.

    Only for upper bounds: INF is still a true upper bound, whereas a
    lower bound saturates at the largest double (prob_lower_bound).
    """
    try:
        return base**exponent
    except OverflowError:
        return INF


def perfect_hash_upper_bound(n_rows: float, q: int, t: int) -> BoundResult:
    """Minimum over j of (t-j-1) * ((q-j)/(t-j-1)) ** (g(q, j+1) * N).

    Upper bound for type {1,...,1} with t parts; the row count may be real
    because reductions feed scaled row counts in.  The asymptotic correction
    factor is taken as 1, hence the asymptotic-approximate flag.  For t = 2
    the only term is q**N, which is exact.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if q < t:
        raise ValueError("need q >= t")
    if n_rows < 0:
        raise ValueError("need N >= 0")
    best = INF
    best_j = 0
    for j in range(t - 1):
        g = float(all_distinct_probability(q, j + 1))
        value = (t - j - 1) * _power_or_inf((q - j) / (t - j - 1), g * n_rows)
        if value < best:
            best = value
            best_j = j
    wt = SeparationType.of([1] * t)
    return _upper(
        best,
        PROV_PHF,
        wt,
        {"q": q, "t": t, "N": n_rows, "j": best_j},
        flags=(FLAG_REAL, FLAG_ASYMPTOTIC),
    )


@lru_cache(maxsize=16)
def _subset_steps(t: int) -> tuple:
    """Nonempty subsets S of range(t) as bitmasks, ascending.

    Each entry is (S, |S| - 1, ((j, S without j) for j in S)); every subset
    follows all of its own subsets, so one pass in this order is a valid
    dynamic-programming schedule.
    """
    steps = []
    for s in range(1, 1 << t):
        drops = tuple((j, s ^ (1 << j)) for j in range(t) if s >> j & 1)
        steps.append((s, len(drops) - 1, drops))
    return tuple(steps)


def _subset_permanents(rows) -> list[float]:
    """f[S] = the permanent of the first |S| rows on the columns in S."""
    f = [1.0] * (1 << len(rows))
    for s, k, drops in _subset_steps(len(rows)):
        row = rows[k]
        acc = 0.0
        for j, rest in drops:
            acc += f[rest] * row[j]
        f[s] = acc
    return f


def _rate_forward(exps, point) -> tuple[float, list[float], list[list[float]]]:
    """Permanent of A[i][j] = point[j]**exps[i] by a subset dynamic program.

    The permanent is f[all columns], with f from _subset_permanents, at
    O(2**t * t) cost.  Every term is nonnegative on the simplex, so nothing
    cancels.  Ryser's inclusion-exclusion formula costs the same but does
    cancel: at random simplex points with t <= 6 it was off by up to 2e-4
    relative to the exact rational value, where this recursion stays within
    5e-16.  Returns the value together with f and A, which the gradient
    reuses.
    """
    rows = [[x**e for x in point] for e in exps]
    f = _subset_permanents(rows)
    return f[-1], f, rows


def _rate_grad(exps, point, f, rows) -> list[float]:
    """Gradient of the permanent, from _rate_forward's f and A at `point`.

    A permanent does not depend on row order, so g = _subset_permanents of
    the reversed rows gives g[T], the permanent of the last |T| rows on the
    columns in T.  Row i placed on column j splits every permutation into
    the first i rows on some S without j and the last t-1-i rows on the
    rest, so with T = S + j:
    d/dp_j = sum over T containing j of f[T - j] * dA[|T|-1][j] * g[~T],
    where dA[i][j] = exps[i] * point[j]**(exps[i]-1) (zero when exps[i] = 0).
    Also O(2**t * t).
    """
    t = len(exps)
    g = _subset_permanents(rows[::-1])
    full = (1 << t) - 1
    grad = [0.0] * t
    for s, k, drops in _subset_steps(t):
        e = exps[k]
        if e:
            scale = e * g[full ^ s]
            lower = e - 1
            for j, rest in drops:
                grad[j] += f[rest] * point[j] ** lower * scale
    return grad


def separation_rate(weights, point) -> float:
    """Row separation polynomial: the permanent of A[i][j] = p_j**(wi-1).

    Expanded, it sums prod_i p_pi(i)**(wi-1) over all permutations pi; it is
    the asymptotic probability that a row whose symbol fractions are
    `point` separates randomly drawn parts of sizes w1-1, ..., wt-1.
    Weight-one parts contribute a factor of 1 (0**0 == 1 convention).  It
    is evaluated by a subset dynamic program in O(2**t * t) steps.
    """
    w = normalize_weights(weights)
    exps = [wi - 1 for wi in w.weights]
    if len(point) != w.t:
        raise ValueError("point length must match the number of parts")
    return _rate_forward(exps, point)[0]


def _project_simplex(v) -> list[float]:
    """Euclidean projection onto {p : p >= 0, sum p = 1}."""
    cumulative = 0.0
    theta = 0.0
    count = 0
    for val in sorted(v, reverse=True):
        cumulative += val
        count += 1
        candidate = (cumulative - 1.0) / count
        if val - candidate > 0:
            theta = candidate
    return [x - theta if x > theta else 0.0 for x in v]


@dataclass(frozen=True)
class SimplexMax:
    """Maximizer of the separation polynomial over the probability simplex.

    The polynomial is invariant under every permutation of the point (a
    permanent does not change when its columns are permuted), so point is
    reported sorted ascending.  starts is 9*t + 1: the barycenter, one
    perturbed vertex standing for the t mirror-image ones, and 9*t - 1
    seeded Dirichlet draws; iterations sums the ascent steps of all starts.
    converged is True only when every start stopped by one of the
    convergence tests (vanishing gradient, projected step below
    _RATE_TOLERANCE, no cumulative progress for 50 iterations, or step
    size below 1e-11); a single start that ran into _RATE_MAX_ITERATIONS
    makes it False.
    """

    point: tuple[float, ...]
    value: float
    starts: int
    iterations: int
    converged: bool


def equal_weight_max_rate(t: int, w: int) -> float:
    """Closed-form simplex maximum for t equal weights w: t! * (1/t)**(t(w-1))."""
    if t < 2:
        raise ValueError("need t >= 2")
    if w < 2:
        raise ValueError("need w >= 2")
    return math.factorial(t) * (1.0 / t) ** (t * (w - 1))


# Largest t max_separation_rate accepts, kept on measured cost: t = 7
# ({2,2,2,2,2,2,3}) takes 0.5 s and t = 8 equal weights 1.0 s per
# maximization (Python 3.11, one core of a 2-core Xeon VM), and each
# further part more than doubles the kernel's cost.
_MAX_RATE_PARTS = 8

_RATE_TOLERANCE = 1e-9
_RATE_MAX_ITERATIONS = 10_000


def _ascend(exps, start) -> tuple[list[float], float, int, bool]:
    """Projected gradient ascent with backtracking from one start.

    Returns the final point, its value, the iterations used, and whether a
    convergence test stopped the ascent before _RATE_MAX_ITERATIONS.
    """
    p = list(start)
    fp, f, rows = _rate_forward(exps, p)
    grad = None
    step = 1.0
    anchor = fp
    since_progress = 0
    last_move: list[float] | None = None
    for iterations in range(1, _RATE_MAX_ITERATIONS + 1):
        # p only changes on an accepted step, so a rejected candidate
        # leaves the gradient valid for the next iteration.
        if grad is None:
            grad = _rate_grad(exps, p, f, rows)
        gmax = max(map(abs, grad))
        if gmax == 0.0:
            break
        # Scale-free ascent: unit-sup-norm direction keeps the step
        # geometry independent of the objective's magnitude.
        direction = [g / gmax for g in grad]
        moved = _project_simplex([x + d for x, d in zip(p, direction)])
        gap = max(map(abs, map(sub, moved, p)))
        if gap < _RATE_TOLERANCE:
            break
        # Oscillation damping: a gradient opposing the last move means
        # the step overshot the ridge, so shrink before moving again.
        if last_move is not None:
            if sum(map(mul, grad, last_move)) < 0.0:
                step *= 0.25
        cand = _project_simplex([x + step * d for x, d in zip(p, direction)])
        fc, fc_f, fc_rows = _rate_forward(exps, cand)
        if fc > fp:
            last_move = list(map(sub, cand, p))
            p, fp, f, rows = cand, fc, fc_f, fc_rows
            grad = None
            step = min(step * 1.3, 1.0)
        else:
            step *= 0.5
        # Stop once no cumulatively significant improvement shows up.
        if fp - anchor > 1e-12 * max(abs(anchor), 1e-30):
            anchor = fp
            since_progress = 0
        else:
            since_progress += 1
            if since_progress >= 50:
                break
        if step < 1e-11:
            break
    else:
        return p, fp, iterations, False
    return p, fp, iterations, True


def max_separation_rate(weights) -> SimplexMax:
    """Maximize the separation polynomial over the probability simplex.

    Multi-start projected gradient ascent with backtracking.  The
    polynomial is perm(A) with A[i][j] = p_j**(w_i - 1); permuting the
    coordinates of p permutes the columns of A, which leaves a permanent
    unchanged, so the objective is invariant under every permutation of p,
    whatever the weights.  The t perturbed vertices (0.9 on one coordinate,
    0.1/(t-1) on the rest) are therefore one orbit whose ascents mirror one
    another, and only the first is run.  The starts are the barycenter
    (a one-point orbit), that vertex, and 9*t - 1 seeded Dirichlet draws:
    9*t + 1 in all.  An ascent converges when the projected-gradient step
    shrinks below _RATE_TOLERANCE.  The returned point is sorted ascending.
    The objective and its gradient come from subset dynamic programs in
    O(2**t * t), and t is capped at _MAX_RATE_PARTS.
    """
    w = normalize_weights(weights)
    t = w.t
    if not 2 <= t <= _MAX_RATE_PARTS:
        raise ValueError(f"supported for 2 <= t <= {_MAX_RATE_PARTS} parts")
    exps = tuple(wi - 1 for wi in w.weights)

    rng = random.Random(24862)
    starts: list[list[float]] = [[1.0 / t] * t, [0.9] + [0.1 / (t - 1)] * (t - 1)]
    while len(starts) < 9 * t + 1:
        draw = [rng.gammavariate(1.0, 1.0) for _ in range(t)]
        total = sum(draw)
        starts.append([x / total for x in draw])

    best_point, best_value = starts[0], -INF
    total_iters = 0
    converged = True
    for start in starts:
        p, fp, iterations, stopped = _ascend(exps, start)
        total_iters += iterations
        converged = converged and stopped
        if fp > best_value:
            best_value = fp
            best_point = p
    point = tuple(sorted(best_point))
    total = sum(point)
    point = tuple(x / total for x in point)
    return SimplexMax(point, best_value, len(starts), total_iters, converged)


def small_alphabet_bound(n_rows: int, t: int, weights) -> BoundResult:
    """Reduction bound for q = t and every weight at least 2.

    Scales the row count by the simplex maximum of the separation
    polynomial and falls through to the perfect-hash-family bound:
    C(N, t, W) <= phf(p* N, t, t) + u - t.  rate_route says whether p* came
    from the equal-weight closed form or from the optimizer.  For equal
    weights w, p* = t! * t**(-t(w-1)), and the two familiar closed forms are
    terms of the minimum phf already takes: 2**(t!**2 N / t**(tw-1)) is its
    j = t-2 term, since g(t, t-1) = t!/t**(t-1), and
    (t-1) * (t/(t-1))**(t! N / t**(tw-t)) is its j = 0 term.
    """
    w = normalize_weights(weights)
    if w.t != t:
        raise ValueError("weight count must equal t")
    if t < 2:
        raise ValueError("need t >= 2")
    if min(w.weights) < 2:
        raise ValueError("every weight must be at least 2")
    u = w.u
    if len(set(w.weights)) == 1:
        rate = equal_weight_max_rate(t, w.weights[0])
        rate_route = "closed-form"
    else:
        rate = max_separation_rate(w).value
        rate_route = "optimizer"
    phf = perfect_hash_upper_bound(rate * n_rows, t, t)
    return _upper(
        phf.value + (u - t),
        PROV_SMALL_ALPHABET,
        w,
        {
            "t": t,
            "weights": w.weights,
            "N": n_rows,
            "rate": rate,
            "rate_route": rate_route,
            "phf_j": phf.params["j"],
        },
        flags=(FLAG_REAL, FLAG_ASYMPTOTIC),
    )


def vacuous_lower_bound(weights) -> BoundResult:
    """C >= u - 1 always: any u-1 columns are separating for lack of tuples."""
    w = normalize_weights(weights)
    return BoundResult(
        w.u - 1, PROV_VACUOUS, {"weights": w.weights}, (FLAG_LOWER,)
    )


def applicable_upper_bounds(n_rows: int, q: int, weights) -> list[BoundResult]:
    """Every upper bound whose hypotheses hold at (N, q, W)."""
    w = normalize_weights(weights)
    if w.t < 2:
        raise ValueError("need at least two parts")
    if q < 1:
        raise ValueError("need q >= 1")
    results = []
    if n_rows <= w.u - 1:
        ext = () if n_rows == w.u - 1 else (FLAG_MONOTONE_EXT,)
        tb = trung_bound(q, w)
        bb = blackburn_bound(q, w)
        results.append(BoundResult(tb.value, tb.provenance, {**tb.params, "N": n_rows}, tb.flags + ext))
        results.append(BoundResult(bb.value, bb.provenance, {**bb.params, "N": n_rows}, bb.flags + ext))
    if w.t == 2 and w.weights[0] == w.weights[1] and w.weights[0] >= 2 and n_rows == 2 * w.weights[0]:
        results.append(niu_cao_bound(q, w.weights[0]))
    # Unequal weights need the simplex maximizer, which is capped in t.
    if q == w.t and min(w.weights) >= 2 and (len(set(w.weights)) == 1 or w.t <= _MAX_RATE_PARTS):
        results.append(small_alphabet_bound(n_rows, w.t, w))
    results.append(balanced_grouping_bound(n_rows, q, w))
    results.append(johnson_recursive_bound(n_rows, q, w))
    results.append(grouping_composition_bound(n_rows, q, w))
    return results


def best_upper_bound(n_rows: int, q: int, weights) -> BoundResult:
    """Least applicable upper bound that is proven at (N, q, W).

    A bound flagged unchecked-hypothesis, asymptotic-approximate or
    below-vacuous-range never wins: its value is not established here
    (niu-cao at (4, 3, {2,2}) gives 5, below a verified 9-column family).
    The Johnson-type recursion always qualifies, so there is a winner.  It
    is checked against the probabilistic lower bound in logarithms, so the
    check runs at every N, also where that bound is past the double range.
    """
    w = normalize_weights(weights)
    winner = min(
        (b for b in applicable_upper_bounds(n_rows, q, w) if not _ADVISORY.intersection(b.flags)),
        key=lambda b: b.value,
    )
    _, log_lower = _log_prob_lower(n_rows, q, w)
    _certify(
        math.log(winner.value) >= log_lower,
        "upper bound is at least the probabilistic lower bound",
    )
    return winner
