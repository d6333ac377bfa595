"""Constructive lower-bound witnesses and exact small-instance search.

Constructions self-certify: each output is re-checked before being
returned, by the separation oracle or, for reed_solomon_frameproof, by the
pairwise column agreement that proves {1, w}-separation, and a failed
re-check raises CertificationError (an explicit raise, so it also runs
under python -O).

exact_capacity enumerates column sets in canonical form: per-row symbol
relabeling maps some column of any family to the all-zero column, which is
then the lexicographically smallest, so searching ascending column sets
whose first member is all-zero covers every family up to relabeling.  The
branch-and-bound kernel keeps the candidate list free of any column that
would complete an unseparated tuple.  When a column joins, one pass over
the "holed" tuples through it (sizes W with one part one short) builds a
forbidden-column bitmask: rows where two parts of a holed tuple share a
symbol (read off the columns' vertex masks, hypergraph._vertex_masks) are
bad, and the columns that show, in every other row, a symbol of some
member outside the short part (read off the incidence index,
hypergraph._incidence) are exactly those that complete it into a
violation.  The surviving candidates are those whose bit is clear.

rainbow_free_extremal_search adds candidate edges in lexicographic order.
Each edge carries a vertex bitmask and a covered-pair bitmask (one bit per
vertex pair in distinct parts); the OR of the chosen edges' pair masks
rejects a candidate sharing two vertices with one of them in a single AND.
A linear candidate is then tested only for cycles through itself: a path
from it back to itself over chosen edges, grown through per-vertex
incidence masks, whose shared vertices use distinct parts.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations, product

from .bounds import all_distinct_probability
from .hypergraph import (
    PartiteHypergraph,
    _incidence,
    _vertex_masks,
    find_rainbow_cycle,
    is_linear_hypergraph,
)
# CertificationError is re-exported: sephash.search.CertificationError stays.
from .matrix import (
    CertificationError,
    Matrix,
    SeparationType,
    _certify,
    normalize_weights,
    write_matrix,
)
from .verification import PreconditionError, _first_nonlinear_pair, find_violation

_DEFAULT_NODE_BUDGET = 5_000_000

_DEFAULT_RAINBOW_FREE_BUDGET = 200_000


def identity_construction(n_rows: int, w: int) -> Matrix:
    """N x N binary identity matrix, a verified SHF(N; N, 2, {1, w}).

    The row owned by a column shows 1 there and 0 on every other column, so
    singletons are always separated from any w-set.  Requires w <= N - 1 so
    the type is non-vacuous.
    """
    if n_rows < 2:
        raise PreconditionError("need at least 2 rows")
    if not 1 <= w <= n_rows - 1:
        raise PreconditionError(f"w must lie in [1, {n_rows - 1}]")
    m = Matrix(
        tuple(tuple(1 if i == j else 0 for j in range(n_rows)) for i in range(n_rows)),
        2,
    )
    _certify(
        find_violation(m, [1, w]) is None, f"identity matrix is {{1, {w}}}-separating"
    )
    return m


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def reed_solomon_frameproof(q: int, n_rows: int, w: int) -> Matrix:
    """Polynomial evaluation code over a prime field as a {1, w}-separating family.

    Columns are the evaluations of all q**k polynomials of degree < k at the
    points 0..N-1, with k = ceil(N / w).  Two distinct columns agree in at
    most a = k - 1 = (N - 1) // w positions, so a column collides with w
    others in at most a*w < N rows and some row separates it from all of
    them.  The returned code is certified by that argument: no column pair
    may agree in more than a rows, which is checked directly.
    """
    if not _is_prime(q):
        raise PreconditionError(f"{q} is not prime; only prime fields are supported")
    if not 1 <= n_rows <= q:
        raise PreconditionError(f"need 1 <= N <= q, got N={n_rows}, q={q}")
    if w < 1:
        raise PreconditionError("w must be positive")
    k = -(-n_rows // w)
    points = list(range(n_rows))
    columns = []
    for coeffs in product(range(q), repeat=k):
        col = []
        for x in points:
            val = 0
            for c in reversed(coeffs):
                val = (val * x + c) % q
            col.append(val)
        columns.append(tuple(col))
    m = Matrix(tuple(zip(*columns)), q)
    a = (n_rows - 1) // w
    _certify(
        _first_nonlinear_pair(columns, a) is None,
        f"no two columns agree in more than {a} rows (a*w < N proves {{1, {w}}})",
    )
    return m


def cyclic_overlap_matrix(k: int, q: int) -> Matrix:
    """k x k matrix whose k columns form a closed chain of row overlaps.

    Row i gives symbol 0 to columns i and i+1 (mod k) and distinct nonzero
    symbols to everything else, so consecutive columns agree exactly once
    and other pairs never agree.  The associated k-partite hypergraph is
    linear and carries a rainbow k-cycle; for even k = 2w no row separates
    the odd-position columns from the even-position ones.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    if q < k - 1:
        raise ValueError(f"need q >= {k - 1} to keep the pattern linear")
    rows = []
    for i in range(k):
        row = [0] * k
        filler = 1
        for j in range(k):
            if j != i and j != (i + 1) % k:
                row[j] = filler
                filler += 1
        rows.append(tuple(row))
    return Matrix(tuple(rows), q)


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of the exact capacity search.

    exact=True means the search ran to completion and value is the true
    maximum; otherwise the node budget tripped and value is only the best
    found (a lower bound).
    """

    rows: int
    q: int
    weights: tuple[int, ...]
    value: int
    witness: Matrix
    nodes: int
    elapsed: float
    exact: bool

    def as_json_dict(self) -> dict:
        return {
            "N": self.rows,
            "q": self.q,
            "weights": list(self.weights),
            "value": self.value,
            "exact": self.exact,
            "nodes": self.nodes,
            "elapsed_seconds": self.elapsed,
            "witness": write_matrix(self.witness),
        }


class _CapacitySearch:
    """Branch-and-bound over canonical ascending column sets."""

    def __init__(self, n_rows, q, weights: SeparationType, node_budget):
        self.n_rows = n_rows
        self.q = q
        self.weights = weights.weights
        self.u = sum(self.weights)
        self.node_budget = node_budget
        self.nodes = 0
        self.columns = [tuple(col) for col in product(range(q), repeat=n_rows)]
        # masks[j]: bit r*q + s set iff column j shows symbol s in row r.
        # incidence[r*q + s]: the columns that show symbol s in row r.
        self.masks = _vertex_masks(self.columns, q)
        self.incidence = _incidence(self.masks, n_rows * q)
        self._layouts = self._holed_layouts()
        self.best: list[int] = []
        self.exhausted = True

    def _holed_layouts(self):
        """Part slots (size, holds the newest column, canonical) of holed tuples.

        Slot 0 is the hole, one short of its weight.  One layout per place
        the newest column can sit: the hole, or a part of each other size.
        The remaining equal-size parts are interchangeable, so they ascend
        by smallest member.
        """

        def canonical(rest):
            return [(v, False, i > 0 and rest[i - 1] == v) for i, v in enumerate(rest)]

        layouts = []
        for w in sorted(set(self.weights)):
            rest = list(self.weights)
            rest.remove(w)
            if w > 1:
                layouts.append([(w - 1, True, False)] + canonical(rest))
            for s in sorted(set(rest)):
                others = list(rest)
                others.remove(s)
                layouts.append(
                    [(w - 1, False, False), (s, True, False)] + canonical(others)
                )
        return layouts

    def _survivors(self, chosen, cand):
        """The candidates that complete no unseparated tuple with `chosen`.

        Only tuples through both chosen[-1] and the candidate are examined;
        the rest were vetted one level up.  Such a tuple minus the candidate
        is a "holed" tuple from `chosen`: sizes W with one part (the hole)
        one short.  A candidate is forbidden if, in every row where no two
        parts share a symbol, it shares one with a member outside the hole.
        """
        if len(chosen) < self.u - 1 or not cand:
            return cand
        col = chosen[-1]
        q, n_rows = self.q, self.n_rows
        columns, masks, incidence = self.columns, self.masks, self.incidence
        sym_mask = (1 << q) - 1
        allowed = 0
        for d in cand:
            allowed |= 1 << d

        def rec(slots, k, prev, bad, seen, outside, avail):
            nonlocal allowed
            if k == len(slots):
                forbidden = allowed
                for r in range(n_rows):
                    if not bad >> r & 1:
                        row_syms = 0
                        base = r * q
                        for y in outside:
                            row_syms |= incidence[base + columns[y][r]]
                        forbidden &= row_syms
                        if not forbidden:
                            return
                allowed &= ~forbidden
                return
            size, has_col, canonical = slots[k]
            for combo in combinations(avail, size - has_col):
                if canonical and combo[0] < prev[0]:
                    continue
                part = (col,) + combo if has_col else combo
                syms = 0
                for x in part:
                    syms |= masks[x]
                b = bad
                shared = syms & seen
                if shared:
                    for r in range(n_rows):
                        if shared >> (r * q) & sym_mask:
                            b |= 1 << r
                rest = [x for x in avail if x not in combo]
                out = outside + part if k else ()  # slot 0 is the hole
                rec(slots, k + 1, combo, b, seen | syms, out, rest)
                if not allowed:
                    return

        for slots in self._layouts:
            rec(slots, 0, (), 0, 0, (), chosen[:-1])
            if not allowed:
                return []
        return [d for d in cand if allowed >> d & 1]

    def run(self):
        chosen = [0]  # canonical: the all-zero column is index 0
        cand = self._survivors(chosen, list(range(1, len(self.columns))))
        self.best = [0]
        self._dfs(chosen, cand)

    def _dfs(self, chosen, cand):
        if len(chosen) > len(self.best):
            self.best = list(chosen)
        for idx, col in enumerate(cand):
            if len(chosen) + (len(cand) - idx) <= len(self.best):
                return
            self.nodes += 1
            if self.nodes >= self.node_budget:
                self.exhausted = False
                return
            # col passed the filter as each chosen column joined: no recheck.
            chosen.append(col)
            self._dfs(chosen, self._survivors(chosen, cand[idx + 1 :]))
            chosen.pop()


def exact_capacity(
    n_rows: int, q: int, weights, node_budget: int = _DEFAULT_NODE_BUDGET
) -> CapacityResult:
    """Largest n for which an N x n W-separating matrix over q symbols exists.

    Exhaustive up to per-row symbol relabeling; requires q**N <= 10_000
    candidate columns and node_budget >= 1.  When the node budget trips, the
    best family found so far is returned with exact=False, but never fewer
    than u-1 columns: any u-1 columns, duplicates included, are vacuously
    separating.  The reported nodes can then exceed node_budget by up to the
    depth reached, as each level above the trip counts one more candidate
    before it sees it.
    """
    w = normalize_weights(weights)
    if w.t < 2:
        raise ValueError("need at least two parts")
    if n_rows < 1:
        raise ValueError("need N >= 1")
    if q < 1:
        raise ValueError("need q >= 1")
    if q**n_rows > 10_000:
        raise ValueError("search space too large: need q**N <= 10000")
    if node_budget < 1:
        raise ValueError("need node_budget >= 1")
    start = time.perf_counter()
    searcher = _CapacitySearch(n_rows, q, w, node_budget)
    searcher.run()
    elapsed = time.perf_counter() - start
    # Fewer than u-1 distinct columns exist, or the budget tripped first:
    # u-1 copies of column 0 (all-zero) still have no tuple to violate.
    best = searcher.best if len(searcher.best) >= w.u - 1 else [0] * (w.u - 1)
    witness = Matrix(tuple(zip(*(searcher.columns[j] for j in best))), q)
    _certify(find_violation(witness, w) is None, f"capacity witness is {w}-separating")
    return CapacityResult(
        rows=n_rows,
        q=q,
        weights=w.weights,
        value=len(best),
        witness=witness,
        nodes=searcher.nodes,
        elapsed=elapsed,
        exact=searcher.exhausted,
    )


def random_shf_alteration(
    n_rows: int, q: int, weights, seed: int, trials: int = 1
) -> Matrix:
    """Random construction with deletion: sample columns, prune violations.

    Starts from an expectation-optimal number of random columns (falls back
    to 2u when the all-distinct probability vanishes), then repeatedly asks
    the oracle for a violation and deletes that witness's highest column
    until none remains.  Deterministic for a fixed seed; with trials > 1 the
    largest verified family over per-trial seeds is returned.
    """
    w = normalize_weights(weights)
    if q < w.t:
        raise PreconditionError(
            f"need q >= t = {w.t}: fewer symbols can never separate {w.t} parts"
        )
    if n_rows < 1:
        raise ValueError("need N >= 1")
    if trials < 1:
        raise ValueError("need trials >= 1")
    u = w.u
    g = float(all_distinct_probability(q, u))
    if g > 0.0:
        optimal = (u * (1.0 - g) ** n_rows) ** (-1.0 / (u - 1))
        m_init = max(2 * u, math.ceil(optimal))
    else:
        m_init = 2 * u
    m_init = min(m_init, 4096)

    best: Matrix | None = None
    for trial in range(trials):
        rng = random.Random(seed + trial)
        cols = [
            tuple(rng.randrange(q) for _ in range(n_rows)) for _ in range(m_init)
        ]
        # Deleting a column per violation only removes tuples, so the loop
        # monotonically shrinks to a verified family (never below u-1).
        while len(cols) >= u:
            witness = find_violation(Matrix(tuple(zip(*cols)), q), w)
            if witness is None:
                break
            victim = max(c for part in witness.parts for c in part)
            cols.pop(victim)
        result = Matrix(tuple(zip(*cols)), q)
        _certify(find_violation(result, w) is None, f"altered family is {w}-separating")
        if best is None or result.cols > best.cols:
            best = result
    return best


@dataclass(frozen=True)
class RainbowFreeResult:
    """Best-found linear partite hypergraph with no rainbow cycles.

    certified=True means the subset search ran to completion, so the edge
    count is the true maximum for the given part count and part size.
    """

    edge_count: int
    hypergraph: PartiteHypergraph
    nodes: int
    certified: bool

    def as_json_dict(self) -> dict:
        return {
            "parts": self.hypergraph.parts,
            "part_size": self.hypergraph.part_size,
            "edge_count": self.edge_count,
            "edges": [list(e) for e in self.hypergraph.edges],
            "nodes": self.nodes,
            "certified": self.certified,
        }


class _RainbowFreeSearch:
    """Subset search over candidate edges with bitmask linearity and cycle tests.

    Vertex masks follow hypergraph._vertex_masks, where vertex (i, s) is bit
    i*q + s, and incidence is indexed by the same bit number.  Each vertex pair
    in distinct parts owns one bit of the pair masks, so two edges share two
    vertices iff their pair masks meet, and a candidate is linear with the
    chosen edges iff its pair mask misses the OR of theirs.
    """

    def __init__(self, parts, part_size, ks, node_budget):
        self.parts = parts
        self.q = part_size
        self.ks = ks
        self.node_budget = node_budget
        self.nodes = 0
        self.certified = True
        self.candidates = [tuple(e) for e in product(range(part_size), repeat=parts)]
        part_pairs = list(combinations(range(parts), 2))
        q = part_size
        self.vertex_mask = _vertex_masks(self.candidates, q)
        self.pair_mask = [
            sum(1 << ((n * q + e[i]) * q + e[j]) for n, (i, j) in enumerate(part_pairs))
            for e in self.candidates
        ]
        self.chosen: list[int] = []
        # incidence[v]: bit p set iff chosen[p] holds vertex v.
        self.incidence = [0] * (parts * q)
        # Seed: pairwise disjoint diagonal edges share no vertex, hence no cycle.
        self.best = [tuple(s for _ in range(parts)) for s in range(part_size)]

    def push(self, c):
        bit = 1 << len(self.chosen)
        for i, s in enumerate(self.candidates[c]):
            self.incidence[i * self.q + s] |= bit
        self.chosen.append(c)

    def pop(self):
        c = self.chosen.pop()
        keep = ~(1 << len(self.chosen))
        for i, s in enumerate(self.candidates[c]):
            self.incidence[i * self.q + s] &= keep

    def closes_cycle(self, c):
        """True iff candidate c, linear with the chosen edges, closes a rainbow cycle.

        Linearity leaves consecutive cycle edges exactly one shared vertex,
        so a rainbow k-cycle through c is a path c -> E1 -> ... -> E(k-1) -> c
        over distinct chosen edges whose k shared vertices lie in k distinct
        parts.  The path grows through the incidence masks of its last
        edge's vertices in unused parts.
        """
        parts, q, ks = self.parts, self.q, self.ks
        k_max = ks[-1]
        candidates, chosen, incidence = self.candidates, self.chosen, self.incidence
        vertex_mask, new_mask = self.vertex_mask, self.vertex_mask[c]

        def walk(edge, length, used_parts, used_edges):
            # Grow the path c, ..., edge (length edges, its length - 1 shared
            # vertices in used_parts) by one chosen edge through an unused part.
            for p in range(parts):
                if used_parts >> p & 1:
                    continue
                used = used_parts | 1 << p
                nxt = incidence[p * q + edge[p]] & ~used_edges
                while nxt:
                    low = nxt & -nxt
                    nxt ^= low
                    e = chosen[low.bit_length() - 1]
                    if length + 1 in ks:
                        shared = vertex_mask[e] & new_mask
                        if shared and not used >> ((shared.bit_length() - 1) // q) & 1:
                            return True
                    if length + 1 < k_max and walk(
                        candidates[e], length + 1, used, used_edges | low
                    ):
                        return True
            return False

        return walk(candidates[c], 1, 0, 0)

    def run(self):
        self._dfs(0, 0)

    def _dfs(self, start, covered):
        chosen = self.chosen
        if len(chosen) > len(self.best):
            self.best = [self.candidates[c] for c in chosen]
        n = len(self.candidates)
        pair_mask = self.pair_mask
        for idx in range(start, n):
            if len(chosen) + (n - idx) <= len(self.best):
                return
            self.nodes += 1
            if self.nodes >= self.node_budget:
                self.certified = False
                return
            if pair_mask[idx] & covered or self.closes_cycle(idx):
                continue
            self.push(idx)
            self._dfs(idx + 1, covered | pair_mask[idx])
            self.pop()


def rainbow_free_extremal_search(
    parts: int, part_size: int, k_range, node_budget: int = _DEFAULT_RAINBOW_FREE_BUDGET
) -> RainbowFreeResult:
    """Largest linear hypergraph avoiding rainbow cycles of the given lengths.

    Exhaustive subset search over all part_size**parts candidate edges in
    lexicographic order.  The OR of the chosen edges' covered-pair masks
    rejects a non-linear candidate in one AND, and a new cycle must pass
    through the newest edge, so only paths from it back to itself are
    searched.  The diagonal matching seeds the search, so the result always
    has at least part_size edges.  node_budget must be at least 1; budget
    overruns return the best found, flagged uncertified, and the reported
    nodes can then exceed node_budget by up to the depth reached, as each
    level above the trip counts one more candidate before it sees it.  The
    final result is re-verified from scratch (is_linear_hypergraph,
    find_rainbow_cycle) before returning.
    """
    if parts > 6 or part_size > 5:
        raise ValueError("desk-scale search: need parts <= 6 and part_size <= 5")
    if parts < 1 or part_size < 1:
        raise ValueError("need at least one part and one vertex")
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("need at least one cycle length")
    for k in ks:
        if not 3 <= k <= parts:
            raise ValueError(f"cycle length {k} outside [3, {parts}]")
    if node_budget < 1:
        raise ValueError("need node_budget >= 1")
    searcher = _RainbowFreeSearch(parts, part_size, tuple(ks), node_budget)
    searcher.run()
    h = PartiteHypergraph(parts, part_size, tuple(searcher.best))
    _certify(is_linear_hypergraph(h), "hypergraph is linear")
    for k in ks:
        _certify(find_rainbow_cycle(h, k) is None, f"hypergraph has no rainbow {k}-cycle")
    return RainbowFreeResult(
        edge_count=len(h.edges),
        hypergraph=h,
        nodes=searcher.nodes,
        certified=searcher.certified,
    )
