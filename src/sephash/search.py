"""Constructive lower-bound witnesses and exact small-instance search.

Constructions self-certify: each output is re-checked before being
returned, by the separation oracle (whose distance certificate settles
reed_solomon_frameproof's codes from pairwise column agreement alone) or by
a linear-time sufficient condition (identity_construction: every column has
a private row, a one-column class of the oracle's per-row symbol classes),
and a failed re-check raises CertificationError (an explicit raise, so it
also runs under python -O).  random_shf_alteration prunes until the oracle
accepts and returns the matrix that last call accepted, with no second call.

Both exact searches take their candidate space from hypergraph._cube: all
q**N columns (or edges) in lexicographic order, each with its vertex mask
and, per row (part), the bitmask of candidates sharing its symbol there.
exact_capacity runs one loop over an explicit stack, one frame per chosen
column; rainbow_free_extremal_search runs one recursive dfs closure.

exact_capacity enumerates column sets in canonical form: per-row symbol
relabeling maps some column of any family to the all-zero column, which is
then the lexicographically smallest, so searching ascending column sets
whose first member is all-zero covers every family up to relabeling.  The
branch-and-bound kernel carries its candidates as one bitmask, free of any
column that would complete an unseparated tuple.  When a column joins, one
pass over the "holed" tuples through it (sizes W with one part one short)
clears every candidate that completes one.  Rows where two parts of a
holed tuple share a symbol are bad; they are found on the columns' vertex
masks, each row's q-bit field filled by one carry trick.  The tuple's key
is the OR of the vertex masks of its members outside the short part with
the bad rows' fields cleared, and the candidates it forbids are the
columns that show, in every row where the key has a symbol, one of those
symbols.  That set depends on the key alone: it is built once per call
from the per-vertex incidence masks and memoized, so a tuple costs one
lookup.

rainbow_free_extremal_search adds candidate edges in lexicographic order.
Each edge carries a vertex bitmask and a covered-pair bitmask (one bit per
vertex pair in distinct parts); the OR of the chosen edges' pair masks
rejects a candidate sharing two vertices with one of them in a single AND.
A linear candidate is then tested only for cycles through itself: a path
from it back to itself over chosen edges, grown through the agreement
masks of the last edge, whose shared vertices use distinct parts.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from operator import and_

from .bounds import _log_miss
from .hypergraph import (
    PartiteHypergraph,
    _bits,
    _cube,
    find_rainbow_cycle,
    is_linear_hypergraph,
)
# CertificationError is re-exported: sephash.search.CertificationError stays.
from .matrix import (
    CertificationError,
    Matrix,
    _certify,
    normalize_weights,
    write_matrix,
)
from .verification import PreconditionError, _Agreement, find_violation

_DEFAULT_NODE_BUDGET = 5_000_000

_DEFAULT_RAINBOW_FREE_BUDGET = 200_000


def _has_private_rows(m: Matrix) -> bool:
    """True iff each column shows, in some row, a symbol no other column shows.

    That row separates the column from every set of other columns, so the
    matrix is {1, w}-separating for every w.  O(N*n).
    """
    classes = (cols for by_symbol in _Agreement(m).classes for cols in by_symbol.values())
    return len({cols[0] for cols in classes if len(cols) == 1}) == m.cols


def identity_construction(n_rows: int, w: int) -> Matrix:
    """N x N binary identity matrix, a verified SHF(N; N, 2, {1, w}).

    The row owned by a column shows 1 there and 0 on every other column, so
    singletons are always separated from any w-set; that private row is the
    certificate.  Requires w <= N - 1 so the type is non-vacuous.
    """
    if n_rows < 2:
        raise PreconditionError("need at least 2 rows")
    if not 1 <= w <= n_rows - 1:
        raise PreconditionError(f"w must lie in [1, {n_rows - 1}]")
    m = Matrix(
        tuple(tuple(1 if i == j else 0 for j in range(n_rows)) for i in range(n_rows)),
        2,
    )
    _certify(_has_private_rows(m), f"every column has a private row (proves {{1, {w}}})")
    return m


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def reed_solomon_frameproof(q: int, n_rows: int, w: int) -> Matrix:
    """Polynomial evaluation code over a prime field as a {1, w}-separating family.

    Columns are the evaluations of all q**k polynomials of degree < k at the
    points 0..N-1, with k = ceil(N / w).  Two distinct columns agree in at
    most a = k - 1 = (N - 1) // w positions, so a column collides with w
    others in at most a*w < N rows and some row separates it from all of
    them.  The returned code is certified by find_violation, whose distance
    certificate is that argument: no column pair may agree in more than
    a rows.
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
    _certify(find_violation(m, (1, w)) is None, f"code is {{1, {w}}}-separating")
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


def _holed_layouts(weights):
    """Part slots (size, holds the newest column, canonical) of holed tuples.

    Slot 0 is the hole, one short of its weight.  One layout per place the
    newest column can sit: the hole, or a part of each other size.  The
    remaining equal-size parts are interchangeable, so they ascend by
    smallest member.
    """

    def canonical(rest):
        return [(v, False, i > 0 and rest[i - 1] == v) for i, v in enumerate(rest)]

    layouts = []
    for w in sorted(set(weights)):
        rest = list(weights)
        rest.remove(w)
        if w > 1:
            layouts.append([(w - 1, True, False)] + canonical(rest))
        for s in sorted(set(rest)):
            others = list(rest)
            others.remove(s)
            layouts.append([(w - 1, False, False), (s, True, False)] + canonical(others))
    return layouts


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

    A candidate is forbidden by a holed tuple if, in every row where no two
    parts share a symbol (a good row), it shows a symbol of some member
    outside the hole.  The leaf keys this test by one vertex mask: the OR of
    the outside members' vertex masks with the bad rows' q-bit fields
    cleared.  Every row holds some symbol of the outside members, so the
    key's nonzero row fields are exactly the good rows, and the forbidden
    columns are those that show, in each of them, a symbol the key holds.
    That set depends on the key alone, so its complement is memoized for the
    call.  Key 0 means every row is bad: it forbids every candidate.
    """
    w = normalize_weights(weights)
    if w.t < 2:
        raise ValueError("need at least two parts")
    if n_rows < 1:
        raise ValueError("need N >= 1")
    if q < 1:
        raise ValueError("need q >= 1")
    # q**14 > 10_000 for every q >= 2: never build a huge q**N to refuse it.
    if q ** min(n_rows, 14) > 10_000:
        raise ValueError("search space too large: need q**N <= 10000")
    if node_budget < 1:
        raise ValueError("need node_budget >= 1")
    start = time.perf_counter()
    u = w.u
    # masks[j]: bit r*q + s set iff column j shows symbol s in row r.
    # incidence[r*q + s]: the columns that show symbol s in row r.
    columns, masks, _, incidence = _cube(n_rows, q)
    layouts = _holed_layouts(w.weights)
    everything = (1 << len(columns)) - 1
    # Each row's q-bit field of a vertex mask: low holds its lowest bit, top
    # its highest, body the bits below the top.
    low = sum(1 << (r * q) for r in range(n_rows))
    top = low << (q - 1)
    body = top - low
    # spared[key]: the columns key does not forbid, those that miss all of
    # key's symbols in some row where it has one (none for key 0).
    spared = {}
    best: list[int] = []
    nodes = 0
    exact = True

    def spare(key):
        by_row = {}
        for v in _bits(key):
            by_row[v // q] = by_row.get(v // q, 0) | incidence[v]
        return everything ^ reduce(and_, by_row.values(), everything)

    def survivors(chosen, cand):
        # The candidates that complete no unseparated tuple with `chosen`.
        # cand and the result are bitmasks of column indices.  Only tuples
        # through both chosen[-1] and the candidate are examined; the rest
        # were vetted one level up.  Such a tuple minus the candidate is a
        # "holed" tuple from `chosen`: sizes W with one part (the hole) one
        # short.  Each holed tuple keeps only spared[key], key being the
        # vertices of its members outside the hole off its bad rows.
        if len(chosen) < u - 1 or not cand:
            return cand
        col = chosen[-1]
        allowed = cand

        def rec(slots, k, prev, bad, seen, out, avail):
            # Fill slot k and those after it.  bad holds the q-bit fields of
            # the rows where two filled parts share a symbol, seen the filled
            # parts' vertices, out those of the filled parts after the hole
            # (slot 0).  The last slot is never the hole: its leaves are here.
            nonlocal allowed
            size, has_col, canonical = slots[k]
            base = masks[col] if has_col else 0
            last = k == len(slots) - 1
            # Equal-size parts ascend by smallest member.
            pool = [x for x in avail if x > prev[0]] if canonical else avail
            for combo in combinations(pool, size - has_col):
                syms = base
                for x in combo:
                    syms |= masks[x]
                shared = syms & seen
                if shared:
                    # A field's top bit is set iff the field is nonzero:
                    # adding body carries into it from any lower bit, and
                    # no carry leaves the field.  Then fill each such field.
                    hit = ((shared & body) + body | shared) & top
                    b = bad | (hit << 1) - (hit >> (q - 1))
                else:
                    b = bad
                if last:
                    key = (out | syms) & ~b
                    kept = spared.get(key)
                    if kept is None:
                        kept = spared[key] = spare(key)
                    allowed &= kept
                else:
                    rest = [x for x in avail if x not in combo]
                    rec(slots, k + 1, combo, b, seen | syms, out | syms if k else 0, rest)
                if not allowed:
                    return

        for slots in layouts:
            rec(slots, 0, (), 0, 0, 0, chosen[:-1])
            if not allowed:
                break
        return allowed

    # Each frame: a chosen set, its candidates not yet tried (a bitmask,
    # tried in ascending order) and how many they are.  Canonical: the
    # all-zero column is index 0.  No root filter: a lone column and a
    # candidate are unseparated only if u = 2 and equal.
    stack = [([0], everything ^ 1, len(columns) - 1)]
    while stack:
        chosen, cand, left = stack.pop()
        if len(chosen) > len(best):
            best = chosen
        if len(chosen) + left <= len(best):
            continue
        nodes += 1
        if nodes >= node_budget:
            # Drop the frame.  Each frame below that resumes past its bound
            # counts one more node and drops too: the documented over-count.
            exact = False
            continue
        # col passed the filter as each chosen column joined: no recheck.
        col = (cand & -cand).bit_length() - 1
        cand ^= 1 << col  # now the candidates after col
        stack.append((chosen, cand, left - 1))
        grown = chosen + [col]
        kept = survivors(grown, cand)
        stack.append((grown, kept, kept.bit_count()))
    elapsed = time.perf_counter() - start
    # Fewer than u-1 distinct columns exist, or the budget tripped first:
    # u-1 copies of column 0 (all-zero) still have no tuple to violate.
    if len(best) < u - 1:
        best = [0] * (u - 1)
    witness = Matrix(tuple(zip(*(columns[j] for j in best))), q)
    _certify(find_violation(witness, w) is None, f"capacity witness is {w}-separating")
    return CapacityResult(
        rows=n_rows,
        q=q,
        weights=w.weights,
        value=len(best),
        witness=witness,
        nodes=nodes,
        elapsed=elapsed,
        exact=exact,
    )


def random_shf_alteration(
    n_rows: int, q: int, weights, seed: int, trials: int = 1
) -> Matrix:
    """Random construction with deletion: sample columns, prune violations.

    Starts from an expectation-optimal number of random columns (at least
    2u, at most 4096), then deletes each violation's highest column until
    the oracle accepts; that last call certifies the returned matrix.
    Deterministic for a fixed seed; with trials > 1 the largest verified
    family over per-trial seeds is returned.
    """
    w = normalize_weights(weights)
    if w.t < 2:
        raise ValueError("need at least two parts")
    if q < w.t:
        raise PreconditionError(
            f"need q >= t = {w.t}: fewer symbols can never separate {w.t} parts"
        )
    if n_rows < 1:
        raise ValueError("need N >= 1")
    if trials < 1:
        raise ValueError("need trials >= 1")
    u = w.u
    # log of the optimum (u * (1-g)**N)**(-1/(u-1)), as (1-g)**N can underflow
    # to 0.0; g = 0 makes it negative, so 2u wins.
    log_pool = -(math.log(u) + n_rows * _log_miss(q, u)[1]) / (u - 1)
    m_init = min(max(2 * u, math.ceil(math.exp(min(log_pool, math.log(4096))))), 4096)

    best: Matrix | None = None
    for trial in range(trials):
        rng = random.Random(seed + trial)
        cols = [
            tuple(rng.randrange(q) for _ in range(n_rows)) for _ in range(m_init)
        ]
        # Each deletion only removes tuples.  The oracle accepts below u
        # columns and a witness has u, so cols never drops below u-1.
        while True:
            result = Matrix(tuple(zip(*cols)), q)
            witness = find_violation(result, w)
            if witness is None:
                break
            cols.pop(max(c for part in witness.parts for c in part))
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


def _closes_cycle(c, chosen, ks, q, vertex_mask, edges_at):
    """True iff candidate c, linear with the chosen edges, closes a rainbow cycle.

    chosen is a bitmask of candidate indices and ks the ascending cycle
    lengths; vertex_mask and edges_at come from hypergraph._cube, where
    edges_at[e][p] holds the candidates through edge e's vertex in part p.
    Linearity leaves consecutive cycle edges exactly one shared vertex, so
    a rainbow k-cycle through c is a path c -> E1 -> ... -> E(k-1) -> c over
    distinct chosen edges whose k shared vertices lie in k distinct parts.
    The path grows through the incidence masks of its last edge's vertices
    in unused parts, masked to the chosen edges off it.
    """
    parts = len(edges_at[c])
    k_max = ks[-1]
    new_mask = vertex_mask[c]

    def walk(edge, length, used_parts, avail):
        # Grow the path c, ..., edge (length edges, its length - 1 shared
        # vertices in used_parts) by one edge of avail through an unused part.
        for p in range(parts):
            if used_parts >> p & 1:
                continue
            used = used_parts | 1 << p
            nxt = edges_at[edge][p] & avail
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                e = low.bit_length() - 1
                if length + 1 in ks:
                    shared = vertex_mask[e] & new_mask
                    if shared and not used >> ((shared.bit_length() - 1) // q) & 1:
                        return True
                if length + 1 < k_max and walk(e, length + 1, used, avail ^ low):
                    return True
        return False

    return walk(c, 1, 0, chosen)


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
    find_rainbow_cycle) before returning.  The search recurses once per
    chosen edge, at most part_size**2 <= 25 deep: linear edges never share
    a vertex pair, and parts 0 and 1 have only part_size**2 of them.
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
    q = part_size
    candidates, vertex_mask, edges_at, _ = _cube(parts, q)
    n = len(candidates)
    # One bit per vertex pair in distinct parts: two edges share two
    # vertices iff their pair masks meet.
    part_pairs = list(combinations(range(parts), 2))
    pair_mask = [
        sum(1 << ((i * q + e[a]) * q + e[b]) for i, (a, b) in enumerate(part_pairs))
        for e in candidates
    ]
    # Seed: pairwise disjoint diagonal edges share no vertex, hence no cycle.
    best = [tuple(s for _ in range(parts)) for s in range(q)]
    nodes = 0
    certified = True

    def dfs(start, size, chosen, covered):
        # chosen: bitmask of the chosen candidates; covered: OR of their pair masks.
        nonlocal best, nodes, certified
        if size > len(best):
            best = [candidates[c] for c in _bits(chosen)]
        for idx in range(start, n):
            if size + (n - idx) <= len(best):
                return
            nodes += 1
            if nodes >= node_budget:
                certified = False
                return
            if pair_mask[idx] & covered or _closes_cycle(
                idx, chosen, ks, q, vertex_mask, edges_at
            ):
                continue
            dfs(idx + 1, size + 1, chosen | 1 << idx, covered | pair_mask[idx])

    dfs(0, 0, 0, 0)
    h = PartiteHypergraph(parts, q, tuple(best))
    _certify(is_linear_hypergraph(h), "hypergraph is linear")
    for k in ks:
        _certify(find_rainbow_cycle(h, k) is None, f"hypergraph has no rainbow {k}-cycle")
    return RainbowFreeResult(
        edge_count=len(h.edges),
        hypergraph=h,
        nodes=nodes,
        certified=certified,
    )
