"""Constructive lower-bound witnesses and exact small-instance search.

Constructions self-certify: each output is re-checked before being
returned, by the separation oracle (whose distance certificate settles
reed_solomon_frameproof's codes from pairwise column agreement alone) or by
a linear-time sufficient condition (identity_construction: every column has
a private row, a one-column class of the oracle's per-row symbol classes),
and a failed re-check raises CertificationError (an explicit raise, so it
also runs under python -O).  random_shf_alteration prunes until the oracle
accepts and returns the matrix that last call accepted, with no second call.

Both exact searches take their candidate space from _cube, the one builder
of the vertex-bit layout: all q**N columns (or edges) in lexicographic
order, each one's vertex mask (symbol s in row r is bit r*q + s) and each
vertex's incidence mask, the candidates through it.  Anything more per
candidate is built by the search that reads it.  exact_capacity runs one
loop over an explicit stack of frames, whose chosen sets are prefixes of one
shared path and whose holed-tuple lists hang on one persistent chain (memory
linear in the depth and in the tuples); rainbow_free_extremal_search runs
one recursive dfs closure on the chosen and live edge bitmasks.  Neither
keeps more: sizes are popcounts, and a search is complete iff it counted
fewer nodes than its budget.

exact_capacity enumerates column sets in canonical form: per-row symbol
relabeling maps some column of any family to the all-zero column, which is
then the lexicographically smallest, so searching ascending column sets
whose first member is all-zero covers every family up to relabeling.  The
branch-and-bound kernel carries its candidates as one bitmask, free of any
column that would complete an unseparated tuple.  When a column joins, one
loop over the "holed" tuples through it (sizes W with one part one short)
clears every candidate that completes one.  Rows where two parts of a
holed tuple share a symbol are bad; they are found on the columns' vertex
masks, each row's q-bit field filled by one carry trick.  The tuple's key
is the OR of the vertex masks of its members outside the short part with
the bad rows' fields cleared, and the candidates it forbids are the
columns that show, in every row where the key has a symbol, one of those
symbols.  That set depends on the key alone: it is built once per call
from the per-vertex incidence masks and memoized, so a tuple costs one
lookup.  Everything a holed tuple needs but the joining column's vertex
mask comes from the frame's chosen set, so each frame walks its holed
tuples once for all its children (_holed_tuples, only those through its
newest column, the rest being on its parent's chain), and each child
runs one flat loop over the chain: an AND, a fill when the joiner shares
a symbol with a part it does not join, and the lookup.

rainbow_free_extremal_search adds candidate edges in lexicographic order.
Each node carries its live candidates as one bitmask, as exact_capacity's
stack frames do.  When an edge joins, two masks leave the child's: the
candidates sharing two vertices with it (its conflict mask, ANDs of the
incidence masks of its vertices) and _doomed's, those closing a rainbow
cycle through it.  The edge's record, those incidence masks, its near mask
(the candidates sharing a vertex with it) and its conflict mask, depends on
the edge alone, so it is built when the edge first joins and kept for the
call.  _doomed's mask is built once per descent by joining pairs of "arms",
rainbow paths from the new edge over chosen edges, so no candidate is walked
on its own.  An arm grows over the chosen edges in its end's near mask, not
over the parts: the chosen edges and the new one are pairwise linear, so two
of them share at most one vertex, one bit of their vertex masks, whose part
is read off the bit's index.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from operator import and_, or_

from .bounds import _log_miss
from .hypergraph import PartiteHypergraph, _bits, _cycles, is_linear_hypergraph
# CertificationError is re-exported: sephash.search.CertificationError stays.
from .matrix import (
    CertificationError,
    Matrix,
    _certify,
    _integer,
    _rows_and_alphabet,
    _type,
    write_matrix,
)
from .verification import PreconditionError, _Agreement, _equal_size_runs, find_violation

_DEFAULT_NODE_BUDGET = 5_000_000

_DEFAULT_RAINBOW_FREE_BUDGET = 200_000


def _cube(parts: int, q: int):
    """Every point of range(q)**parts, in lexicographic order, with its masks.

    The exact searches take these points as candidate columns or edges.
    Returns (points, masks, incidence): masks[j] is point j's vertex mask,
    vertex (p, s) being bit p*q + s, and incidence[v] the points through
    vertex v (those sharing point j's symbol in part p are
    incidence[p*q + points[j][p]]).  In lexicographic order vertex (p, s)
    holds a run of q**(parts-1-p) points at offset s times that run,
    repeated with period q**(parts-p), so each incidence mask is one run
    times one comb, shifted.
    """
    points = list(product(range(q), repeat=parts))
    masks = [sum(1 << (p * q + s) for p, s in enumerate(point)) for point in points]
    incidence = []
    for p in range(parts):
        run = q ** (parts - 1 - p)
        period = run * q
        # comb: bit i*period for each of the q**p periods.
        comb = ((1 << len(points)) - 1) // ((1 << period) - 1)
        base = ((1 << run) - 1) * comb
        incidence += [base << (s * run) for s in range(q)]
    return points, masks, incidence


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
    n_rows, w = _integer(n_rows, "N"), _integer(w, "w")
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
    q, n_rows, w = _integer(q, "q"), _integer(n_rows, "N"), _integer(w, "w")
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
    k, q = _integer(k, "k"), _integer(q, "q")
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
    """Part slots (size, holds the joiner, run) of holed tuples.

    Slot 0 is the hole, one short of its weight.  One layout per place the
    joiner (the column joining the chosen set) can sit: the hole, or a part
    of each other size.  The remaining equal-size parts are interchangeable,
    so they ascend by smallest member: a slot after an equal-size one takes
    only columns above that part's smallest member, and needs run of them
    for it and the rest of its run (size times those slots).  Other slots
    have run 0.
    """

    def ascending(rest):
        return [(v, False, run) for v, run in zip(rest, _equal_size_runs(rest))]

    layouts = []
    for w in sorted(set(weights)):
        rest = list(weights)
        rest.remove(w)
        if w > 1:
            layouts.append([(w - 1, True, 0)] + ascending(rest))
        for s in sorted(set(rest)):
            others = list(rest)
            others.remove(s)
            layouts.append([(w - 1, False, 0), (s, True, 0)] + ascending(others))
    return layouts


def _holed_tuples(layouts, masks, prior, q, body, top):
    """The holed tuples through prior's newest column, each without its joiner.

    prior is an ascending list of chosen columns, masks the vertex masks
    and layouts _holed_layouts'; the joiner's slot takes one member fewer
    from prior.  Each tuple comes once, as (bad, other, out, into_hole):
    the q-bit fields of the rows where two of its parts share a symbol,
    the vertices of the parts the joiner does not join, those of the parts
    after the hole, and whether the joiner joins the hole.  None of them
    depends on the joiner.  body and top are exact_capacity's row-field
    masks, and prior is never empty.

    The newest column, prior[-1], is the largest of every pool that holds
    it.  So the last slot with members to take takes newest, as its
    largest member, when no earlier slot took it.
    """
    newest = prior[-1]
    tuples = []
    for slots in layouts:
        # Each frame fills slot k: its untried combinations, bad, seen (the
        # filled parts' vertices), other, out and avail (the ascending
        # columns left).  The last slot's combinations are the leaves; at
        # is the last slot with members to take.
        last, into_hole = len(slots) - 1, slots[0][1]
        at = last if slots[last][0] > slots[last][1] else last - 1
        size, has_col, _ = slots[0]
        combos = _combinations_with(prior, size - has_col, newest if at == 0 else None)
        stack = [(0, combos, 0, 0, 0, 0, prior)]
        while stack:
            k, combos, bad, seen, other, out, avail = stack[-1]
            joined = slots[k][1]
            for combo in combos:
                syms = 0
                for x in combo:
                    syms |= masks[x]
                b, shared = bad, syms & seen
                if shared:
                    # A field's top bit is set iff the field is nonzero:
                    # adding body carries into it from any lower bit, and
                    # no carry leaves the field.  Then fill each such field.
                    hit = ((shared & body) + body | shared) & top
                    b |= (hit << 1) - (hit >> (q - 1))
                apart = other if joined else other | syms
                if k == last:
                    tuples.append((b, apart, out | syms, into_hole))
                    continue
                size, has_col, run = slots[k + 1]
                rest = avail.copy()
                for x in combo:
                    rest.remove(x)
                pool = rest[bisect(rest, combo[0]) :] if run else rest
                # Too few columns above combo[0] for the run: no leaf lies
                # below this or any later combination.  End the frame.
                if len(pool) < run:
                    stack.pop()
                    break
                nxt = _combinations_with(pool, size - has_col, newest if k + 1 == at else None)
                stack.append((k + 1, nxt, b, seen | syms, apart, out | syms if k else 0, rest))
                break
            else:
                stack.pop()
    return tuples


def _combinations_with(pool, width, newest):
    """Iterator over the ascending width-combinations of the ascending pool.

    When pool ends in newest, only those holding it, as their last member.
    """
    if not pool or pool[-1] != newest:
        return combinations(pool, width)
    return (head + (newest,) for head in combinations(pool[:-1], width - 1)) if width else iter(())


def exact_capacity(
    n_rows: int, q: int, weights, node_budget: int = _DEFAULT_NODE_BUDGET
) -> CapacityResult:
    """Largest n for which an N x n W-separating matrix over q symbols exists.

    Exhaustive up to per-row symbol relabeling; requires q**N <= 10_000
    candidate columns and an integer node_budget >= 1.  When the node budget
    trips, the best family found so far is returned with exact=False, but
    never fewer than u-1 columns: any u-1 columns, duplicates included, are
    vacuously separating.  The reported nodes can then exceed node_budget by
    up to the depth reached, as each level above the trip counts one more
    candidate before it sees it.  The budget trips exactly when the count
    reaches it, so exact is nodes < node_budget.

    A candidate is forbidden by a holed tuple if, in every row where no two
    parts share a symbol (a good row), it shows a symbol of some member
    outside the hole.  The leaf keys this test by one vertex mask: the OR of
    the outside members' vertex masks with the bad rows' q-bit fields
    cleared.  Every row holds some symbol of the outside members, so the
    key's nonzero row fields are exactly the good rows, and the forbidden
    columns are those that show, in each of them, a symbol the key holds.
    That set depends on the key alone, so its complement is memoized for the
    call.  Key 0 means every row is bad: it forbids every candidate.

    The key of a holed tuple through the joiner c, a column joining the
    chosen set P, needs only c's vertex mask and four facts about P's
    members in the tuple: bad_P, the rows where two parts share a symbol;
    other, the vertices of the parts c does not join; out, those of the
    parts after the hole; and whether c joins the hole.  A row is bad iff
    two different parts share a symbol there: two parts of P-members do
    so in bad_P's rows, and c shares one with a part it does not join
    exactly where masks[c] & other has a bit.  Filling a row's field
    distributes over OR (the field of fill(a | b) is full iff that field
    of a or of b is nonzero), so bad(c) = bad_P | fill(masks[c] & other),
    and the key is out & ~bad(c) when c joins the hole, else
    (out | masks[c]) & ~bad(c).  The tuples from P are those from each
    prefix of P through its last column, so each frame walks only the
    ones through its newest column and links them onto its parent's chain.
    """
    w = _type(weights)
    n_rows, q = _rows_and_alphabet(n_rows, q)
    # q**14 > 10_000 for every q >= 2: never build a huge q**N to refuse it.
    if q ** min(n_rows, 14) > 10_000:
        raise ValueError("search space too large: need q**N <= 10000")
    if _integer(node_budget, "node_budget") < 1:
        raise ValueError("need node_budget >= 1")
    start = time.perf_counter()
    u = w.u
    # masks[j]: bit r*q + s set iff column j shows symbol s in row r.
    # incidence[r*q + s]: the columns that show symbol s in row r.
    columns, masks, incidence = _cube(n_rows, q)
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

    def spare(key):
        by_row = {}
        for v in _bits(key):
            by_row[v // q] = by_row.get(v // q, 0) | incidence[v]
        return everything ^ reduce(and_, by_row.values(), everything)

    def survivors(links, col, allowed):
        # The candidates in allowed that complete no unseparated tuple with
        # the chosen set and col.  Only tuples through col are examined; the
        # rest were vetted one level up.  Such a tuple minus the candidate
        # is a holed tuple through col, on the chain without col.  Each
        # keeps only spared[key], key being the vertices of its members
        # outside the hole off its bad rows.
        vertices = masks[col]
        while links and allowed:
            tuples, links = links
            for bad, other, out, into_hole in tuples:
                shared = vertices & other
                if shared:
                    hit = ((shared & body) + body | shared) & top
                    bad |= (hit << 1) - (hit >> (q - 1))
                key = (out if into_hole else out | vertices) & ~bad
                kept = spared.get(key)
                if kept is None:
                    kept = spared[key] = spare(key)
                allowed &= kept
                if not allowed:
                    return 0
        return allowed

    # Each frame: the depth of its chosen set, path[:depth], its candidates
    # not yet tried (a bitmask, tried in ascending order), links and fresh.
    # The frames' chosen sets are prefixes of one shared path, as each frame
    # lies above the shallower ones.  links is the chain of holed tuples
    # from the chosen set, a (tuples, parent links) pair or None, which a
    # fresh frame extends at its first expansion by those through its
    # newest column (an empty list is not linked).  Those need u-2 chosen
    # columns, so none come before depth u-2, where each uses every chosen
    # column.  {1,1} (u = 2) has no chain: its one holed tuple has no
    # chosen member, and its key, the joiner's own vertex mask, forbids
    # only the joiner, never among its candidates.  Canonical: the all-zero
    # column is index 0.  No root filter: a lone column and a candidate are
    # unseparated only if u = 2 and equal.
    path = [0]
    stack = [(1, everything ^ 1, None, True)]
    while stack:
        depth, cand, links, fresh = stack.pop()
        del path[depth:]
        if depth > len(best):
            best = path[:]
        if depth + cand.bit_count() <= len(best):
            continue
        nodes += 1
        if nodes >= node_budget:
            # Drop the frame.  Each frame below that resumes past its bound
            # counts one more node and drops too: the documented over-count.
            continue
        if fresh and 0 < u - 2 <= depth:
            tuples = _holed_tuples(layouts, masks, path, q, body, top)
            if tuples:
                links = (tuples, links)
        # col passed the filter as each chosen column joined: no recheck.
        col = (cand & -cand).bit_length() - 1
        cand ^= 1 << col  # now the candidates after col
        stack.append((depth, cand, links, False))
        path.append(col)
        stack.append((depth + 1, survivors(links, col, cand), links, True))
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
        exact=nodes < node_budget,
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
    w = _type(weights)
    n_rows, q = _rows_and_alphabet(n_rows, q)
    seed = _integer(seed, "seed")
    if q < w.t:
        raise PreconditionError(f"need q >= t = {w.t}: fewer symbols can never separate {w.t} parts")
    if _integer(trials, "trials") < 1:
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


def _free_part_pairs(parts):
    """Per bitmask of used parts, the part pairs a < b outside it."""
    pairs = list(combinations(range(parts), 2))
    return [
        [(a, b) for a, b in pairs if not (used >> a | used >> b) & 1]
        for used in range(1 << parts)
    ]


def _arm_splits(ks):
    """The (short, rest) arm lengths of a k-cycle, k in ks, by ascending rest.

    A cycle of length k through the new edge and a candidate leaves two
    arms of lengths summing to k - 2; short <= rest lists each split once.
    """
    splits = [(k - 2 - rest, rest) for k in ks for rest in range((k - 1) // 2, k - 1)]
    return sorted(splits, key=lambda split: split[1])


def _doomed(i, chosen, splits, q, masks, joined, free_pairs):
    """Candidates that close a rainbow k-cycle, k in ks, through edge i.

    chosen is a bitmask of candidate indices (i not among them), splits
    _arm_splits(ks) and q the part size.  masks[e] is edge e's vertex mask
    (from _cube), and joined[e] = (at, near, conflict) its record
    for i and every chosen e: at[p] holds the candidates through its vertex
    in part p and near those sharing a vertex with it.  free_pairs comes
    from _free_part_pairs.  Exact for every candidate c
    linear with the chosen edges and i, the only ones the search asks
    about.  Linearity leaves consecutive cycle edges exactly one shared
    vertex, so a rainbow k-cycle through c and i, with c left out, is a
    path through i between c's two neighbours.  Split at i, it is two
    "arms": rainbow paths from i over chosen edges, of lengths summing to
    k - 2, that share no edge and no part.  c then meets one arm's end in a
    part a and the other's in a part b, both free.

    An arm grows by a chosen edge off its path that meets its end in a part
    the arm has not used.  So it walks the chosen edges off its path that
    meet its end (near & chosen & ~path, near from end's record), not the
    parts.  The chosen edges and i are pairwise linear, so such an edge e
    shares exactly one vertex with the end: masks[end] & masks[e] has one
    bit, and that vertex's part is the bit's index // q.  Every arm has a
    shorter arm as its prefix, so once some length has no arm no longer one
    exists: the growth stops there, and only the splits whose longer arm
    exists are paired.
    """
    # arms[length]: (end, used parts, edges beyond i) of each arm.
    arms = [[(i, 0, 0)]]
    for _ in range(splits[-1][1]):
        grown = []
        for end, used, path in arms[-1]:
            vertices = masks[end]
            nxt = joined[end][1] & chosen & ~path
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                e = low.bit_length() - 1
                part = 1 << ((vertices & masks[e]).bit_length() - 1) // q
                if not used & part:
                    grown.append((e, used | part, path | low))
        if not grown:
            break
        arms.append(grown)
    doomed = 0
    for short, rest in splits:
        if rest >= len(arms):
            break
        for x, (end1, used1, path1) in enumerate(arms[short]):
            # Equal lengths: each unordered pair of arms once.
            for end2, used2, path2 in arms[rest][x + 1 :] if short == rest else arms[rest]:
                if used1 & used2 or path1 & path2:
                    continue
                at1, at2 = joined[end1][0], joined[end2][0]
                for a, b in free_pairs[used1 | used2]:
                    doomed |= at1[a] & at2[b] | at1[b] & at2[a]
    return doomed


def rainbow_free_extremal_search(
    parts: int, part_size: int, k_range, node_budget: int = _DEFAULT_RAINBOW_FREE_BUDGET
) -> RainbowFreeResult:
    """Largest linear hypergraph avoiding rainbow cycles of the given lengths.

    Exhaustive subset search over all part_size**parts candidate edges in
    lexicographic order.  Each node keeps `alive`, the candidates after its
    newest edge that are linear with the chosen edges and close no rainbow
    cycle with them.  When edge i joins, the child keeps those alive after
    i that share at most one vertex with i (not in its conflict mask) and
    close no cycle through i (not in _doomed's mask).  Inheriting `alive`
    is exact: a candidate that is not linear with, or closes a cycle with,
    some chosen edges still does once i joins them, and a cycle that i
    makes possible passes through i.  A candidate's record depends on it
    alone, not on the node: at[p], the incidence mask of its vertex in
    part p; near, the OR of at, those sharing a vertex with it; and its
    conflict mask, the OR over part pairs a < b of at[a] & at[b].  It is
    built when the candidate first joins and kept for the call, never for
    a candidate that never joins.  The diagonal matching seeds the
    search, so the result always has at least part_size edges.  node_budget
    must be an integer of at least 1; budget overruns return the best found,
    flagged uncertified: only a trip brings the count to the budget, so
    certified is nodes < node_budget.

    Nodes count candidates as a loop over every candidate after the newest
    edge would: one per candidate until the size bound stops it, alive or
    not.  The loop visits only alive candidates and adds the filtered ones
    between them to the count arithmetically, so the budget trips at the
    same candidate.  The reported nodes can exceed node_budget by up to the
    depth reached, as each level above the trip counts one more candidate
    before it sees it.  The final result is re-verified from scratch
    (is_linear_hypergraph, then find_rainbow_cycle's walk at every k of
    k_range on one agreement kernel) before returning.  The
    search recurses once per chosen edge, at most part_size**2 <= 25 deep:
    linear edges never share a vertex pair, and parts 0 and 1 have only
    part_size**2 of them.
    """
    parts, part_size = _integer(parts, "parts"), _integer(part_size, "part_size")
    if parts > 6 or part_size > 5:
        raise ValueError("desk-scale search: need parts <= 6 and part_size <= 5")
    if parts < 1 or part_size < 1:
        raise ValueError("need at least one part and one vertex")
    ks = sorted(set(_integer(k, "cycle length") for k in k_range))
    if not ks:
        raise ValueError("need at least one cycle length")
    for k in ks:
        if not 3 <= k <= parts:
            raise ValueError(f"cycle length {k} outside [3, {parts}]")
    if _integer(node_budget, "node_budget") < 1:
        raise ValueError("need node_budget >= 1")
    q = part_size
    candidates, masks, incidence = _cube(parts, q)
    n = len(candidates)
    free_pairs = _free_part_pairs(parts)
    splits = _arm_splits(ks)
    # joined[idx]: (at, near, conflict) of candidate idx, built when it first
    # joins and kept for the call: at[p] the candidates through its vertex
    # in part p, near those sharing a vertex with it, conflict two.
    joined = {}
    # Seed: pairwise disjoint diagonal edges share no vertex, hence no cycle.
    best = [tuple(s for _ in range(parts)) for s in range(q)]
    nodes = 0

    def dfs(chosen, alive):
        # chosen: bitmask of the chosen candidates, its popcount the size
        # and its bit length the first candidate after the highest of them;
        # alive: the candidates from there on that may join.
        nonlocal best, nodes
        size = chosen.bit_count()
        if size > len(best):
            best = [candidates[c] for c in _bits(chosen)]
        start = chosen.bit_length()
        while True:
            # The size bound stops the loop at the first idx >= limit.
            limit = n + size - len(best)
            idx = (alive & -alive).bit_length() - 1 if alive else n
            # Count the candidates from start through idx (to limit when the
            # bound stops the loop) as nodes.  A trip lands on the one that
            # reaches the budget, or on the first one counted when a deeper
            # trip already passed it.
            stop = idx + 1 if idx < limit else limit
            if stop > start:
                if nodes + stop - start >= node_budget:
                    nodes = max(nodes + 1, node_budget)
                    return
                nodes += stop - start
            if idx >= limit:
                return
            alive ^= 1 << idx
            start = idx + 1
            record = joined.get(idx)
            if record is None:
                at = tuple(incidence[p * q + s] for p, s in enumerate(candidates[idx]))
                conflict = reduce(or_, [at[a] & at[b] for a, b in free_pairs[0]], 0)
                record = joined[idx] = (at, reduce(or_, at), conflict)
            child = alive & ~record[2]
            if child:
                child &= ~_doomed(idx, chosen, splits, q, masks, joined, free_pairs)
            dfs(chosen | 1 << idx, child)

    dfs(0, (1 << n) - 1)
    h = PartiteHypergraph(parts, q, tuple(best))
    _certify(is_linear_hypergraph(h), "hypergraph is linear")
    for k, cycle in zip(ks, _cycles(h, ks)):
        _certify(cycle is None, f"hypergraph has no rainbow {k}-cycle")
    return RainbowFreeResult(
        edge_count=len(h.edges),
        hypergraph=h,
        nodes=nodes,
        certified=nodes < node_budget,
    )
