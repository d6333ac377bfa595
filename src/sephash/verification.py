"""Separation oracles and greedy subfamily extraction.

A matrix is {w1,...,wt}-separating when every choice of pairwise disjoint
column sets C1,...,Ct with |Ci| = wi admits a row on which the symbol sets
of the parts are pairwise disjoint.  find_violation decides this exactly.
It first tries the distance certificate (no two columns agree in more than
(N-1) // sum_{i<j} wi*wj rows), which proves separation without looking at
a part tuple.  Otherwise one pass over the part tuples, carrying the OR of
the rows left unseparated, decides it and returns a reproducible
certificate when the property fails.  The pass and its cover search
(_first_cover, which is_cff runs only to name the witness of a member it
has already found covered) are loops, so no part is too wide for the
interpreter's recursion limit.  _Agreement computes column agreement: its
scan for the first pair agreeing in more than L rows counts, for each
column x past 0, every column's agreement with x at once on per-(row,
symbol) column masks, at most min(L+1, N-L) big-integer operations per
row.

Everything here is pure and operates on immutable matrices; calls are safe
to run concurrently.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import or_

from .matrix import Matrix, _integer, normalize_weights


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold for the input."""


@dataclass(frozen=True)
class ViolationWitness:
    """Pairwise disjoint column sets that no row of the matrix separates.

    Parts are sorted tuples, ordered by size then by smallest member, so a
    given matrix and type always yield the same certificate.
    """

    parts: tuple[tuple[int, ...], ...]

    def as_json_dict(self, checked_rows: int) -> dict:
        return {"parts": [list(p) for p in self.parts], "checked_rows": checked_rows}


@dataclass(frozen=True)
class SpecialColumnReport:
    """A column owning a coordinate shared by at most one other column."""

    column: int
    row: int
    sharers: int

    def __post_init__(self):
        if self.sharers > 1:
            raise ValueError("a special coordinate has at most one sharer")


def row_separates(m: Matrix, row: int, parts) -> bool:
    """True iff the symbol sets of the parts on this row are pairwise disjoint.

    This is the definitional check; certificate re-validation goes through
    it rather than through the pruned enumeration path.
    """
    row = _integer(row, "row")
    if not 0 <= row < m.rows:
        raise IndexError(f"row {row} out of range")
    norm = []
    seen: set[int] = set()
    for part in parts:
        cur = tuple(part)
        for c in cur:
            if type(c) is not int:
                # A float or other number stands for the int it equals.
                cur = tuple(_integer(v, "column") for v in cur)
                c = int(c)
            if not 0 <= c < m.cols:
                raise IndexError(f"column {c} out of range")
            if c in seen:
                raise ValueError(f"parts overlap at column {c}")
            seen.add(c)
        norm.append(cur)
    symbols = m.entries[row]
    symbol_sets = [{symbols[c] for c in part} for part in norm]
    return all(
        a.isdisjoint(b) for a, b in combinations(symbol_sets, 2)
    )


def _first_cover(masks, need: int, size: int, free) -> tuple[int, ...] | None:
    """First ascending size-combination of the columns in free covering need.

    free is an ascending list of columns.  A combination covers need when
    the OR of its members' masks holds every bit of need; combinations are
    tried in lexicographic order: each head of size - 1 members in turn,
    then the first last member after it that covers what the head leaves.
    """
    for head in combinations(range(len(free) - 1), size - 1):
        left = need
        for i in head:
            left &= ~masks[free[i]]
        for z in free[head[-1] + 1 if head else 0 :]:
            if masks[z] & left == left:
                return tuple(free[i] for i in head) + (z,)
    return None


class _Agreement:
    """Pairwise column agreement from per-row symbol classes, built once.

    classes[r] maps each symbol of row r to its ascending columns; bit r of
    row(x)[z], built on first use and kept, is set iff columns x and z agree
    in row r.  Building a row costs a Python step per column of x's class
    in every row, about N*n/q; meeting(x), the columns agreeing with x
    somewhere as one mask, costs the same and is also kept, while
    rows_agreeing(x, z) compares one pair in O(N) and keeps nothing.

    first_pair_over checks column 0 on row(0): the search's first part
    always holds column 0, so it needs that row anyway, and a failing input
    usually has its first pair there.  For each later column x it counts
    every column's agreement with x at once.  The column mask of (r, s)
    has bit z set iff entries[r][z] == s, except for the class's first
    column, which is never above an x of the class (so a class of one
    column costs nothing).  A threshold ladder at[j] holds the columns
    agreeing with x in more than j of the rows seen so far: with m the
    mask of x's symbol in row r, at[j] |= at[j-1] & m for j from min(r, L)
    down to 1, then at[0] |= m.  Levels below L minus the rows left after
    r can no longer pass L and are skipped, so a row costs at most
    min(L+1, N-L) operations on n-bit integers.  The masks, up to N*q of n
    bits, are built when the scan first passes column 0 and kept for the
    call.
    """

    def __init__(self, m: Matrix):
        self.entries = m.entries
        self.classes: list[dict[int, list[int]]] = [{} for _ in m.entries]
        for by_symbol, symbols in zip(self.classes, m.entries):
            for z, s in enumerate(symbols):
                by_symbol.setdefault(s, []).append(z)
        self.memo: list[list[int] | None] = [None] * m.cols
        self.met: dict[int, int] = {}

    def row(self, x: int) -> list[int]:
        if self.memo[x] is None:
            got = self.memo[x] = [0] * len(self.memo)
            for r, (symbols, by_symbol) in enumerate(zip(self.entries, self.classes)):
                for z in by_symbol[symbols[x]]:
                    got[z] |= 1 << r
        return self.memo[x]

    def rows_agreeing(self, x: int, z: int) -> list[int]:
        """The rows where columns x and z agree, ascending."""
        return [r for r, symbols in enumerate(self.entries) if symbols[x] == symbols[z]]

    def meeting(self, x: int) -> int:
        """Bit z set iff columns x and z agree in some row (x included)."""
        if x not in self.met:
            cols = {z for symbols, by_symbol in zip(self.entries, self.classes) for z in by_symbol[symbols[x]]}
            self.met[x] = sum(map((1).__lshift__, cols))
        return self.met[x]

    def first_pair_over(self, limit: int) -> tuple[int, int, int] | None:
        """First (x, z, agreements > limit), x < z lexicographic, or None.

        Column 0 is checked on row(0), columns 1 and up on the column-mask
        ladder (class docstring).
        """
        n, entries = len(self.memo), self.entries
        if n < 2:
            return None
        got = self.row(0)
        if any(map(limit.__lt__, map(int.bit_count, got[1:]))):
            z = 1
            while got[z].bit_count() <= limit:
                z += 1
            return 0, z, got[z].bit_count()
        n_rows = len(entries)
        if limit >= n_rows:
            return None
        # Per row: its symbols, its column masks, the ladder levels j >= 1
        # it raises (descending) and whether it starts level 0.  Level j
        # is kept only while it can still reach limit + 1 (j >= limit -
        # rows left after this one).
        plan = []
        for r, (symbols, by_symbol) in enumerate(zip(entries, self.classes)):
            lo = limit - (n_rows - 1 - r)
            masks = {s: sum(map((1).__lshift__, cls[1:])) for s, cls in by_symbol.items()}
            plan.append((symbols, masks, range(min(r, limit), max(lo, 1) - 1, -1), lo <= 0))
        for x in range(1, n - 1):
            # at[j]: the columns agreeing with x in more than j rows so far.
            at = [0] * (limit + 1)
            for symbols, masks, levels, start in plan:
                m = masks[symbols[x]]
                for j in levels:
                    at[j] |= at[j - 1] & m
                if start:
                    at[0] |= m
            over = at[limit] >> (x + 1)
            if over:
                z = x + (over & -over).bit_length()
                return x, z, len(self.rows_agreeing(x, z))
        return None


def find_violation(m: Matrix, weights) -> ViolationWitness | None:
    """Exact separation oracle.

    Returns None iff the matrix is {w1,...,wt}-separating.  When it is not,
    returns the first violating part tuple in the canonical order: parts in
    ascending-size order, each an ascending column combination, tuples in
    lexicographic order, and equal-size neighbours ascending by smallest
    member.  Matrices with fewer than u columns are vacuously separating.

    Distance certificate (cf. Stinson, Wei and Chen, "On generalized
    separating hash families", JCTA 2008), tried before any tuple: a row is
    unseparated for a tuple exactly where two columns from different parts
    agree, and a tuple has pairs = sum_{i<j} wi*wj such cross-part column
    pairs.  If no two columns agree in more than limit = (N-1) // pairs
    rows, every tuple has at most pairs*limit < N unseparated rows, so the
    matrix separates (a one-part type has no cross-part pair and always
    separates).  Only the search below produces witnesses, so a certified
    input gets the same None the search would have returned.

    One depth-first pass carries bad, the rows already unseparated, and
    reach[z], the OR of completed parts' agreement rows with z; the last
    part is the first free combination whose reach covers the rows not yet
    bad (_first_cover).  The pass is one loop, a stack frame per leading part.
    A frame ends once its part leaves fewer free columns above its smallest
    member than the rest of its equal-size run needs: every later
    combination starts higher, so no witness lies there.
    """
    sizes = normalize_weights(weights).weights
    n = m.cols
    # The search would also find nothing, but only after trying every way
    # to fill the leading parts, a count exponential in the column count.
    if n < sum(sizes):
        return None
    pairs = sum(a * b for a, b in combinations(sizes, 2))
    if not pairs:
        return None
    agreement = _Agreement(m)
    if agreement.first_pair_over((m.rows - 1) // pairs) is None:
        return None
    agreement_row = agreement.row
    full = (1 << m.rows) - 1
    last = len(sizes) - 1
    # runs[k]: when part k is as large as part k-1, the columns above part
    # k-1's smallest member that part k and the rest of its equal-size run
    # need (size times those parts); else 0.
    runs = [v * sizes[k:].count(v) if k and sizes[k - 1] == v else 0 for k, v in enumerate(sizes)]
    # Each frame: part k's untried combinations, then bad, reach, the
    # completed parts (k of them) and the ascending columns outside them.
    stack = [(combinations(range(n), sizes[0]), 0, [0] * n, (), list(range(n)))]
    while stack:
        combos, bad, reach, done, free = stack[-1]
        k = len(done)
        for part in combos:
            b, grown, rest = bad, reach, free.copy()
            for x in part:
                b |= reach[x]
                grown = list(map(or_, grown, agreement_row(x)))
                rest.remove(x)
            # Equal-size neighbours ascend by smallest member.
            run = runs[k + 1]
            pool = rest[bisect(rest, part[0]) :] if run else rest
            # Too few columns above part[0] for the run: every later
            # combination starts higher, so no witness lies in this frame.
            if len(pool) < run:
                stack.pop()
                break
            if k + 1 == last:
                cover = _first_cover(grown, full & ~b, sizes[last], pool)
                if cover is not None:
                    return ViolationWitness(done + (part, cover))
            else:
                stack.append((combinations(pool, sizes[k + 1]), b, grown, done + (part,), rest))
                break
        else:
            stack.pop()
    return None


def is_linear_shf(m: Matrix) -> bool:
    """True iff every pair of distinct columns agrees in at most one row."""
    return _Agreement(m).first_pair_over(1) is None


def _special_row(column, counts) -> tuple[int, int] | None:
    """(row, sharers) at the lowest row i with counts[i][symbol] <= 2, or None."""
    for i, (s, count) in enumerate(zip(column, counts)):
        if count[s] <= 2:
            return i, count[s] - 1
    return None


def special_columns(m: Matrix) -> list[SpecialColumnReport]:
    """Each column with a row whose symbol at most one other shows, at its lowest such row."""
    counts = [Counter(row) for row in m.entries]
    found = ((x, _special_row(column, counts)) for x, column in enumerate(m.columns()))
    return [SpecialColumnReport(x, *hit) for x, hit in found if hit is not None]


def extract_nonspecial_subfamily(m: Matrix) -> tuple[Matrix, list[int]]:
    """Greedily delete special columns until none remain.

    Always deletes the lowest-index special column with respect to the
    current subfamily.  Each deletion is chargeable to a (row, symbol) pair
    and a pair can pay for at most two columns, so at most 2*N*q columns are
    ever deleted.  Returns the surviving submatrix and the deleted original
    column indices in deletion order.  The symbol counts are built once and
    each deletion decrements the victim's, so they equal the current
    subfamily's and each victim is its special_columns(...)[0], mapped back.
    """
    columns = m.columns()
    counts = [Counter(row) for row in m.entries]
    alive = list(range(m.cols))
    deleted: list[int] = []
    while True:
        victim = next((x for x in alive if _special_row(columns[x], counts)), None)
        if victim is None:
            return m.submatrix(alive), deleted
        alive.remove(victim)
        deleted.append(victim)
        for count, s in zip(counts, columns[victim]):
            count[s] -= 1


def extract_linear_subfamily(m: Matrix) -> Matrix:
    """Linear subfamily of a 4-row {2,2}-separating matrix.

    Runs the special-column greedy; for a genuine SHF(4; n, q, {2,2}) the
    survivor is guaranteed linear and loses at most 8q columns.  A
    non-linear survivor certifies that the input was not {2,2}-separating
    and raises PreconditionError carrying the offending column pair.
    """
    if m.rows != 4:
        raise PreconditionError("defined only for matrices with exactly 4 rows")
    survivor, _ = extract_nonspecial_subfamily(m)
    pair = _Agreement(survivor).first_pair_over(1)
    if pair is not None:
        err = PreconditionError(
            "input is not {{2,2}}-separating: survivor columns "
            "{} and {} agree in {} rows".format(*pair)
        )
        err.pair = pair[:2]
        raise err
    return survivor
