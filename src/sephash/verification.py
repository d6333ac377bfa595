"""Separation oracles and greedy subfamily extraction.

A matrix is {w1,...,wt}-separating when every choice of pairwise disjoint
column sets C1,...,Ct with |Ci| = wi admits a row on which the symbol sets
of the parts are pairwise disjoint.  find_violation decides this exactly.
It first tries the distance certificate (no two columns agree in more than
(N-1) // sum_{i<j} wi*wj rows), which proves separation without looking at
a part tuple.  Otherwise one pass over the part tuples, carrying the OR of
the rows left unseparated, decides it and returns a reproducible
certificate when the property fails.  _Agreement computes column agreement.

Everything here is pure and operates on immutable matrices; calls are safe
to run concurrently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import or_

from .matrix import Matrix, normalize_weights


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
    if not 0 <= row < m.rows:
        raise IndexError(f"row {row} out of range")
    norm = []
    seen: set[int] = set()
    for part in parts:
        cur = tuple(part)
        for c in cur:
            if not 0 <= c < m.cols:
                raise IndexError(f"column {c} out of range")
            if c in seen:
                raise ValueError(f"parts overlap at column {c}")
            seen.add(c)
        norm.append(cur)
    symbol_sets = [{m.entries[row][c] for c in part} for part in norm]
    return all(
        a.isdisjoint(b) for a, b in combinations(symbol_sets, 2)
    )


def _first_cover(masks, need: int, size: int, start: int, used) -> tuple[int, ...] | None:
    """First ascending size-combination of unused columns >= start covering need.

    A combination covers need when the OR of its members' masks holds every
    bit of need; combinations are tried in lexicographic order.
    """
    n = len(masks)
    if size == 1:
        for z in range(start, n):
            if masks[z] & need == need and not used[z]:
                return (z,)
        return None
    for z in range(start, n - size + 1):
        if not used[z]:
            rest = _first_cover(masks, need & ~masks[z], size - 1, z + 1, used)
            if rest is not None:
                return (z,) + rest
    return None


class _Agreement:
    """Pairwise column agreement from per-row symbol classes, built once.

    classes[r] maps each symbol of row r to its ascending columns; bit r of
    row(x)[z], built on first use, is set iff columns x and z agree in row r.
    """

    def __init__(self, m: Matrix):
        self.entries = m.entries
        self.classes: list[dict[int, list[int]]] = [{} for _ in m.entries]
        for by_symbol, symbols in zip(self.classes, m.entries):
            for z, s in enumerate(symbols):
                by_symbol.setdefault(s, []).append(z)
        self.memo: list[list[int] | None] = [None] * m.cols

    def row(self, x: int) -> list[int]:
        if self.memo[x] is None:
            got = self.memo[x] = [0] * len(self.memo)
            for r, (symbols, by_symbol) in enumerate(zip(self.entries, self.classes)):
                for z in by_symbol[symbols[x]]:
                    got[z] |= 1 << r
        return self.memo[x]

    def first_pair_over(self, limit: int) -> tuple[int, int, int] | None:
        """First (x, z, agreements > limit), x < z lexicographic; drops rows that pass."""
        row, memo = self.row, self.memo
        for x in range(len(memo) - 1):
            got = row(x)
            if any(map(limit.__lt__, map(int.bit_count, got[x + 1 :]))):
                z = x + 1
                while got[z].bit_count() <= limit:
                    z += 1
                return x, z, got[z].bit_count()
            memo[x] = None
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
    bad (_first_cover).
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
    used = [False] * n
    parts: list[list[int]] = [[] for _ in sizes]
    last = len(sizes) - 1

    def place(k: int, start: int, bad: int, reach: list[int]) -> bool:
        part = parts[k]
        if k == last:
            cover = _first_cover(reach, full & ~bad, sizes[k], start, used)
            part.extend(cover or ())
            return cover is not None
        left = sizes[k] - len(part) - 1
        for z in range(start, n - left):
            if used[z]:
                continue
            used[z] = True
            part.append(z)
            if left:
                found = place(k, z + 1, bad | reach[z], reach)
            else:
                grown = reach
                for x in part:
                    grown = list(map(or_, grown, agreement_row(x)))
                nxt = part[0] + 1 if sizes[k + 1] == sizes[k] else 0
                found = place(k + 1, nxt, bad | reach[z], grown)
            if found:
                return True
            part.pop()
            used[z] = False
        return False

    if place(0, 0, 0, [0] * n):
        return ViolationWitness(tuple(tuple(p) for p in parts))
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
