"""Separation oracles and greedy subfamily extraction.

A matrix is {w1,...,wt}-separating when every choice of pairwise disjoint
column sets C1,...,Ct with |Ci| = wi admits a row on which the symbol sets
of the parts are pairwise disjoint.  find_violation decides this exactly,
in one pass over the part tuples that carries the OR of the rows left
unseparated, and returns a reproducible certificate when the property fails.

Everything here is pure and operates on immutable matrices; calls are safe
to run concurrently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import eq, or_

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


def find_violation(m: Matrix, weights) -> ViolationWitness | None:
    """Exact separation oracle.

    Returns None iff the matrix is {w1,...,wt}-separating.  When it is not,
    returns the first violating part tuple in the canonical order: parts in
    ascending-size order, each an ascending column combination, tuples in
    lexicographic order, and equal-size neighbours ascending by smallest
    member.  Matrices with fewer than u columns are vacuously separating.

    One depth-first pass carries bad, the rows already unseparated, and
    reach[z], the OR of completed parts' agreement rows with z; the last
    part is the first free combination whose reach covers the rows not yet
    bad (_first_cover).
    Agreement rows are built lazily from per-row symbol classes.
    """
    sizes = normalize_weights(weights).weights
    n = m.cols
    # The search would also find nothing, but only after trying every way
    # to fill the leading parts, a count exponential in the column count.
    if n < sum(sizes):
        return None
    full = (1 << m.rows) - 1
    classes: list[dict[int, list[int]]] = [{} for _ in m.entries]
    for by_symbol, row in zip(classes, m.entries):
        for z, s in enumerate(row):
            by_symbol.setdefault(s, []).append(z)
    agreement: list[list[int] | None] = [None] * n

    def agreement_row(x: int) -> list[int]:
        if agreement[x] is None:
            got = agreement[x] = [0] * n
            for r, (row, by_symbol) in enumerate(zip(m.entries, classes)):
                for z in by_symbol[row[x]]:
                    got[z] |= 1 << r
        return agreement[x]

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


def _first_nonlinear_pair(columns, limit: int = 1) -> tuple[int, int, int] | None:
    """First (i, j, agreements), i < j lexicographic, with agreements > limit."""
    for (i, a), (j, b) in combinations(enumerate(columns), 2):
        agreements = sum(map(eq, a, b))
        if agreements > limit:
            return i, j, agreements
    return None


def is_linear_shf(m: Matrix) -> bool:
    """True iff every pair of distinct columns agrees in at most one row."""
    return _first_nonlinear_pair(m.columns()) is None


def special_columns(m: Matrix) -> list[SpecialColumnReport]:
    """Columns having some row whose symbol is shared by at most one other.

    Reports the lowest witnessing row per column.
    """
    counts = [Counter(row) for row in m.entries]
    reports = []
    for x in range(m.cols):
        for i, (row, count) in enumerate(zip(m.entries, counts)):
            sharers = count[row[x]] - 1
            if sharers <= 1:
                reports.append(SpecialColumnReport(x, i, sharers))
                break
    return reports


def extract_nonspecial_subfamily(m: Matrix) -> tuple[Matrix, list[int]]:
    """Greedily delete special columns until none remain.

    Always deletes the lowest-index special column with respect to the
    current subfamily.  Each deletion is chargeable to a (row, symbol) pair
    and a pair can pay for at most two columns, so at most 2*N*q columns are
    ever deleted.  Returns the surviving submatrix and the deleted original
    column indices in deletion order.
    """
    alive = list(range(m.cols))
    deleted: list[int] = []
    while alive:
        current = m.submatrix(alive)
        specials = special_columns(current)
        if not specials:
            break
        victim = alive[specials[0].column]
        alive.remove(victim)
        deleted.append(victim)
    return m.submatrix(alive), deleted


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
    pair = _first_nonlinear_pair(survivor.columns())
    if pair is not None:
        err = PreconditionError(
            "input is not {{2,2}}-separating: survivor columns "
            "{} and {} agree in {} rows".format(*pair)
        )
        err.pair = pair[:2]
        raise err
    return survivor
