"""Cover-free families and their exchange with binary separating families.

A binary N x n matrix represents a family of n subsets of an N-element
ground set (entry 1 iff the element belongs to the member).  The family is
w-cover-free when no member is contained in the union of w others, i.e.
every member keeps a private row against every w of its peers.

Cover-free families are exactly the binary {1, w}-separating families up to
a row-doubling transform, which is what powers the numeric thresholds at
the bottom of this module.

is_cff decides each member, then names a witness.  Deciding is a branching
search over two views of the matrix, each member's element mask and each
element's holder mask (a row read as an int), that only asks whether some
w others cover the member.  Naming is verification._first_cover, the cover
search find_violation shares, run once, on the first member found covered.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .matrix import Matrix, _certify, _integer
from .verification import PreconditionError, _first_cover, find_violation

# Quadratic growth coefficient for the cover-free threshold lower bound,
# evaluated in double precision (frameproof_threshold_bounds floors it exactly).
QUADRATIC_COEFF = (15 + math.sqrt(33)) / 24


def _require_binary(m: Matrix) -> None:
    if m.q != 2:
        raise PreconditionError("cover-free operations need a binary matrix")


def is_cff(m: Matrix, w: int) -> tuple[int, tuple[int, ...]] | None:
    """Exact w-cover-free oracle.

    Returns None when every member A0 keeps, against every w-set of other
    members, a row where A0 is 1 and all of them are 0.  Otherwise returns
    the lexicographically first violating (A0; A1..Aw).  Families with at
    most w members are vacuously cover-free.

    Each member is decided by _covered, a branching search over its
    elements; only the first member found covered is handed to
    verification._first_cover, which names its lexicographically first
    cover.
    """
    _require_binary(m)
    w = _integer(w, "w")
    if w < 1:
        raise ValueError("w must be positive")
    n = m.cols
    if n <= w:
        return None
    # masks[j]: bit r set iff member j holds element r; holders[r]: bit j
    # set iff member j holds element r (row r read as an int).
    masks = [_mask(col) for col in m.columns()]
    holders = [_mask(row) for row in m.entries]
    everyone = (1 << n) - 1
    for a0 in range(n):
        if _covered(masks[a0], everyone ^ 1 << a0, w, masks, holders):
            cover = _first_cover(masks, masks[a0], w, [j for j in range(n) if j != a0])
            _certify(cover is not None, f"member {a0} has a {w}-cover")
            return (a0, cover)
    return None


# Maps a 0/1 entry byte to its ASCII digit, so a row or column reads as one
# base-2 int (its first entry least significant, hence the reversal).
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(bits: tuple[int, ...]) -> int:
    """Bit i set iff bits[i] == 1, for a non-empty tuple of 0/1 entries."""
    return int(bytes(bits[::-1]).translate(_DIGITS), 2)


def _covered(need: int, alive: int, w: int, masks, holders) -> bool:
    """True iff at most w members of alive hold every element of need.

    masks and holders are is_cff's two views of the matrix.  A node is a
    need left, the members still alive and the members it may add.  It
    branches on the uncovered element with the fewest alive holders, one
    child per holder; a holder tried at a node is not alive in its later
    siblings.  With one member left it ANDs the holder masks of the
    elements still uncovered.  Sound and complete: every cover of the need
    contains a holder of the chosen element, and a cover that contains an
    earlier sibling was already explored in that sibling's branch.  One
    loop over an explicit stack, so no need is too wide for the recursion
    limit.
    """
    if not need:
        return True
    stack = [(need, alive, w)]
    while stack:
        need, alive, w = stack.pop()
        if w == 1:
            while need and alive:
                low = need & -need
                need ^= low
                alive &= holders[low.bit_length() - 1]
            if alive:
                return True
            continue
        fewest, count = 0, alive.bit_count() + 1
        left = need
        while left:
            low = left & -left
            left ^= low
            held = holders[low.bit_length() - 1] & alive
            c = held.bit_count()
            if c < count:
                fewest, count = held, c
                if not c:
                    break
        tried = 0
        while fewest:
            low = fewest & -fewest
            fewest ^= low
            tried |= low
            rest = need & ~masks[low.bit_length() - 1]
            if not rest:
                return True
            stack.append((rest, alive & ~tried, w - 1))
    return False


def cff_derived(m: Matrix, member: int, w: int) -> Matrix:
    """Drop one member and its private rows; cover-free order falls by one.

    Deletes column `member` and every row where it holds a 1.  For a
    w-cover-free input the result is (w-1)-cover-free, which is re-checked
    before returning.
    """
    _require_binary(m)
    member, w = _integer(member, "member"), _integer(w, "w")
    if w < 2:
        raise PreconditionError("need w >= 2 so the derived order is positive")
    if not 0 <= member < m.cols:
        raise PreconditionError(f"column {member} out of range [0, {m.cols})")
    if is_cff(m, w) is not None:
        raise PreconditionError("input is not w-cover-free")
    keep_rows = [i for i in range(m.rows) if m.entries[i][member] == 0]
    keep_cols = [j for j in range(m.cols) if j != member]
    if not keep_rows:
        raise PreconditionError("member covers every row; derived family is empty")
    derived = Matrix(
        tuple(tuple(m.entries[i][j] for j in keep_cols) for i in keep_rows), 2
    )
    _certify(is_cff(derived, w - 1) is None, f"derived family is {w - 1}-cover-free")
    return derived


def cff_is_shf_check(m: Matrix, w: int) -> bool:
    """Cross-check: a w-cover-free family is binary {1, w}-separating.

    The private row of A0 against A1..Aw is exactly a separating row, so
    this must return True on every genuine cover-free input; it exists as
    an executable consistency check between the two oracles.
    """
    _require_binary(m)
    if is_cff(m, w) is not None:
        raise PreconditionError("input is not w-cover-free")
    return find_violation(m, [1, w]) is None


def shf_to_cff_double(m: Matrix, w: int) -> Matrix:
    """Doubling transform: binary {1, w}-separating to w-cover-free.

    Each entry becomes a vertical pair, 0 -> (1, 0) and 1 -> (0, 1).  The
    2N x n result has constant column weight N and is verified to be
    w-cover-free before returning.
    """
    _require_binary(m)
    w = _integer(w, "w")
    if w < 1:
        raise ValueError("w must be positive")
    if find_violation(m, [1, w]) is not None:
        raise PreconditionError("input is not {1,w}-separating")
    rows = []
    for i in range(m.rows):
        rows.append(tuple(1 if e == 0 else 0 for e in m.entries[i]))
        rows.append(tuple(1 if e == 1 else 0 for e in m.entries[i]))
    doubled = Matrix(tuple(rows), 2)
    _certify(is_cff(doubled, w) is None, f"doubled family is {w}-cover-free")
    return doubled


@dataclass(frozen=True)
class ThresholdBounds:
    """Bounds on the least row count where column count can exceed rows."""

    w: int
    lower: int
    sandwich: tuple[str, str]
    pieces: dict

    def as_json_dict(self) -> dict:
        return {
            "w": self.w,
            "lower": self.lower,
            "sandwich": list(self.sandwich),
            "pieces": dict(self.pieces),
        }


def cover_free_threshold_lower(w: int) -> float:
    """Lower bound on the least N admitting a w-cover-free family with n > N.

    Past the double range the value is the largest double, still a true
    lower bound (as in bounds.prob_lower_bound).
    """
    w = _integer(w, "w")
    if w < 1:
        raise ValueError("w must be positive")
    try:
        return min(QUADRATIC_COEFF * w * w, sys.float_info.max)
    except OverflowError:
        return sys.float_info.max


def frameproof_threshold_bounds(w: int) -> ThresholdBounds:
    """Bounds on the least N where a binary {1, w}-separating family beats n = N.

    The integer lower bound is the best of three pieces: the quadratic
    cover-free transfer on (w-2)^2, the strict pair-count bound
    C(w+1, 2) < N, and the linear floor 3w.  The cover-free transfer is a
    non-strict >= on an irrational value, so its integer form is floor + 1,
    computed exactly as (15*m^2 + isqrt(33*m^4)) // 24 + 1 with m = w-2.
    The sandwich reports the symbolic two-sided relation to the cover-free
    thresholds at orders w-2 and w.
    """
    w = _integer(w, "w")
    if w < 3:
        raise ValueError("w must be at least 3")
    sq = (w - 2) ** 2
    quad_int = (15 * sq + math.isqrt(33 * sq * sq)) // 24 + 1
    pairs_int = math.comb(w + 1, 2) + 1
    linear_int = 3 * w
    lower = max(quad_int, pairs_int, linear_int)
    return ThresholdBounds(
        w=w,
        lower=lower,
        sandwich=("N*(w-2)", "N*(w)"),
        pieces={
            "quadratic": quad_int,
            "pair-count": pairs_int,
            "linear": linear_int,
        },
    )
