"""Cover-free families and their exchange with binary separating families.

A binary N x n matrix represents a family of n subsets of an N-element
ground set (entry 1 iff the element belongs to the member).  The family is
w-cover-free when no member is contained in the union of w others, i.e.
every member keeps a private row against every w of its peers.

Cover-free families are exactly the binary {1, w}-separating families up to
a row-doubling transform, which is what powers the numeric thresholds at
the bottom of this module.
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
    """
    _require_binary(m)
    w = _integer(w, "w")
    if w < 1:
        raise ValueError("w must be positive")
    # masks[j]: bit r set iff member j holds element r.
    masks = [sum(1 << r for r, e in enumerate(col) if e) for col in m.columns()]
    cols = list(range(m.cols))
    for a0 in cols:
        cover = _first_cover(masks, masks[a0], w, cols[:a0] + cols[a0 + 1 :])
        if cover is not None:
            return (a0, cover)
    return None


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
