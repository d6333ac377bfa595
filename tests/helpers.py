"""Shared generators and independent oracles for the test suite.

The naive separation oracle here deliberately avoids every shortcut used by
the library (no bitmasks, no deduplication, no pruning): it enumerates all
positional part tuples and applies the definition row by row.  The reference
witness oracle is the library's earlier find_violation, kept as the model
that the one-pass kernel's certificates must match exactly.
"""

from itertools import combinations
import random

from sephash.matrix import Matrix, normalize_weights
from sephash.verification import ViolationWitness


def naive_row_separates(m, row, parts):
    sets = [{m.entries[row][c] for c in part} for part in parts]
    for a, b in combinations(sets, 2):
        if a & b:
            return False
    return True


def _all_part_tuples(columns, sizes):
    if not sizes:
        yield ()
        return
    for head in combinations(columns, sizes[0]):
        rest = [c for c in columns if c not in head]
        for tail in _all_part_tuples(rest, sizes[1:]):
            yield (head,) + tail


def naive_is_separating(m, weights):
    """Unpruned reference oracle: True iff the matrix is W-separating."""
    sizes = sorted(weights)
    if m.cols < sum(sizes):
        return True
    for parts in _all_part_tuples(list(range(m.cols)), sizes):
        if not any(naive_row_separates(m, r, parts) for r in range(m.rows)):
            return False
    return True


def _part_tuples(n, weights):
    """Yield disjoint part tuples in canonical lexicographic order.

    Parts are filled in ascending-size order; consecutive equal-size parts
    are forced to ascend by smallest member so each unordered choice is
    enumerated once.
    """

    def rec(parts, used):
        k = len(parts)
        if k == len(weights):
            yield tuple(parts)
            return
        w = weights[k]
        free = [c for c in range(n) if c not in used]
        for combo in combinations(free, w):
            if k > 0 and weights[k - 1] == w and combo[0] < parts[-1][0]:
                continue
            parts.append(combo)
            used.update(combo)
            yield from rec(parts, used)
            used.difference_update(combo)
            parts.pop()

    yield from rec([], set())


def reference_find_violation(m, weights):
    """First violating part tuple in canonical order, by full enumeration.

    Builds the whole n x n row-agreement table up front and re-ORs every
    cross-part pair of each tuple from scratch.
    """
    w = normalize_weights(weights)
    if m.cols < w.u:
        return None
    cols = m.columns()
    masks = [
        [sum(1 << r for r in range(m.rows) if cols[i][r] == cols[j][r]) for j in range(m.cols)]
        for i in range(m.cols)
    ]
    full = (1 << m.rows) - 1
    for parts in _part_tuples(m.cols, w.weights):
        bad = 0
        for pi, pj in combinations(parts, 2):
            for x in pi:
                row_x = masks[x]
                for y in pj:
                    bad |= row_x[y]
            if bad == full:
                break
        if bad == full:
            return ViolationWitness(parts)
    return None


def naive_special_columns(m):
    """(column, lowest row, sharers) for each column with a row symbol shared by <= 1 other."""
    out = []
    for x in range(m.cols):
        for i in range(m.rows):
            sharers = sum(1 for y in range(m.cols) if y != x and m.entries[i][y] == m.entries[i][x])
            if sharers <= 1:
                out.append((x, i, sharers))
                break
    return out


def naive_first_cover(m, w):
    """First (A0, (A1..Aw)) in lexicographic order with no private row for A0."""
    if m.cols <= w:
        return None
    for a0 in range(m.cols):
        others = [j for j in range(m.cols) if j != a0]
        for cover in combinations(others, w):
            private = any(
                m.entries[r][a0] == 1 and all(m.entries[r][j] == 0 for j in cover)
                for r in range(m.rows)
            )
            if not private:
                return (a0, cover)
    return None


def random_matrix(rng: random.Random, n_rows, n_cols, q) -> Matrix:
    return Matrix(
        tuple(
            tuple(rng.randrange(q) for _ in range(n_cols)) for _ in range(n_rows)
        ),
        q,
    )


def random_linear_extension(rng: random.Random, base: Matrix, extra: int, attempts=400) -> Matrix:
    """Append random columns keeping all pairwise row agreements <= 1.

    Columns of the base must already be pairwise linear.  Finally shuffles
    the column order so planted structure sits at random positions.
    """
    cols = base.columns()
    for _ in range(extra):
        for _ in range(attempts):
            cand = tuple(rng.randrange(base.q) for _ in range(base.rows))
            ok = all(
                sum(1 for a, b in zip(cand, c) if a == b) <= 1 for c in cols
            )
            if ok:
                cols.append(cand)
                break
        else:
            break
    rng.shuffle(cols)
    return Matrix(tuple(zip(*cols)), base.q)


def random_binary_separating(rng: random.Random, n_rows, n_cols, w, attempts=4000):
    """Rejection-sample a binary {1,w}-separating matrix, or None."""
    from sephash.verification import find_violation

    for _ in range(attempts):
        m = random_matrix(rng, n_rows, n_cols, 2)
        if find_violation(m, [1, w]) is None:
            return m
    return None
