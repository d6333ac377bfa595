"""Shared generators and independent oracles for the test suite.

The naive separation oracle here deliberately avoids every shortcut used by
the library (no bitmasks, no deduplication, no pruning): it enumerates all
positional part tuples and applies the definition row by row.  The reference
witness oracle is the library's earlier find_violation, kept as the model
that the one-pass kernel's certificates must match exactly; likewise the
reference rainbow-cycle search is the earlier find_rainbow_cycle, which
assigns parts to each closed edge sequence by backtracking.  The bound
engine's references are the earlier separation polynomial and gradient,
which sum all t! permutations, and the earlier Johnson-type dynamic
program, which scans every step length.  The text-path references are the
earlier parse_matrix, the earlier write_matrix, which prints each entry with
str(), and the entry loop of the earlier Matrix.__post_init__; group_rows's
is its earlier per-entry digit loop.  The special-column greedy's reference
recounts every row's sharers after each deletion, and the threshold's
quadratic piece is checked against decimal arithmetic carried well past
the digits of its value.  Pairwise column agreement is checked against the
earlier linearity loop, which compares each column pair entry by entry, and
the private-row certificate against a per-row Counter.  The two exact
searches are checked against plain subset searches in the same order, with
the same size bound and node counting, whose only filter is the library's
whole-matrix checks: find_violation on the chosen columns plus the
candidate, and is_linear_hypergraph and find_rainbow_cycle on the chosen
edges plus the candidate.
"""

from collections import Counter
from decimal import Decimal, ROUND_FLOOR, localcontext
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import eq
import random

from sephash.bounds import INF, _decrement_weight
from sephash.hypergraph import (
    PartiteHypergraph,
    RainbowCycle,
    find_rainbow_cycle,
    is_linear_hypergraph,
)
from sephash.matrix import Matrix, MatrixFormatError, normalize_weights
from sephash.verification import ViolationWitness, find_violation


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


def reference_check_entries(entries, q) -> None:
    """Row widths and entry ranges, one entry at a time (ValueError)."""
    width = len(entries[0])
    for i, row in enumerate(entries):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        for e in row:
            if not 0 <= e < q:
                raise ValueError(f"entry {e} in row {i} outside [0, {q})")


def reference_parse_matrix(text: str) -> Matrix:
    content = [
        (lineno, fields)
        for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1)
        if fields and not fields[0].startswith("#")
    ]
    if not content:
        raise MatrixFormatError("empty input: missing header")
    (header_line, header), *body = content
    if len(header) != 3:
        raise MatrixFormatError("header must be 'N n q'", header_line)
    try:
        n_rows, n_cols, q = map(int, header)
    except ValueError:
        raise MatrixFormatError("header must contain integers", header_line) from None
    if n_rows < 1 or n_cols < 0 or q < 1:
        raise MatrixFormatError("header requires N >= 1, n >= 0, q >= 1", header_line)
    rows = []
    for lineno, fields in body:
        if len(rows) >= n_rows:
            raise MatrixFormatError("unexpected content after last row", lineno)
        if len(fields) != n_cols:
            raise MatrixFormatError(f"row has {len(fields)} entries, expected {n_cols}", lineno)
        try:
            row = tuple(map(int, fields))
        except ValueError:
            raise MatrixFormatError("row entries must be integers", lineno) from None
        for e in row:
            if not 0 <= e < q:
                raise MatrixFormatError(f"entry {e} out of range [0, {q})", lineno)
        rows.append(row)
    if n_cols == 0:
        rows = [()] * n_rows
    if len(rows) != n_rows:
        raise MatrixFormatError(f"expected {n_rows} rows, found {len(rows)}", header_line)
    return Matrix(tuple(rows), q)


def reference_write_matrix(m: Matrix) -> str:
    lines = [f"{m.rows} {m.cols} {m.q}"]
    if m.cols > 0:
        lines.extend(" ".join(str(e) for e in row) for row in m.entries)
    return "\n".join(lines) + "\n"


def reference_group_rows(m: Matrix, a: int) -> Matrix:
    """group_rows by its definition: each stacked entry's base-q digits."""
    new_rows = []
    for g in range(m.rows // a):
        block = m.entries[g * a : (g + 1) * a]
        row = []
        for j in range(m.cols):
            sym = 0
            for r in range(a):
                sym = sym * m.q + block[r][j]
            row.append(sym)
        new_rows.append(tuple(row))
    return Matrix(tuple(new_rows), m.q**a)


def reference_first_pair_over(columns, limit=1):
    """First (i, j, agreements), i < j lexicographic, with agreements > limit."""
    for (i, a), (j, b) in combinations(enumerate(columns), 2):
        agreements = sum(map(eq, a, b))
        if agreements > limit:
            return i, j, agreements
    return None


def reference_has_private_rows(m: Matrix) -> bool:
    """Every column shows, in some row, a symbol no other column shows there."""
    private = set()
    for row in m.entries:
        counts = Counter(row)
        private.update(j for j, s in enumerate(row) if counts[s] == 1)
    return len(private) == m.cols


def _shared_parts(h: PartiteHypergraph, a: int, b: int) -> tuple[int, ...]:
    ea, eb = h.edges[a], h.edges[b]
    return tuple(i for i in range(h.parts) if ea[i] == eb[i])


def _assign_cycle_parts(domains: list[tuple[int, ...]]) -> list[int] | None:
    """Pick one part per position, all distinct; first solution in part order."""
    chosen: list[int] = []
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == len(domains):
            return True
        for p in domains[i]:
            if p not in used:
                used.add(p)
                chosen.append(p)
                if rec(i + 1):
                    return True
                chosen.pop()
                used.remove(p)
        return False

    return chosen if rec(0) else None


def reference_find_rainbow_cycle(h: PartiteHypergraph, k: int) -> RainbowCycle | None:
    """Search for a rainbow cycle of length exactly k.

    Deterministic: returns the cycle whose edge-index sequence is
    lexicographically least, normalized to start at its smallest edge index.
    Callers wanting any length iterate k = 3..r ascending.
    """
    if not 3 <= k <= h.parts:
        raise ValueError(f"cycle length must lie in [3, {h.parts}]")
    m = len(h.edges)
    if m < k:
        return None
    shared_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def shared(a: int, b: int) -> tuple[int, ...]:
        key = (a, b) if a < b else (b, a)
        got = shared_cache.get(key)
        if got is None:
            got = _shared_parts(h, key[0], key[1])
            shared_cache[key] = got
        return got

    def close_cycle(seq: list[int]) -> RainbowCycle | None:
        # Domains of the k shared vertices; position 0 closes the cycle.
        domains = [shared(seq[-1], seq[0])]
        domains += [shared(seq[i - 1], seq[i]) for i in range(1, k)]
        if any(not d for d in domains):
            return None
        parts = _assign_cycle_parts(domains)
        if parts is None:
            return None
        vertices = []
        for i, p in enumerate(parts):
            vertices.append((p, h.edges[seq[i]][p]))
        return RainbowCycle(tuple(vertices), tuple(seq))

    def extend(seq: list[int], used: set[int]) -> RainbowCycle | None:
        if len(seq) == k:
            return close_cycle(seq)
        for e in range(seq[0] + 1, m):
            if e in used:
                continue
            if not shared(seq[-1], e):
                continue
            seq.append(e)
            used.add(e)
            found = extend(seq, used)
            if found is not None:
                return found
            used.remove(e)
            seq.pop()
        return None

    for first in range(m):
        found = extend([first], {first})
        if found is not None:
            return found
    return None


def reference_capacity(n_rows, q, weights, node_budget=5_000_000):
    """(value, nodes, exact, witness) of the canonical capacity search.

    Column sets start at the all-zero column and grow in ascending column
    order; a candidate stays only while find_violation accepts the chosen
    columns plus it.  A branch stops once even all its candidates could not
    beat the best size, and the search stops when the node count reaches
    node_budget.  Below u-1 columns, u-1 copies of the all-zero column
    stand in.
    """
    w = normalize_weights(weights)
    columns = list(product(range(q), repeat=n_rows))
    best: list[int] = []
    nodes = 0
    exact = True

    def matrix(chosen):
        return Matrix(tuple(zip(*(columns[j] for j in chosen))), q)

    def grow(chosen, cand):
        nonlocal best, nodes, exact
        if len(chosen) > len(best):
            best = chosen
        for i, col in enumerate(cand):
            if len(chosen) + len(cand) - i <= len(best):
                return
            nodes += 1
            if nodes >= node_budget:
                exact = False
                return
            grown = chosen + [col]
            grow(grown, [c for c in cand[i + 1 :] if find_violation(matrix(grown + [c]), w) is None])

    grow([0], list(range(1, len(columns))))
    if len(best) < w.u - 1:
        best = [0] * (w.u - 1)
    return len(best), nodes, exact, matrix(best)


def reference_rainbow_free(parts, part_size, ks, node_budget=200_000):
    """(edges, nodes, certified) of the rainbow-free subset search.

    Edge sets grow in lexicographic edge order from the empty set, seeded
    with the diagonal matching as the best; a candidate joins only if the
    chosen edges plus it form a linear hypergraph with no rainbow k-cycle
    for any k in ks.  Size bound and node counting as in reference_capacity.
    """
    candidates = list(product(range(part_size), repeat=parts))
    best = [tuple(s for _ in range(parts)) for s in range(part_size)]
    nodes = 0
    certified = True

    def rainbow_free(edges):
        h = PartiteHypergraph(parts, part_size, tuple(edges))
        return is_linear_hypergraph(h) and all(find_rainbow_cycle(h, k) is None for k in ks)

    def grow(start, chosen):
        nonlocal best, nodes, certified
        if len(chosen) > len(best):
            best = chosen
        for idx in range(start, len(candidates)):
            if len(chosen) + len(candidates) - idx <= len(best):
                return
            nodes += 1
            if nodes >= node_budget:
                certified = False
                return
            grown = chosen + [candidates[idx]]
            if rainbow_free(grown):
                grow(idx + 1, grown)

    grow(0, [])
    return best, nodes, certified


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


def reference_nonspecial_subfamily(m):
    """Delete the lowest special column of the current family until none is left.

    A column is special when some row shows its symbol on at most one other
    alive column; sharers are recounted from the entries after every deletion.
    """
    alive = list(range(m.cols))
    deleted = []

    def special(x):
        return any(
            sum(1 for y in alive if y != x and m.entries[i][y] == m.entries[i][x]) <= 1
            for i in range(m.rows)
        )

    while True:
        victim = next((x for x in alive if special(x)), None)
        if victim is None:
            return m.submatrix(alive), deleted
        alive.remove(victim)
        deleted.append(victim)


def reference_quadratic_piece(w):
    """floor((15 + sqrt(33))/24 * (w-2)**2) + 1 in decimal arithmetic.

    Carried to twice the digits of (w-2)**2 plus 30, so the floor is exact
    unless the value lies within 10**-30 of an integer.
    """
    sq = (w - 2) ** 2
    with localcontext() as ctx:
        ctx.prec = 2 * len(str(sq)) + 30
        value = (15 + Decimal(33).sqrt()) / 24 * sq
        return int(value.to_integral_value(rounding=ROUND_FLOOR)) + 1


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


@lru_cache(maxsize=16)
def _perm_list(t: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(t)))


def reference_rate_value(exps, point) -> float:
    """Separation polynomial as the sum over all t! permutations."""
    total = 0.0
    for perm in _perm_list(len(exps)):
        prod = 1.0
        for i, e in enumerate(exps):
            prod *= point[perm[i]] ** e
        total += prod
    return total


def reference_rate_grad(exps, point) -> list[float]:
    """Gradient of reference_rate_value, term by term over all permutations."""
    t = len(exps)
    grad = [0.0] * t
    for perm in _perm_list(t):
        vals = [point[perm[i]] ** exps[i] for i in range(t)]
        for i, e in enumerate(exps):
            if e == 0:
                continue
            rest = 1.0
            for k in range(t):
                if k != i:
                    rest *= vals[k]
            grad[perm[i]] += e * point[perm[i]] ** (e - 1) * rest
    return grad


@lru_cache(maxsize=None)
def reference_johnson_value(n_rows: int, q: int, weights: tuple[int, ...]):
    """Johnson-type dynamic program scanning every step length, own memo."""
    t = len(weights)
    u = sum(weights)
    if t == 1:
        return INF
    if weights == (1, 1):
        return q**n_rows
    if n_rows <= 0:
        return u - 1
    if n_rows == 1:
        return max(q, u - 1)
    if n_rows <= u - 1:
        return (u - 1) * q
    best = INF
    for i in sorted(set(weights)):
        pos = weights.index(i) + 1
        reduced = _decrement_weight(weights, pos)
        for length in range(1, n_rows + 1):
            tail = reference_johnson_value(n_rows - length, q, reduced)
            step = q**length + max(u - 1, tail)
            if step < best:
                best = step
    return best
