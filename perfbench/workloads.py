"""The four workloads: seeded inputs, task lists and CLI commands.

Each build_* function runs in a fresh worker interpreter.  It generates the
workload's inputs from the seed, hands the library only matrices or text,
and returns a Plan: tasks to time, each with a check, and CLI commands for
run.py to run as subprocesses.  Every call into sephash goes through
tr.call with a span key "<module>.<kind>"; those spans give the per-layer
metrics of a traced run.

The seed changes input contents and task order, never the amount of work:
sizes are stratified, and seeded copies of fixed families are made by
relabeling symbols and permuting rows and columns, which preserves every
property checked here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import sephash as sh

from checks import (
    agreements,
    compare_bounds,
    encode_value,
    golden_key,
    matrix_text,
    naive_cover_free,
    naive_separating,
    same_value,
    validate_witness,
)
from timing import Tracer

# Each finishes with exact=True.  (4,3,{2,2}) = 9 is left out: at about
# 5 s it is half the ladder, and with it a 25 s run holds one repetition.
CAPACITY_POINTS = (
    (6, 2, (2, 2)),
    (6, 2, (1, 3)),
    (2, 5, (1, 2)),
    (4, 3, (1, 1, 2)),
    (5, 2, (2, 2)),
    (3, 3, (1, 3)),
    (3, 3, (2, 2)),
)
RAINBOW_FREE = (4, 3, (3, 4))

BOUNDS_TYPES = (
    (1, 1), (1, 2), (2, 2), (1, 3), (1, 4), (3, 3), (1, 1, 1), (1, 1, 2), (1, 2, 2),
)
BOUNDS_N = range(1, 81)
BOUNDS_Q = range(2, 9)
# q above the grid's range, so these Johnson evaluations start from a cold memo.
JOHNSON_POINTS = tuple(
    (n, q, (2, 2, 3)) for n in (120, 160, 200, 240) for q in (9, 10)
)
SIMPLEX_TYPES = ((2, 2, 3, 5), (2, 3, 3, 4, 5), (2, 2, 2, 3, 3))

PASS_SMALL_COPIES = 32
PASS_MID_COPIES = 16

FAIL_TYPES = ((2, 2), (1, 2), (1, 3), (1, 1, 1))
FAIL_RANDOM_ITEMS = 400
# (k, q) of the planted cyclic-overlap inputs; k even, so type {k/2, k/2}.
FAIL_CYCLES = ((4, 3), (4, 5), (6, 5), (6, 7)) * 3
FAIL_CYCLE_EXTRA_COLUMNS = 16
# Pairs (y, z) whose columns cover the last column x of RS(5,5,2) in all
# but two rows.  x is rewritten there to agree with y, so no row separates
# {x} from {y, z}.  These pairs were picked because the first certificate
# in canonical order is then the singleton 20 with x, about a sixth of the
# way through the enumeration: a late witness, yet no larger an item than
# a few dozen random candidates.
FAIL_RS_PAIRS = ((56, 58), (61, 63), (67, 72))


@dataclass
class Task:
    """One timed item: run() calls the library, check() judges its output.

    check returns (record, errors): record is the JSON form of the output
    that enters the digest, errors lists every mismatch found.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[object, list[str]]]


@dataclass
class Plan:
    tasks: list[Task]
    # Each: {"name", "argv", "exit", "mode", ...expectation}; see checks.check_cli.
    cli: list[dict] = field(default_factory=list)


def canonical_tuples(n: int, weights) -> int:
    """Closed-form count of canonical disjoint part tuples of a type on n columns."""
    u = sum(weights)
    if n < u:
        return 0
    count = math.factorial(n) // math.factorial(n - u)
    for w in weights:
        count //= math.factorial(w)
    for mult in (weights.count(w) for w in set(weights)):
        count //= math.factorial(mult)
    return count


def scramble(rows, q: int, rng: random.Random, permute_columns: bool = True):
    """Seeded copy with each row's symbols relabeled, rows and columns permuted.

    Separation of every type, linearity and agreement counts are invariant
    under all three.
    """
    out = []
    for row in rows:
        relabel = list(range(q))
        rng.shuffle(relabel)
        out.append([relabel[e] for e in row])
    rng.shuffle(out)
    if permute_columns:
        order = list(range(len(out[0])))
        rng.shuffle(order)
        out = [[row[j] for j in order] for row in out]
    return out


def rows_of(m) -> list[list[int]]:
    return [list(r) for r in m.entries]


def columns_of(rows) -> list[tuple[int, ...]]:
    return list(zip(*rows))


def parse(tr: Tracer, text: str):
    tr.count("matrix.parse_bytes", len(text.encode()))
    return tr.call("matrix.parse", sh.parse_matrix, text)


def write_file(workdir, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def fails(cond: bool, message: str) -> list[str]:
    return [message] if cond else []


# ---------------------------------------------------------------- capacity


def build_capacity(seed: int, tr: Tracer, workdir, goldens) -> Plan:
    rng = random.Random(seed)
    points = list(CAPACITY_POINTS)
    rng.shuffle(points)
    tasks = []
    for n_rows, q, weights in points:
        key = golden_key(n_rows, q, weights)

        def run(n_rows=n_rows, q=q, weights=weights):
            r = tr.call("search.capacity", sh.exact_capacity, n_rows, q, weights)
            tr.count("search.nodes", r.nodes)
            tr.count("search.exact_points", int(r.exact))
            return r, tr.call("matrix.write", sh.write_matrix, r.witness)

        def check(out, key=key, n_rows=n_rows, q=q, weights=weights):
            r, text = out
            g = goldens["capacity"][key]
            rows = rows_of(r.witness)
            errors = fails(r.value != g["value"], f"capacity {key}: value {r.value}, golden {g['value']}")
            errors += fails(r.exact is not g["exact"], f"capacity {key}: exact {r.exact}, golden {g['exact']}")
            errors += fails(text != g["witness"], f"capacity {key}: witness bytes differ from golden")
            errors += fails(
                len(rows) != n_rows or len(rows[0]) != r.value or r.witness.q != q,
                f"capacity {key}: witness shape does not match value",
            )
            errors += fails(
                len(rows[0]) <= 9 and not naive_separating(rows, weights),
                f"capacity {key}: naive oracle rejects the witness",
            )
            return {"point": key, "value": r.value, "exact": r.exact, "witness": text}, errors

        tasks.append(Task(f"capacity {key}", run, check))

    parts, size, ks = RAINBOW_FREE

    def run_rbf():
        r = tr.call("search.rainbowfree", sh.rainbow_free_extremal_search, parts, size, ks)
        tr.count("search.rainbowfree_nodes", r.nodes)
        return r

    def check_rbf(r):
        got = r.as_json_dict()
        errors = fails(got != goldens["rainbowfree"], "rainbowfree 4 3 3:4: result differs from golden")
        return got, errors

    tasks.insert(rng.randrange(len(tasks) + 1), Task("rainbowfree 4 3 3:4", run_rbf, check_rbf))
    cli = [
        {
            "name": "search 6 2 1,3",
            "argv": ["search", "6", "2", "1,3"],
            "exit": 0,
            "mode": "mask_elapsed",
            "stdout": goldens["cli"]["search 6 2 1,3"],
        },
        {
            "name": "construct rainbowfree 4 3 --k 3:4",
            "argv": ["construct", "rainbowfree", "4", "3", "--k", "3:4"],
            "exit": 0,
            "mode": "exact",
            "stdout": goldens["cli"]["construct rainbowfree 4 3 --k 3:4"],
        },
    ]
    return Plan(tasks, cli)


# ---------------------------------------------------------- certify-pass


def _holds_task(tr: Tracer, name: str, m, weights, small: bool = False) -> Task:
    tuples = canonical_tuples(m.cols, list(weights))

    def run():
        tr.count("verification.pass_tuples", tuples)
        return tr.call("verification.pass", sh.find_violation, m, weights)

    def check(witness):
        errors = fails(witness is not None, f"{name}: oracle reports a violation {witness} on a separating input")
        errors += fails(
            small and not naive_separating(rows_of(m), weights),
            f"{name}: naive oracle disagrees",
        )
        return {"task": name, "holds": witness is None}, errors

    return Task(name, run, check)


def _concatenate_identity(rows, q: int):
    """Binary image of a q-ary code: symbol s becomes the unit vector e_s.

    A row where column c differs from each of w others becomes a binary row
    where c has 1 and they all have 0, so {1,w}-separation carries over.
    """
    return [[1 if e == s else 0 for e in row] for row in rows for s in range(q)]


def build_certify_pass(seed: int, tr: Tracer, workdir, goldens) -> Plan:
    rng = random.Random(seed)
    rs = {
        args: tr.call("search.construct", sh.reed_solomon_frameproof, *args)
        for args in ((5, 5, 2), (7, 4, 2), (5, 5, 3), (11, 4, 2), (5, 3, 2), (5, 4, 3))
    }

    def seeded(args):
        m = rs[args]
        text = matrix_text(scramble(rows_of(m), m.q, rng), m.q)
        return parse(tr, text), text

    rs552, rs552_text = seeded((5, 5, 2))
    rs553, _ = seeded((5, 5, 3))
    tasks = [
        _holds_task(tr, "RS(5,5,2) {1,2}", rs552, (1, 2)),
        _holds_task(tr, "RS(5,5,3) {1,3}", rs553, (1, 3)),
        _holds_task(tr, "RS(5,5,3) {2,2}", rs553, (2, 2)),
    ]
    # Bodies of small and mid-sized items, so that item latency has many
    # samples of like size around its 50th and 95th percentiles.
    for args, copies in (((5, 3, 2), PASS_SMALL_COPIES), ((7, 4, 2), PASS_MID_COPIES)):
        for copy in range(copies):
            m = seeded(args)[0]
            tasks.append(_holds_task(tr, f"RS{args} {{1,2}} #{copy}", m, (1, 2), small=args == (5, 3, 2) and copy == 0))
    for n_rows, q, weights in CAPACITY_POINTS:
        key = golden_key(n_rows, q, weights)
        rows = [[int(x) for x in line.split()] for line in goldens["capacity"][key]["witness"].splitlines()[1:]]
        m = parse(tr, matrix_text(scramble(rows, q, rng), q))
        tasks.append(_holds_task(tr, f"capacity witness {key}", m, weights, small=True))

    # Linear 4-row families: RS with k = 2 and a seeded 40-column subset of
    # one, which has special columns for the greedy extractor to delete.
    rs1142 = rs[(11, 4, 2)]
    subset = sorted(rng.sample(range(rs1142.cols), 40))
    linear_inputs = {
        "RS(11,4,2)": seeded((11, 4, 2))[0],
        "RS(7,4,2)": seeded((7, 4, 2))[0],
        "RS(11,4,2) 40-column subset": parse(
            tr,
            matrix_text(scramble([[r[j] for j in subset] for r in rows_of(rs1142)], 11, rng), 11),
        ),
    }
    for name, m in linear_inputs.items():
        tasks.append(_linear_task(tr, name, m))
    tasks.append(_shadow_task(tr, "RS(11,4,2)", linear_inputs["RS(11,4,2)"]))

    binaries = []
    for args, w in (((5, 3, 2), 2), ((5, 4, 3), 3)):
        base = rs[args]
        binary = _concatenate_identity(rows_of(base), base.q)
        binaries.append(parse(tr, matrix_text(scramble(binary, 2, rng), 2)))
        tasks.append(_cover_free_task(tr, f"binary RS{args} w={w}", binaries[-1], w, rng.randrange(base.cols)))
    doubled_file = write_file(workdir, "doubled.txt", matrix_text(double(rows_of(binaries[0])), 2))
    rng.shuffle(tasks)

    rs_file = write_file(workdir, "rs552.txt", rs552_text)
    cli = [
        {
            "name": "verify rs552 --type 1,2",
            "argv": ["verify", rs_file, "--type", "1,2"],
            "exit": 0,
            "mode": "exact",
            "stdout": goldens["cli"]["verify rs552 --type 1,2"],
        },
        {
            "name": "verify doubled --cff 2",
            "argv": ["verify", doubled_file, "--cff", "2"],
            "exit": 0,
            "mode": "exact",
            "stdout": goldens["cli"]["verify doubled --cff 2"],
        },
    ]
    return Plan(tasks, cli)


def _linear_task(tr: Tracer, name: str, m) -> Task:
    def run():
        linear = tr.call("verification.linear", sh.is_linear_shf, m)
        survivor = tr.call("verification.linear", sh.extract_linear_subfamily, m)
        return linear, survivor

    def check(out):
        linear, survivor = out
        cols = columns_of(rows_of(survivor))
        errors = fails(linear is not True, f"{name}: is_linear_shf rejects a linear family")
        errors += fails(
            any(agreements(a, b) > 1 for a, b in combinations(cols, 2)),
            f"{name}: extracted survivor is not linear",
        )
        pool = columns_of(rows_of(m))
        errors += fails(any(c not in pool for c in cols), f"{name}: survivor has a column not in the input")
        # No survivor column may keep a row symbol shared by at most one other.
        for x, col in enumerate(cols):
            for r, sym in enumerate(col):
                if sum(1 for y, other in enumerate(cols) if y != x and other[r] == sym) <= 1:
                    errors.append(f"{name}: survivor column {x} is special in row {r}")
                    break
        return {"task": name, "linear": linear, "survivor": matrix_text(rows_of(survivor), m.q)}, errors

    return Task(f"linear {name}", run, check)


def _shadow_task(tr: Tracer, name: str, m) -> Task:
    def run():
        return tr.call("hypergraph.shadow", lambda: sh.shadow_graph(sh.matrix_to_hypergraph(m)))

    def check(sg):
        pairs = m.cols * math.comb(m.rows, 2)
        errors = fails(sg.graph_edge_count != pairs, f"shadow {name}: {sg.graph_edge_count} graph edges, expected {pairs}")
        errors += fails(
            sg.disjoint_clique_count() != m.cols,
            f"shadow {name}: cliques of a linear family are not all edge-disjoint",
        )
        return {"task": f"shadow {name}", "edges": sg.graph_edge_count, "vertices": len(sg.vertices)}, errors

    return Task(f"shadow {name}", run, check)


def double(rows):
    """The doubling transform from its definition: 0 -> (1, 0), 1 -> (0, 1)."""
    return [[1 - e for e in r] if k == 0 else list(r) for r in rows for k in (0, 1)]


def _cover_free_task(tr: Tracer, name: str, m, w: int, member: int) -> Task:
    expected = double(rows_of(m))

    def run():
        doubled = tr.call("coverfree.cff", sh.shf_to_cff_double, m, w)
        violation = tr.call("coverfree.cff", sh.is_cff, doubled, w)
        derived = tr.call("coverfree.cff", sh.cff_derived, doubled, member, w)
        return doubled, violation, derived

    def check(out):
        doubled, violation, derived = out
        errors = fails(rows_of(doubled) != expected, f"{name}: doubling differs from the definition")
        errors += fails(violation is not None, f"{name}: is_cff rejects a doubled separating family: {violation}")
        errors += fails(
            w <= 2 and not naive_cover_free(expected, w), f"{name}: naive cover-free check fails"
        )
        keep = [r for r in expected if r[member] == 0]
        want = [[e for j, e in enumerate(r) if j != member] for r in keep]
        errors += fails(rows_of(derived) != want, f"{name}: derived family differs from the definition")
        errors += fails(not naive_cover_free(want, w - 1), f"{name}: derived family is not {w - 1}-cover-free")
        return {"task": name, "doubled_rows": doubled.rows, "derived": matrix_text(want, 2)}, errors

    return Task(f"cover-free {name}", run, check)


# ---------------------------------------------------------- certify-fail


def _random_candidates(rng: random.Random):
    """Stratified sizes, seeded contents, one planted duplicate column each.

    Column 0 is copied to a seeded position b in the second half.  That
    guarantees a violation for every type used, within about b part tuples
    of the start of the canonical order, so on every seed the agreement
    masks, whose cost depends only on the size, stay the bulk of the work.
    """
    specs = []
    for i in range(FAIL_RANDOM_ITEMS):
        n_rows = 6 + i % 5
        q = 3 + (i // 5) % 3
        n_cols = 60 + (140 * i) // (FAIL_RANDOM_ITEMS - 1)
        weights = FAIL_TYPES[(i // 15) % len(FAIL_TYPES)]
        specs.append((n_rows, q, n_cols, weights))
    rng.shuffle(specs)
    out = []
    for n_rows, q, n_cols, weights in specs:
        cols = [[rng.randrange(q) for _ in range(n_rows)] for _ in range(n_cols)]
        cols[rng.randrange(n_cols // 2, n_cols)] = list(cols[0])
        rows = [list(r) for r in zip(*cols)]
        out.append((f"random {n_rows}x{n_cols} q={q} {golden_key(weights)}", matrix_text(rows, q), weights))
    return out


def _late_collision_rows(rs552) -> list[list[list[int]]]:
    """RS(5,5,2) copies whose last column is rewritten in exactly two rows."""
    rows = rows_of(rs552)
    x = len(rows[0]) - 1
    out = []
    for y, z in FAIL_RS_PAIRS:
        need = [r for r in range(len(rows)) if rows[r][x] not in (rows[r][y], rows[r][z])]
        if len(need) != 2:
            raise ValueError(f"RS(5,5,2) changed: columns {y}, {z} no longer cover column {x} in 3 rows")
        planted = [list(r) for r in rows]
        for r in need:
            planted[r][x] = planted[r][y]
        out.append(planted)
    return out


def _fail_task(tr: Tracer, name: str, text: str, weights, cli_expect: dict | None = None) -> Task:
    def run():
        m = parse(tr, text)
        written = tr.call("matrix.write", sh.write_matrix, m)
        tr.count("verification.fail_calls")
        witness = tr.call("verification.fail", sh.find_violation, m, weights)
        report = None if witness is None else json.dumps(witness.as_json_dict(m.rows), sort_keys=True)
        return m, written, witness, report

    def check(out):
        m, written, witness, report = out
        errors = fails(written != text, f"{name}: write_matrix does not round-trip the input text")
        if witness is None:
            return {"task": name, "witness": None}, errors + [f"{name}: oracle finds no violation in a failing input"]
        errors += [f"{name}: {e}" for e in validate_witness(m, weights, witness.parts, sh.row_separates)]
        if cli_expect is not None:
            cli_expect["parts"] = [list(p) for p in witness.parts]
        return {"task": name, "witness": report}, errors

    return Task(name, run, check)


def _cycle_task(tr: Tracer, name: str, text: str, weights, cli_expect: dict | None = None) -> Task:
    k = 2 * weights[0]

    def run():
        m = parse(tr, text)
        h = tr.call("hypergraph.cycle", sh.matrix_to_hypergraph, m)
        tr.count("hypergraph.cycle_calls")
        cycle = tr.call("hypergraph.cycle", sh.find_rainbow_cycle, h, k)
        witness = None if cycle is None else tr.call("hypergraph.cycle", sh.cycle_to_violation, h, cycle)
        tr.count("verification.fail_calls")
        first = tr.call("verification.fail", sh.find_violation, m, weights)
        return m, cycle, witness, first

    def check(out):
        m, cycle, witness, first = out
        if cycle is None or witness is None or first is None:
            return {"task": name}, [f"{name}: planted cycle or violation not found"]
        errors = [f"{name}: cycle witness: {e}" for e in validate_witness(m, weights, witness.parts, sh.row_separates)]
        errors += [f"{name}: oracle witness: {e}" for e in validate_witness(m, weights, first.parts, sh.row_separates)]
        if cli_expect is not None:
            cli_expect["parts"] = [list(p) for p in first.parts]
        record = {
            "task": name,
            "cycle": cycle.as_json_dict(),
            "cycle_witness": [list(p) for p in witness.parts],
            "witness": [list(p) for p in first.parts],
        }
        return record, errors

    return Task(name, run, check)


def build_certify_fail(seed: int, tr: Tracer, workdir, goldens) -> Plan:
    rng = random.Random(seed)
    items = [(name, text, weights, "random") for name, text, weights in _random_candidates(rng)]
    rs552 = tr.call("search.construct", sh.reed_solomon_frameproof, 5, 5, 2)
    for i, rows in enumerate(_late_collision_rows(rs552)):
        # Columns stay in place so the certificate stays late.
        text = matrix_text(scramble(rows, 5, rng, permute_columns=False), 5)
        items.append((f"RS(5,5,2) late collision {i}", text, (1, 2), "late"))
    for i, (k, q) in enumerate(FAIL_CYCLES):
        base = tr.call("search.construct", sh.cyclic_overlap_matrix, k, q)
        extra = [[rng.randrange(q) for _ in range(k)] for _ in range(FAIL_CYCLE_EXTRA_COLUMNS)]
        rows = [list(row) + [col[r] for col in extra] for r, row in enumerate(rows_of(base))]
        text = matrix_text(scramble(rows, q, rng), q)
        items.append((f"cyclic overlap k={k} q={q} #{i}", text, (k // 2, k // 2), "cycle"))
    rng.shuffle(items)

    # One CLI verify on the first input of each kind; the in-process oracle
    # fills in the expected witness when its task is checked.
    cli, tasks, kinds_seen = [], [], set()
    for idx, (name, text, weights, kind) in enumerate(items):
        expect = None
        if kind not in kinds_seen:
            kinds_seen.add(kind)
            expect = {
                "name": f"verify {name}",
                "argv": ["verify", write_file(workdir, f"fail{idx}.txt", text), "--type", golden_key(weights)],
                "exit": 1,
                "mode": "witness",
            }
            cli.append(expect)
        make = _cycle_task if kind == "cycle" else _fail_task
        tasks.append(make(tr, name, text, weights, expect))
    return Plan(tasks, cli)


# ---------------------------------------------------------------- bounds


def bound_pairs(results) -> list:
    return [[b.provenance, encode_value(b.value)] for b in results]


def build_bounds(seed: int, tr: Tracer, workdir, goldens) -> Plan:
    rng = random.Random(seed)
    grid = [(n, q, w) for w in BOUNDS_TYPES for n in BOUNDS_N for q in BOUNDS_Q]
    rng.shuffle(grid)
    tasks = []
    for n_rows, q, weights in grid:
        key = golden_key(n_rows, q, weights)

        def run(n_rows=n_rows, q=q, weights=weights):
            tr.count("bounds.queries")
            every = tr.call("bounds.query", sh.applicable_upper_bounds, n_rows, q, weights)
            best = tr.call("bounds.query", sh.best_upper_bound, n_rows, q, weights)
            return every, best

        def check(out, key=key):
            every, best = out
            pairs = bound_pairs(every)
            golden = goldens.bounds_grid[key]
            errors = compare_bounds(pairs, golden, f"bounds {key}")
            # The winner is not pinned, only required to be one of the bounds.
            if not any(p == best.provenance and same_value(encode_value(best.value), v) for p, v in golden):
                errors.append(f"bounds {key}: best {best.provenance}={best.value!r} is not an applicable bound")
            return [key, pairs], errors

        tasks.append(Task(f"bounds {key}", run, check))

    extra = []
    for n_rows, q, weights in JOHNSON_POINTS:
        key = golden_key(n_rows, q, weights)

        def run_j(n_rows=n_rows, q=q, weights=weights):
            return tr.call("bounds.johnson", sh.johnson_recursive_bound, n_rows, q, weights)

        def check_j(b, key=key):
            pair = [b.provenance, encode_value(b.value)]
            return [key, pair], compare_bounds([pair], [goldens["johnson"][key]], f"johnson {key}")

        extra.append(Task(f"johnson {key}", run_j, check_j))
    for weights in SIMPLEX_TYPES:
        key = golden_key(weights)

        def run_s(weights=weights):
            r = tr.call("bounds.simplex", sh.max_separation_rate, weights)
            tr.count("bounds.simplex_iterations", r.iterations)
            tr.count("bounds.simplex_starts", r.starts)
            return r

        def check_s(r, key=key):
            g = goldens["simplex"][key]
            errors = fails(not same_value(r.value, g), f"simplex {key}: value {r.value!r}, golden {g!r}")
            errors += fails(abs(sum(r.point) - 1.0) > 1e-9, f"simplex {key}: point is off the simplex")
            return [key, r.value], errors

        extra.append(Task(f"simplex {key}", run_s, check_s))
    for task in extra:
        tasks.insert(rng.randrange(len(tasks) + 1), task)

    cli = [
        {
            "name": "bounds 20 4 2,2,3,5 --lower",
            "argv": ["bounds", "20", "4", "2,2,3,5", "--lower"],
            "exit": 0,
            "mode": "bounds",
            "bounds": goldens["cli"]["bounds 20 4 2,2,3,5 --lower"],
        },
        {
            "name": "bounds --threshold 7",
            "argv": ["bounds", "--threshold", "7"],
            "exit": 0,
            "mode": "exact",
            "stdout": goldens["cli"]["bounds --threshold 7"],
        },
    ]
    return Plan(tasks, cli)


WORKLOAD_PLANS = {
    "capacity": build_capacity,
    "certify-pass": build_certify_pass,
    "certify-fail": build_certify_fail,
    "bounds": build_bounds,
}
