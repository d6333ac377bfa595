"""Command-line front end.

Exit codes: 0 when the requested property holds (or a computation
succeeded), 1 when a checked property fails (not an SHF, no cycle found),
2 on usage or input-format errors.  All output is JSON with sorted keys so
pipelines can rely on a stable schema; seeds are always explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import applicable_upper_bounds, prob_lower_bound, vacuous_lower_bound
from .coverfree import frameproof_threshold_bounds, is_cff, shf_to_cff_double, cff_derived
from .hypergraph import (
    _cycles,
    cycle_to_violation,
    find_rainbow_cycle,
    hypergraph_to_matrix,
    is_linear_hypergraph,
    matrix_to_hypergraph,
    shadow_graph,
)
from .matrix import (
    Matrix,
    MatrixFormatError,
    SeparationType,
    group_rows,
    parse_matrix,
    write_matrix,
)
from .search import (
    _DEFAULT_NODE_BUDGET,
    _DEFAULT_RAINBOW_FREE_BUDGET,
    exact_capacity,
    identity_construction,
    rainbow_free_extremal_search,
    random_shf_alteration,
    reed_solomon_frameproof,
)
from .verification import find_violation, is_linear_shf

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2


def _emit(payload) -> None:
    # Exact bounds such as q**N can pass Python's int-to-str digit limit.
    # Lift it only while serializing; parsing argv and files keeps it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)


def _read_matrix(path: str) -> Matrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_matrix does; the placeholder stands for the
        # bad byte, so a break just before it starts a new line.
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise MatrixFormatError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line) from None
    return parse_matrix(text)


def _write_output(matrix: Matrix, path: str | None) -> None:
    text = write_matrix(matrix)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    m = _read_matrix(args.matrix)
    if args.linear:
        holds = is_linear_shf(m)
        _emit({"property": "linear", "holds": holds})
        return EXIT_OK if holds else EXIT_PROPERTY_FAILS
    if args.cff is not None:
        violation = is_cff(m, args.cff)
        report = {"property": f"cover-free({args.cff})", "holds": violation is None}
        if violation is not None:
            report["witness"] = {"member": violation[0], "cover": list(violation[1])}
        _emit(report)
        return EXIT_OK if violation is None else EXIT_PROPERTY_FAILS
    weights = SeparationType.parse(args.type)
    witness = find_violation(m, weights)
    report = {"property": f"separating{weights}", "holds": witness is None}
    if witness is not None:
        report["witness"] = witness.as_json_dict(m.rows)
    _emit(report)
    return EXIT_OK if witness is None else EXIT_PROPERTY_FAILS


def _cmd_bounds(args) -> int:
    if args.threshold is not None:
        _emit(frameproof_threshold_bounds(args.threshold).as_json_dict())
        return EXIT_OK
    if args.N is None or args.q is None or args.type is None:
        raise ValueError("bounds needs N q TYPE (or --threshold W)")
    weights = SeparationType.parse(args.type)
    results = applicable_upper_bounds(args.N, args.q, weights)
    if args.lower:
        results.append(prob_lower_bound(args.N, args.q, weights))
        results.append(vacuous_lower_bound(weights))
    results.sort(key=lambda b: (b.value, b.provenance))
    _emit([b.as_json_dict() for b in results])
    return EXIT_OK


def _cmd_hypergraph(args) -> int:
    m = _read_matrix(args.matrix)
    h = matrix_to_hypergraph(m)
    if args.shadow:
        sg = shadow_graph(h)
        _emit(
            {
                "vertices": len(sg.vertices),
                "graph_edges": sg.graph_edge_count,
                "edge_disjoint_cliques": sg.disjoint_clique_count(),
                "linear": is_linear_hypergraph(h),
            }
        )
        return EXIT_OK
    if args.rainbow == "any":
        cycles = _cycles(h, range(3, h.parts + 1))
        cycle = next((c for c in cycles if c is not None), None)
    else:
        cycle = find_rainbow_cycle(h, int(args.rainbow))
    if cycle is None:
        _emit({"cycle": None})
        return EXIT_PROPERTY_FAILS
    report = {"cycle": cycle.as_json_dict()}
    if args.violation:
        report["violation"] = cycle_to_violation(h, cycle).as_json_dict(m.rows)
    _emit(report)
    return EXIT_OK


def _cmd_search(args) -> int:
    weights = SeparationType.parse(args.type)
    result = exact_capacity(args.N, args.q, weights, node_budget=args.budget)
    if args.witness_out:
        _write_output(result.witness, args.witness_out)
    _emit(result.as_json_dict())
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.kind == "identity":
        m = identity_construction(args.N, args.w)
    elif args.kind == "rs":
        m = reed_solomon_frameproof(args.q, args.N, args.w)
    elif args.kind == "random":
        weights = SeparationType.parse(args.type)
        m = random_shf_alteration(args.N, args.q, weights, seed=args.seed, trials=args.trials)
    else:  # rainbowfree
        lo, _, hi = args.k.partition(":")
        try:
            ks = list(range(int(lo), int(hi or lo) + 1))
        except ValueError:
            ks = []
        if not ks:
            raise ValueError(f"bad --k range {args.k!r}: expected K or LO:HI with LO <= HI")
        result = rainbow_free_extremal_search(args.r, args.q, ks, node_budget=args.budget)
        _emit(result.as_json_dict())
        if args.out:
            _write_output(hypergraph_to_matrix(result.hypergraph), args.out)
        return EXIT_OK
    _write_output(m, args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    m = _read_matrix(args.matrix)
    if args.group_rows is not None:
        out = group_rows(m, args.group_rows)
    elif args.double is not None:
        out = shf_to_cff_double(m, args.double)
    else:
        if args.w is None:
            raise ValueError("--derive needs --w (current cover-free order)")
        out = cff_derived(m, args.derive, args.w)
    _write_output(out, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sephash",
        description="Separating hash family toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check separation / cover-free / linearity")
    p.add_argument("matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--type", help="separation type, e.g. 1,3")
    g.add_argument("--cff", type=int, help="cover-free order w")
    g.add_argument("--linear", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="capacity bounds for (N, q, TYPE)")
    p.add_argument("N", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("type", nargs="?")
    p.add_argument("--lower", action="store_true", help="include lower bounds")
    p.add_argument(
        "--threshold",
        type=int,
        metavar="W",
        help="emit binary frameproof row-threshold bounds instead",
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("hypergraph", help="rainbow cycles and the shadow graph")
    p.add_argument("matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rainbow", metavar="K", help="cycle length, or 'any'")
    g.add_argument("--shadow", action="store_true")
    p.add_argument(
        "--violation",
        action="store_true",
        help="also convert a found even spanning cycle into a witness",
    )
    p.set_defaults(func=_cmd_hypergraph)

    p = sub.add_parser("search", help="exact capacity at desk scale")
    p.add_argument("N", type=int)
    p.add_argument("q", type=int)
    p.add_argument("type")
    p.add_argument("--budget", type=int, default=_DEFAULT_NODE_BUDGET)
    p.add_argument("--witness-out", metavar="PATH")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("construct", help="build verified witness matrices")
    kinds = p.add_subparsers(dest="kind", required=True)

    k = kinds.add_parser("identity")
    k.add_argument("N", type=int)
    k.add_argument("w", type=int)
    k.add_argument("--out")

    k = kinds.add_parser("rs", help="polynomial evaluation code over a prime field")
    k.add_argument("q", type=int)
    k.add_argument("N", type=int)
    k.add_argument("w", type=int)
    k.add_argument("--out")

    k = kinds.add_parser("random", help="random construction with deletion")
    k.add_argument("N", type=int)
    k.add_argument("q", type=int)
    k.add_argument("type")
    k.add_argument("--seed", type=int, required=True)
    k.add_argument("--trials", type=int, default=1)
    k.add_argument("--out")

    k = kinds.add_parser("rainbowfree", help="extremal rainbow-cycle-free search")
    k.add_argument("r", type=int)
    k.add_argument("q", type=int)
    k.add_argument("--k", required=True, help="cycle length range, e.g. 3:4")
    k.add_argument("--budget", type=int, default=_DEFAULT_RAINBOW_FREE_BUDGET)
    k.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("convert", help="matrix transforms")
    p.add_argument("matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--group-rows", type=int, metavar="A")
    g.add_argument("--double", type=int, metavar="W")
    g.add_argument("--derive", type=int, metavar="COLUMN")
    p.add_argument("--w", type=int, help="cover-free order for --derive")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # ValueError covers MatrixFormatError and PreconditionError; OverflowError
    # is a grouped alphabet past the symbol limit (convert --group-rows).
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
