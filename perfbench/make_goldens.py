"""Regenerate goldens.json from the library in src/.

    PYTHONPATH=src python3 perfbench/make_goldens.py

Run from the repository root.  Goldens pin the outputs on the benchmark's
fixed inputs: capacity values, exactness and witness bytes, the
rainbow-free search result, every applicable bound's provenance and value
on the bounds grid, the Johnson and simplex values, and CLI output.
Regenerate only in a change that means to change those answers, and say
which answers changed and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sephash as sh  # noqa: E402

from checks import BOUNDS_GOLDENS_PATH, GOLDENS_PATH, encode_value, golden_key, matrix_text  # noqa: E402
from run import library_env, run_cli  # noqa: E402
from workloads import (  # noqa: E402
    BOUNDS_N,
    BOUNDS_Q,
    BOUNDS_TYPES,
    CAPACITY_POINTS,
    JOHNSON_POINTS,
    RAINBOW_FREE,
    SIMPLEX_TYPES,
    bound_pairs,
    rows_of,
)


def main() -> int:
    root = Path.cwd()
    env = library_env(root)
    goldens: dict = {"capacity": {}, "bounds_grid": {}, "johnson": {}, "simplex": {}}
    for n_rows, q, weights in CAPACITY_POINTS:
        r = sh.exact_capacity(n_rows, q, weights)
        if not r.exact:
            raise SystemExit(f"capacity point {n_rows} {q} {weights} tripped its node budget")
        goldens["capacity"][golden_key(n_rows, q, weights)] = {
            "value": r.value, "exact": r.exact, "witness": sh.write_matrix(r.witness),
        }
    parts, size, ks = RAINBOW_FREE
    goldens["rainbowfree"] = sh.rainbow_free_extremal_search(parts, size, ks).as_json_dict()
    for weights in BOUNDS_TYPES:
        for n_rows in BOUNDS_N:
            for q in BOUNDS_Q:
                goldens["bounds_grid"][golden_key(n_rows, q, weights)] = bound_pairs(
                    sh.applicable_upper_bounds(n_rows, q, weights)
                )
    for n_rows, q, weights in JOHNSON_POINTS:
        b = sh.johnson_recursive_bound(n_rows, q, weights)
        goldens["johnson"][golden_key(n_rows, q, weights)] = [b.provenance, encode_value(b.value)]
    for weights in SIMPLEX_TYPES:
        goldens["simplex"][golden_key(weights)] = sh.max_separation_rate(weights).value

    # CLI output on fixed arguments, and on files whose answer every seed
    # shares (a separating RS code, a doubled cover-free family).
    scratch = root / ".perfbench_tmp" / "goldens"
    scratch.mkdir(parents=True, exist_ok=True)
    rs = scratch / "rs552.txt"
    rs.write_text(sh.write_matrix(sh.reed_solomon_frameproof(5, 5, 2)), encoding="utf-8")
    doubled = scratch / "doubled.txt"
    base = sh.reed_solomon_frameproof(5, 3, 2)
    binary = [[1 if e == s else 0 for e in row] for row in rows_of(base) for s in range(5)]
    doubled.write_text(matrix_text(rows_of(sh.shf_to_cff_double(sh.parse_matrix(matrix_text(binary, 2)), 2)), 2))
    commands = {
        "search 6 2 1,3": ["search", "6", "2", "1,3"],
        "construct rainbowfree 4 3 --k 3:4": ["construct", "rainbowfree", "4", "3", "--k", "3:4"],
        "verify rs552 --type 1,2": ["verify", str(rs), "--type", "1,2"],
        "verify doubled --cff 2": ["verify", str(doubled), "--cff", "2"],
        "bounds --threshold 7": ["bounds", "--threshold", "7"],
    }
    goldens["cli"] = {}
    for name, argv in commands.items():
        code, stdout, _, _ = run_cli(argv, root, env)
        if code != 0:
            raise SystemExit(f"sephash {name} exited with {code}")
        goldens["cli"][name] = stdout
    code, stdout, _, _ = run_cli(["bounds", "20", "4", "2,2,3,5", "--lower"], root, env)
    goldens["cli"]["bounds 20 4 2,2,3,5 --lower"] = [[b["provenance"], b["value"]] for b in json.loads(stdout)]
    for path in (rs, doubled):
        path.unlink()
    scratch.rmdir()
    try:
        scratch.parent.rmdir()
    except OSError:
        pass

    grid = goldens.pop("bounds_grid")
    write_lines(GOLDENS_PATH, {s: goldens[s] for s in goldens}, root)
    write_lines(BOUNDS_GOLDENS_PATH, grid, root)
    return 0


def write_lines(path: Path, data: dict, root: Path) -> None:
    """JSON with one line per entry, so a regenerated file diffs entry by entry."""
    def body(entries: dict, indent: str) -> str:
        return ",\n".join(f"{indent}{json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries))

    if all(isinstance(v, dict) for v in data.values()):
        text = ",\n".join(f"{json.dumps(s)}: {{\n{body(data[s], '  ')}\n}}" for s in sorted(data))
    else:
        text = body(data, "")
    path.write_text("{\n" + text + "\n}\n", encoding="utf-8")
    print(f"wrote {path.relative_to(root)} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    sys.exit(main())
