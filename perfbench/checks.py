"""Output checks that do not trust the code they check.

Goldens (goldens.json and goldens_bounds.json, written by make_goldens.py
from the library as it stood when the benchmark was defined) pin the
answers on fixed inputs.  Seeded inputs have no golden; their answers are
checked here from the definition instead.  Nothing in this module imports
sephash: where a witness has to be re-validated, callers pass in
row_separates, the library's definitional one-row check, which its
enumeration does not use.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from itertools import combinations
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
BOUNDS_GOLDENS_PATH = Path(__file__).with_name("goldens_bounds.json")
FLOAT_REL_TOL = 1e-9


class Goldens:
    """Golden outputs by section.

    The bounds grid is nine tenths of the data and only the bounds checks
    use it, so it is read on first use: after set-up, which it would
    otherwise dominate.
    """

    def __init__(self):
        with open(GOLDENS_PATH, encoding="utf-8") as fh:
            self._sections = json.load(fh)
        self._grid = None

    def __getitem__(self, section: str):
        return self._sections[section]

    @property
    def bounds_grid(self) -> dict:
        if self._grid is None:
            with open(BOUNDS_GOLDENS_PATH, encoding="utf-8") as fh:
                self._grid = json.load(fh)
        return self._grid


def golden_key(*parts) -> str:
    """Stable text key such as "4 3 2,2" for a point (N, q, weights)."""
    return " ".join(
        ",".join(str(x) for x in p) if isinstance(p, (tuple, list)) else str(p)
        for p in parts
    )


def encode_value(value):
    """JSON form of a bound value: ints and floats as is, infinity as "inf"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def same_value(actual, golden) -> bool:
    """Integers exactly; floats to FLOAT_REL_TOL relative; "inf" literally."""
    if golden in ("inf", "infinity"):
        return actual in ("inf", "infinity") or (
            isinstance(actual, float) and math.isinf(actual) and actual > 0
        )
    if isinstance(actual, str):
        return False
    if isinstance(golden, int) and not isinstance(golden, bool):
        return actual == golden
    return math.isclose(actual, golden, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)


def compare_bounds(actual: list, golden: list, where: str) -> list[str]:
    """Each formula's (provenance, value) must match the golden, in order."""
    if [p for p, _ in actual] != [p for p, _ in golden]:
        return [f"{where}: provenances {[p for p, _ in actual]} != {[p for p, _ in golden]}"]
    return [
        f"{where}: {prov} = {a!r}, golden {g!r}"
        for (prov, a), (_, g) in zip(actual, golden)
        if not same_value(a, g)
    ]


def matrix_text(rows, q: int) -> str:
    """The matrix file format, written without the library."""
    head = f"{len(rows)} {len(rows[0])} {q}\n"
    if not rows[0]:
        return head
    return head + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def naive_separating(rows, weights) -> bool:
    """Unpruned oracle from the definition: every positional part tuple.

    No bitmasks, no canonical ordering and no early exit inside a tuple.
    Exponential; only for inputs with a handful of columns.
    """
    n = len(rows[0])
    sizes = sorted(weights)
    if n < sum(sizes):
        return True

    def tuples(cols, sizes):
        if not sizes:
            yield ()
            return
        for head in combinations(cols, sizes[0]):
            rest = [c for c in cols if c not in head]
            for tail in tuples(rest, sizes[1:]):
                yield (head,) + tail

    for parts in tuples(list(range(n)), sizes):
        if not any(
            all(
                {row[c] for c in a}.isdisjoint({row[c] for c in b})
                for a, b in combinations(parts, 2)
            )
            for row in rows
        ):
            return False
    return True


def naive_cover_free(rows, w: int) -> bool:
    """Every member keeps a private 1-row against every w others."""
    n = len(rows[0])
    for a0 in range(n):
        others = [j for j in range(n) if j != a0]
        for cover in combinations(others, w):
            if not any(row[a0] == 1 and all(row[j] == 0 for j in cover) for row in rows):
                return False
    return True


def agreements(col_a, col_b) -> int:
    return sum(1 for a, b in zip(col_a, col_b) if a == b)


def validate_witness(m, weights, parts, row_separates) -> list[str]:
    """A failing certificate must really show that no row separates.

    Parts pairwise disjoint, in range, of the sizes the type asks for, and
    no row of m separates them.
    """
    flat = [c for p in parts for c in p]
    errors = []
    if len(set(flat)) != len(flat):
        errors.append(f"witness parts overlap: {parts}")
    if any(not 0 <= c < m.cols for c in flat):
        errors.append(f"witness column out of range: {parts}")
    if sorted(len(p) for p in parts) != sorted(weights):
        errors.append(f"witness sizes {[len(p) for p in parts]} do not match type {list(weights)}")
    if errors:
        return errors
    separating_rows = [r for r in range(m.rows) if row_separates(m, r, parts)]
    if separating_rows:
        errors.append(f"row {separating_rows[0]} separates witness {parts}")
    return errors


_ELAPSED = re.compile(r'("elapsed_seconds": )[-+0-9.eE]+')


def mask_elapsed(text: str) -> str:
    return _ELAPSED.sub(r"\1<masked>", text)


def check_cli(expect: dict, code: int, stdout: str) -> list[str]:
    """Compare one CLI command's exit code and standard output.

    Modes: "exact" (bytes), "mask_elapsed" (bytes after masking
    elapsed_seconds), "bounds" (each formula's provenance and value, as in
    compare_bounds) and "witness" (property fails with the given parts).
    """
    name = expect["name"]
    errors = []
    if code != expect["exit"]:
        errors.append(f"cli {name}: exit code {code}, expected {expect['exit']}")
    mode = expect["mode"]
    if mode == "exact":
        if stdout != expect["stdout"]:
            errors.append(f"cli {name}: stdout differs from golden")
    elif mode == "mask_elapsed":
        if mask_elapsed(stdout) != mask_elapsed(expect["stdout"]):
            errors.append(f"cli {name}: stdout differs from golden")
    elif mode == "bounds":
        try:
            got = [(b["provenance"], b["value"]) for b in json.loads(stdout)]
        except (ValueError, TypeError, KeyError) as exc:
            return errors + [f"cli {name}: unreadable output: {exc}"]
        errors += compare_bounds(got, [tuple(p) for p in expect["bounds"]], f"cli {name}")
    elif mode == "witness":
        try:
            report = json.loads(stdout)
            got = report["witness"]["parts"]
        except (ValueError, TypeError, KeyError) as exc:
            return errors + [f"cli {name}: unreadable output: {exc}"]
        if report.get("holds") is not False or got != expect["parts"]:
            errors.append(f"cli {name}: witness {got}, in-process oracle gave {expect['parts']}")
    else:
        errors.append(f"cli {name}: unknown check mode {mode}")
    return errors


def digest(records) -> str:
    """SHA-256 of the canonical JSON of every checked output, in task order."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
