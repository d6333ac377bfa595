"""Proof that the benchmark's checks catch wrong answers.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Run from the repository root.  Each case takes one real task or CLI
command, confirms its genuine output passes, then tampers with the output
and confirms the check reports an error: a witness moved onto columns some
row separates, an altered bound value, a changed capacity value, changed
witness bytes, and every CLI command of three workloads with the wrong
exit code or the wrong output.  Exits 0 when every tampering is caught,
1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sephash as sh  # noqa: E402

from checks import Goldens, check_cli, mask_elapsed  # noqa: E402
from timing import Tracer  # noqa: E402
from workloads import WORKLOAD_PLANS  # noqa: E402


def task_named(plan, name: str):
    return next(t for t in plan.tasks if t.name == name)


def genuine_stdout(expect: dict) -> str:
    """What the CLI prints when it is right, as far as the check looks."""
    if expect["mode"] == "bounds":
        return json.dumps([{"provenance": p, "value": v} for p, v in expect["bounds"]])
    if expect["mode"] == "witness":
        return json.dumps({"holds": False, "witness": {"parts": expect["parts"]}})
    return expect["stdout"]


def wrong_stdout(expect: dict) -> str:
    if expect["mode"] == "bounds":
        (p, v), *rest = expect["bounds"]
        return json.dumps([{"provenance": p, "value": v + 1}] + [{"provenance": q, "value": w} for q, w in rest])
    if expect["mode"] == "witness":
        parts = [list(part) for part in expect["parts"]]
        parts[0][0] += 1
        return json.dumps({"holds": False, "witness": {"parts": parts}})
    # Change the first digit that the check does not mask.
    text = mask_elapsed(expect["stdout"])
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def separated_variant(m, parts):
    """Witness parts with one column swapped so that some row separates them."""
    used = {c for p in parts for c in p}
    for i, part in enumerate(parts):
        for j in range(len(part)):
            for c in range(m.cols):
                if c in used:
                    continue
                new_part = tuple(sorted(part[:j] + (c,) + part[j + 1:]))
                cand = parts[:i] + (new_part,) + parts[i + 1:]
                if any(sh.row_separates(m, r, cand) for r in range(m.rows)):
                    return cand
    raise AssertionError("no separated variant found")


def main() -> int:
    goldens = Goldens()
    tr = Tracer(False, "selfcheck")
    results = []

    def case(name: str, task, tamper):
        out = task.run()
        _, genuine = task.check(out)
        _, tampered = task.check(tamper(out))
        ok = not genuine and bool(tampered)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine errors {len(genuine)}, "
              f"tampered errors {len(tampered)}" + (f" ({tampered[0]})" if tampered else ""))

    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        workdir = Path(tmp)
        fail = WORKLOAD_PLANS["certify-fail"](7, tr, workdir, goldens)
        task = next(t for t in fail.tasks if t.name.startswith("random"))

        def move_witness(out):
            m, written, witness, report = out
            return m, written, sh.ViolationWitness(separated_variant(m, witness.parts)), report

        case("tampered witness", task, move_witness)

        bounds = WORKLOAD_PLANS["bounds"](7, tr, workdir, goldens)
        task = task_named(bounds, "bounds 20 4 1,2")

        def alter_bound(out):
            every, best = out
            first = dataclasses.replace(every[0], value=every[0].value + 1)
            return [first] + every[1:], best

        case("altered bound value", task, alter_bound)

        capacity = WORKLOAD_PLANS["capacity"](7, tr, workdir, goldens)
        task = task_named(capacity, "capacity 3 3 2,2")
        case("changed capacity value", task,
             lambda out: (dataclasses.replace(out[0], value=out[0].value + 1), out[1]))
        case("changed witness bytes", task, lambda out: (out[0], out[1].replace("1", "2", 1)))

        # The witness CLI check compares with the in-process oracle, which
        # fills in the expected parts when its task is checked.
        for task in fail.tasks:
            task.check(task.run())
        for expect in capacity.cli + bounds.cli + fail.cli:
            stdout = genuine_stdout(expect)
            genuine = check_cli(expect, expect["exit"], stdout)
            wrong_exit = check_cli(expect, 1 - expect["exit"], stdout)
            wrong_out = check_cli(expect, expect["exit"], wrong_stdout(expect))
            ok = not genuine and bool(wrong_exit) and bool(wrong_out)
            results.append(ok)
            print(f"{'ok  ' if ok else 'FAIL'} cli {expect['name']}: wrong exit code and "
                  f"wrong output {'caught' if ok else 'NOT caught'}")

    print(f"{sum(results)}/{len(results)} tamperings caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
