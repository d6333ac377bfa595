"""sephash benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sephash checkout; the library is loaded from src/.
Workloads: capacity, certify-pass, certify-fail, bounds (see workloads.py
and BENCHMARK.json for what each stresses and why), or all four in turn.

For about S seconds it repeats one cycle: a fresh worker interpreter runs
the workload's task list once and checks every output, then the
workload's CLI commands run one after another as subprocesses and their
exit codes and output are checked.  Load is one process at a time, no
threads.  Times are in reference seconds (see timing.py): measured, then
rescaled by a calibration kernel timed next to them, which absorbs the
host's speed swings.  Every line but the last is for people; the last
line is one JSON object with correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  wall_s       median time of the in-process task list, outputs checked
  setup_s      median, over set-up-only interpreters, of the time from
               starting the interpreter to having imported sephash and
               generated or parsed the seeded inputs
  cli_s        median per cycle of the summed CLI command times
  peak_rss_mb  median peak resident memory of a worker interpreter
  item_p50_ms, item_p95_ms  latency of one task, pooled over cycles
--trace 1 runs traced and untraced workers alternately and reports
per-layer self times, counts, layer shares and the tracing overhead; the
spans are written to .perfbench_out/.

Exit code 0 with a result; 1 if a worker or command could not run at all;
2 if the checkout has no src/sephash.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Goldens, check_cli  # noqa: E402
from timing import SAMPLES_TAG, Sampler  # noqa: E402

WORKLOADS = ("capacity", "certify-pass", "certify-fail", "bounds")
SETUP_REPS = 7
STARTUP_REPS = 5
STARTUP_ARGV = ["bounds", "--threshold", "3"]
SUBPROCESS_TIMEOUT_S = 60
# The CLI runs under timing.cli_main, which only adds the calibration sampler.
CLI_BOOT = f"import sys; sys.path.insert(0, {str(HERE)!r}); from timing import cli_main; sys.exit(cli_main())"

# Per-layer metrics: span keys whose self time is reported in ms.
LAYER_MS = (
    "matrix.parse", "matrix.write",
    "verification.pass", "verification.fail", "verification.linear",
    "hypergraph.cycle", "hypergraph.shadow",
    "coverfree.cff",
    "search.capacity", "search.rainbowfree", "search.construct",
    "bounds.query", "bounds.johnson", "bounds.simplex",
    "bench.check",
)
LAYER_COUNTS = (
    "matrix.parse_bytes", "verification.pass_tuples", "verification.fail_calls",
    "hypergraph.cycle_calls", "search.nodes", "search.exact_points",
    "search.rainbowfree_nodes", "bounds.queries", "bounds.simplex_iterations",
    "bounds.simplex_starts",
)
LAYERS = ("matrix", "verification", "hypergraph", "coverfree", "search", "bounds", "bench")


class BenchError(Exception):
    """A worker or command could not be run, so there is no result."""


def cli_command(argv: list[str]) -> list[str]:
    """The sephash CLI as a subprocess of this interpreter."""
    return [sys.executable, "-c", CLI_BOOT, *argv]


def library_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(argv: list[str], root: Path, env: dict, sampler: Sampler | None = None):
    """Run one CLI command; returns exit code, stdout, start and end time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        cli_command(argv), cwd=root, env=env, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    t1 = time.perf_counter()
    if sampler is not None:
        for line in proc.stderr.splitlines():
            if line.startswith(SAMPLES_TAG):
                sampler.merge(json.loads(line[len(SAMPLES_TAG):]))
    return proc.returncode, proc.stdout, t0, t1


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p: int) -> float:
    """p-th percentile, interpolated between neighbouring samples.

    Interpolation keeps the value continuous when samples near the rank
    come from tasks of different sizes, where nearest rank would jump.
    """
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, workdir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = library_env(root)
        self.sampler = Sampler()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()

    def worker(self, *, trace: int = 0, setup_only: bool = False, run_id: str = "run") -> dict:
        """Run one worker; its result, with setup_s in reference seconds added."""
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--trace", str(trace), "--workdir", str(self.workdir),
            "--run-id", run_id,
        ] + (["--setup-only"] if setup_only else [])
        self.sampler.sample()
        spawn = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.sampler.merge(out.pop("samples"))
        out["setup_s"] = self.sampler.reference(spawn, out["setup_done"])
        if not setup_only:
            self.attempted += out["attempted"]
            self.failed += out["failed"]
            self.errors += out["errors"]
            self.digests.add(out["digest"])
        return out

    def cli(self, plan: list[dict], spans: list | None = None) -> float:
        """Run the CLI commands once, checked; their summed reference seconds."""
        total = 0.0
        for expect in plan:
            self.sampler.sample()
            code, stdout, t0, t1 = run_cli(expect["argv"], self.root, self.env, self.sampler)
            total += self.sampler.reference(t0, t1)
            if spans is not None:
                spans.append({"name": "cli.command", "layer": "cli", "start": t0, "end": t1,
                              "parent": None, "run": f"cli {expect['name']}"})
            problems = check_cli(expect, code, stdout)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.errors += problems
        return total

    def startup_ms(self, spans: list) -> float:
        """Median time of a trivial CLI command: interpreter start and imports."""
        times = []
        for _ in range(STARTUP_REPS):
            self.sampler.sample()
            code, _, t0, t1 = run_cli(STARTUP_ARGV, self.root, self.env, self.sampler)
            if code != 0:
                raise BenchError(f"sephash {' '.join(STARTUP_ARGV)} exited with {code}")
            spans.append({"name": "cli.startup", "layer": "cli", "start": t0, "end": t1,
                          "parent": None, "run": "cli startup"})
            times.append(1000 * self.sampler.reference(t0, t1))
        return median(times)


def listed(xs) -> str:
    return " ".join(f"{x:.4f}" for x in xs)


def cycles(seconds: float, start: float, body) -> None:
    """Run body() at least once, and again while half a cycle still fits."""
    while True:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + 0.5 * last >= seconds:
            return


def end_to_end(bench: Bench, seconds: float, start: float) -> tuple[dict, list[str]]:
    setups = [bench.worker(setup_only=True)["setup_s"] for _ in range(SETUP_REPS)]
    walls, raw_walls, clis, rss, items = [], [], [], [], []

    def body():
        out = bench.worker()
        walls.append(out["wall_s"])
        raw_walls.append(out["raw_wall_s"])
        rss.append(out["peak_rss_mb"])
        items.extend(out["items_ms"])
        clis.append(bench.cli(out["cli"]))

    cycles(seconds, start, body)
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "cli_s": (median(clis), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "item_p50_ms": (percentile(items, 50), "ms"),
        "item_p95_ms": (percentile(items, 95), "ms"),
    }
    notes = [
        f"cycles {len(walls)}; item samples {len(items)}",
        f"wall_s per cycle: {listed(walls)} (raw: {listed(raw_walls)})",
        f"cli_s per cycle: {listed(clis)}",
        f"setup_s per set-up interpreter: {listed(setups)}",
    ]
    return metrics, notes


def per_layer(bench: Bench, seconds: float, start: float) -> tuple[dict, list[str], list]:
    spans: list = []
    startup = bench.startup_ms(spans)
    plain, traced, cli_ms, selfs, task_selfs, counts = [], [], [], [], [], []

    def body():
        plain.append(bench.worker(trace=0)["wall_s"])
        out = bench.worker(trace=1, run_id=f"traced-{len(traced)}")
        traced.append(out["wall_s"])
        selfs.append(out["self_s"])
        task_selfs.append(out["task_self_s"])
        counts.append(out["counts"])
        spans.extend(out["spans"])
        cli_ms.append(1000 * bench.cli(out["cli"], spans))

    cycles(seconds, start, body)

    def med_of(rows, key):
        return median([r.get(key, 0.0) for r in rows])

    metrics = {}
    for key in LAYER_MS:
        metrics[f"{key}_ms"] = (1000 * med_of(selfs, key), "ms")
    for key in LAYER_COUNTS:
        metrics[key] = (med_of(counts, key), "count")

    def rate(count_key, ms_key):
        ms = metrics[ms_key][0]
        return metrics[count_key][0] / (ms / 1000) if ms > 0 else 0.0

    metrics["verification.pass_tuples_per_s"] = (rate("verification.pass_tuples", "verification.pass_ms"), "1/s")
    calls = metrics["verification.fail_calls"][0]
    metrics["verification.fail_ms_per_call"] = (
        metrics["verification.fail_ms"][0] / calls if calls else 0.0, "ms")
    metrics["search.nodes_per_s"] = (rate("search.nodes", "search.capacity_ms"), "1/s")
    metrics["search.rainbowfree_nodes_per_s"] = (
        rate("search.rainbowfree_nodes", "search.rainbowfree_ms"), "1/s")
    metrics["cli.startup_ms"] = (startup, "ms")
    metrics["cli.command_ms"] = (median(cli_ms), "ms")
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")

    # Shares of the traced task phase (the part wall_s times), by layer.
    shares = []
    for row in task_selfs:
        total = sum(row.values())
        by_layer = {layer: 0.0 for layer in LAYERS}
        for key, secs in row.items():
            by_layer[key.split(".", 1)[0]] += secs
        by_layer = {k: v / total for k, v in by_layer.items()}
        by_layer["find_violation"] = (row.get("verification.pass", 0.0) + row.get("verification.fail", 0.0)) / total
        shares.append(by_layer)
    for layer in LAYERS + ("find_violation",):
        metrics[f"share.{layer}"] = (median([s[layer] for s in shares]), "ratio")
    library = {k: metrics[f"share.{k}"][0] for k in LAYERS if k != "bench"}
    dominant = max(library, key=library.get)
    metrics["share.dominant"] = (library[dominant], "ratio")
    notes = [
        f"traced cycles {len(traced)}; traced wall_s median {median(traced):.4f} s, "
        f"untraced {median(plain):.4f} s",
        f"dominant layer {dominant}: {100 * library[dominant]:.1f}% of traced wall_s (task phase)",
        "layer shares: " + ", ".join(f"{k} {100 * metrics[f'share.{k}'][0]:.1f}%" for k in LAYERS + ("find_violation",)),
    ]
    return metrics, notes, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sephash" / "__init__.py").is_file():
        print("error: no src/sephash here; run from the root of a sephash checkout", file=sys.stderr)
        return 2
    try:
        Goldens()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read goldens: {exc}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(root, w, args.seed, args.seconds, args.trace) for w in workloads)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> int:
    start = time.perf_counter()
    workdir = root / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, workload, seed, workdir)
    try:
        if trace:
            metrics, notes, spans = per_layer(bench, seconds, start)
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
            spans_path.write_text(json.dumps(spans, separators=(",", ":")), encoding="utf-8")
            notes.append(f"{len(spans)} spans written to {spans_path.relative_to(root)}")
        else:
            metrics, notes = end_to_end(bench, seconds, start)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"# sephash benchmark  workload={workload} seed={seed} trace={trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} cpu={cpu_model()!r}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"# error_rate {rate:.6f} ratio = {bench.failed} wrong, missing or raised "
          f"/ {bench.attempted} tasks and CLI commands attempted")
    for err in bench.errors[:20]:
        print(f"# ERROR {err.strip()}")
    print(f"# output digest sha256 {' '.join(sorted(bench.digests))}"
          + ("" if len(bench.digests) == 1 else "  (differs between repetitions!)"))
    result = {
        "correct": bench.failed == 0 and len(bench.digests) == 1,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
