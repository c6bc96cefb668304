#!/usr/bin/env python3
"""The revstack benchmark.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  tables         descent_table(9, "revstack", jobs) and descent_table(9, "stack", jobs)
  theorems       verify_theorems(7, jobs)
  appendix_warm  `revstack appendix --max-n 9 --cache-dir D` as a CLI subprocess,
                 after set-up primed D with the same command on an empty directory

jobs is the number of CPUs this process may run on.  Every repetition runs
in a fresh interpreter, repetitions start until --seconds have passed (at
least one), and the metrics are medians over repetitions.  Every output is
checked; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
instead runs the workload untraced at jobs=1 for --seconds, then once
more with every public revstack function wrapped (tracer.py), and reports
the per-layer metrics.  --smoke shrinks every workload (tables at n = 6,
theorems at n = 5, appendix --max-n 5) for the benchmark's own tests.

Exit status: 0 with a result line, 2 when revstack's sources are missing or
a child process fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TMP = HERE / "tmp"

SIZES = {"tables": 9, "theorems": 7, "appendix_warm": 9}
SMOKE_SIZES = {"tables": 6, "theorems": 5, "appendix_warm": 5}
SETUP_SAMPLES = 12  # set-up-only interpreters per run (tables, theorems)
PRIMINGS = 3        # cold appendix invocations per run (appendix_warm)
CHILD_TIMEOUT_S = 170
SORT_PASSES = ("perms.revstack_sort_sim", "perms.stack_sort_sim",
               "perms.revstack_sort", "perms.stack_sort")
KERNEL_LAYERS = ("perms", "patterns", "zigzag", "trees")
US_PER_CALL = (
    "perms.revstack_sort_sim", "perms.stack_sort_sim", "perms.deg_revstack",
    "patterns.is_member_T2", "patterns.is_member_S2", "patterns.contains_classical",
    "patterns.contains_barred", "zigzag.zigzag_degrees", "zigzag.max_zigzag_degree",
    "trees.tree_of", "trees.duality_f", "trees.injection_h",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, a child failed)."""


@dataclass
class Proc:
    stdout: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], env: dict, spawned_at: float) -> Proc:
    """Run argv to completion; CPU time and peak RSS cover the process and
    every descendant it reaped (pool workers)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
    wall_s = time.monotonic() - spawned_at
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(out.decode(), proc.returncode, wall_s,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def child_env(work: Path) -> dict:
    """Children import revstack from this checkout's src only, and every
    route to a user cache is closed: the cache variables are removed and
    HOME points into the run's own work directory."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PERMSORT_CACHE_DIR", "XDG_CACHE_HOME", "PYTHONPATH", "PYTHONHOME")}
    for sub in ("home", "tmp"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    env.update(PYTHONPATH=str(SRC), HOME=str(work / "home"), TMPDIR=str(work / "tmp"),
               PYTHONHASHSEED="0")
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: object = None
    startup_s: float = 0.0


class Workload:
    """Set-up, one measured repetition, and the traced pass of a workload."""

    def __init__(self, n: int, jobs: int, seed: int, work: Path):
        self.n, self.jobs, self.work = n, jobs, work
        self.rng = random.Random(seed)
        self.env = child_env(work)
        self.golden = oracle.load_golden(SRC)
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, results) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failures.append(name)

    def child(self, spec: dict, jobs: int, trace: bool = False) -> tuple[dict, Proc]:
        spawned_at = time.monotonic()
        spec = dict(spec, jobs=jobs, trace=trace, spawned_at=spawned_at, src=str(SRC))
        proc = spawn([sys.executable, str(HERE / "child.py"), json.dumps(spec)], self.env, spawned_at)
        lines = proc.stdout.splitlines()
        if proc.exit_code != 0 or not lines:
            raise BenchError(f"{spec['job']} child exited with {proc.exit_code}")
        return json.loads(lines[-1]), proc

    # The base class covers the in-process jobs (tables, theorems).
    def spec(self) -> dict:
        raise NotImplementedError

    def check_output(self, output) -> None:
        raise NotImplementedError

    def perms_swept(self) -> int:
        return math.factorial(self.n)

    def setup(self) -> None:
        for _ in range(SETUP_SAMPLES):
            record, _ = self.child({"job": "none"}, self.jobs)
            self.setup_samples.append(record["setup_s"])

    def rep(self) -> Sample:
        record, proc = self.child(self.spec(), self.jobs)
        self.setup_samples.append(record["setup_s"])
        self.check_output(record["output"])
        return Sample(record["wall_s"], proc.cpu_s, proc.rss_mb)

    def reference_rep(self) -> Sample:
        record, proc = self.child(self.spec(), 1)
        self.check_output(record["output"])
        return Sample(record["wall_s"], proc.cpu_s, proc.rss_mb, record["output"],
                      startup_s=proc.wall_s - record["wall_s"])

    def traced(self, reference_output) -> tuple[float, dict]:
        record, _ = self.child(self.spec(), 1, trace=True)
        self.check_output(record["output"])
        self.check([("traced output equals untraced output", record["output"] == reference_output),
                    ("revstack bindings restored after tracing", record["restored"] is True)])
        return record["wall_s"], record["trace"]


class Tables(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.sorters = ["revstack", "stack"]
        self.rng.shuffle(self.sorters)

    def spec(self) -> dict:
        return {"job": "tables", "n": self.n, "sorters": self.sorters}

    def check_output(self, output) -> None:
        self.check([("both sorters returned", sorted(output) == ["revstack", "stack"])])
        self.check(oracle.check_tables(self.n, output, self.golden))

    def perms_swept(self) -> int:
        return len(self.sorters) * math.factorial(self.n)


class Theorems(Workload):
    def spec(self) -> dict:
        return {"job": "theorems", "n": self.n}

    def check_output(self, output) -> None:
        self.check(oracle.check_theorems(output))


class AppendixWarm(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.cache_dir = ""
        self.cold_stdout = ""

    def argv(self, jobs: int) -> list[str]:
        return ["appendix", "--max-n", str(self.n), "--cache-dir", self.cache_dir,
                "--jobs", str(jobs)]

    def cli(self) -> Proc:
        spawned_at = time.monotonic()
        return spawn([sys.executable, "-m", "revstack.cli", *self.argv(self.jobs)],
                     self.env, spawned_at)

    def perms_swept(self) -> int:
        return sum(math.factorial(m) for m in range(1, self.n + 1))

    def setup(self) -> None:
        """Prime a fresh cache directory PRIMINGS times; the first one
        serves the warm calls and its stdout is the reference."""
        warm_dir = ""
        for _ in range(PRIMINGS):
            self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work)
            proc = self.cli()
            if not warm_dir:
                warm_dir, self.cold_stdout = self.cache_dir, proc.stdout
            self.check(oracle.check_appendix(proc.exit_code, proc.stdout, self.cold_stdout))
            self.setup_samples.append(proc.wall_s)
        self.cache_dir = warm_dir

    def check_output(self, output) -> None:
        self.check(oracle.check_appendix(output["exit"], output["stdout"], self.cold_stdout))

    def spec(self) -> dict:
        return {"job": "appendix", "argv": self.argv(1)}

    def rep(self) -> Sample:
        proc = self.cli()
        self.check(oracle.check_appendix(proc.exit_code, proc.stdout, self.cold_stdout))
        return Sample(proc.wall_s, proc.cpu_s, proc.rss_mb)


WORKLOAD_CLASSES = {"tables": Tables, "theorems": Theorems, "appendix_warm": AppendixWarm}


def measure(rep, seconds: float) -> list[Sample]:
    """Start repetitions until `seconds` have passed; at least one."""
    samples = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        samples.append(rep())
    return samples


def layer_metrics(bench: Workload, trace: dict, traced_wall: float,
                  reference: list[Sample]) -> dict[str, float]:
    per_fn: dict[str, list] = {}
    for rec in trace["calls"]:
        agg = per_fn.setdefault(rec["fn"], [0, 0.0, 0.0])
        agg[0] += rec["calls"]
        agg[1] += rec["total_s"]
        agg[2] += rec["self_s"]

    def calls(fn: str) -> int:
        return per_fn.get(fn, [0])[0]

    def per_call(fn: str, scale: float) -> float:
        c, total, _ = per_fn.get(fn, [0, 0.0, 0.0])
        return total / c * scale if c else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        recs = [v for fn, v in per_fn.items() if fn.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(v[0] for v in recs)
        m[f"{layer}.self_s"] = sum(v[2] for v in recs)
    for fn in US_PER_CALL:
        m[f"{fn}.us_per_call"] = per_call(fn, 1e6)
    # A recursive reference sorter calls itself; only outside calls are passes.
    passes = sum(r["calls"] for r in trace["calls"] if r["fn"] in SORT_PASSES and r["caller"] != r["fn"])
    m["perms.sort_passes_per_perm"] = passes / bench.perms_swept()
    m["enumeration.descent_table.s_per_call"] = per_call("enumeration.descent_table", 1.0)
    m["enumeration.kernel_calls_per_perm"] = (
        sum(m[f"{layer}.calls"] for layer in KERNEL_LAYERS) / math.factorial(bench.n))
    lookups = calls("enumeration.cached_descent_table")
    misses = sum(r["calls"] for r in trace["calls"]
                 if r["caller"] == "enumeration.cached_descent_table"
                 and r["fn"] == "enumeration.descent_table")
    m["enumeration.cache_hit_ratio"] = ratio(lookups - misses, lookups)
    m["enumeration.cache_read_s"] = per_fn.get("enumeration.cached_descent_table", [0, 0.0, 0.0])[2]
    m["roots.real_roots.calls"] = calls("roots.real_roots")
    m["roots.real_roots.ms_per_call"] = per_call("roots.real_roots", 1e3)
    m["roots.check_interlacing.ms_per_call"] = per_call("roots.check_interlacing", 1e3)
    m["roots.poly_eval.calls"] = calls("roots.poly_eval")
    m["roots.isolations_per_poly"] = ratio(calls("roots.real_roots"),
                                           trace["distinct_args"]["roots.real_roots"])
    m["cli.main_s"] = per_fn.get("cli.main", [0, 0.0, 0.0])[1]
    m["cli.startup_s"] = (statistics.median(s.startup_s for s in reference)
                          if isinstance(bench, AppendixWarm) else 0.0)
    m["trace.overhead_s"] = traced_wall - statistics.median(s.wall_s for s in reference)
    m["error_rate"] = ratio(len(bench.failures), bench.attempted)
    return m


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args) -> dict:
    if not (SRC / "revstack" / "__init__.py").is_file():
        raise BenchError(f"revstack sources not found under {SRC}")
    end_to_end_units, per_layer_units = metric_specs()
    nproc = len(os.sched_getaffinity(0))
    n = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "n": n, "jobs": nproc,
        "nproc": nproc, "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
    meta["git_sha"], meta["git_dirty"] = git_state()
    TMP.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=TMP))
    try:
        bench = WORKLOAD_CLASSES[args.workload](n, nproc, args.seed, work)
        bench.setup()
        record: dict = {"meta": meta}
        if args.trace:
            reference = measure(bench.reference_rep, args.seconds)
            traced_wall, trace = bench.traced(reference[0].output)
            metrics = layer_metrics(bench, trace, traced_wall, reference)
            units = per_layer_units
            record["trace"] = trace
            samples = reference
        else:
            samples = measure(bench.rep, args.seconds)
            metrics = {
                "wall_s": statistics.median(s.wall_s for s in samples),
                "cpu_s": statistics.median(s.cpu_s for s in samples),
                "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
                "setup_s": statistics.median(bench.setup_samples),
            }
            units = end_to_end_units
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics.keys() != units.keys():
        raise BenchError(f"metrics {sorted(metrics.keys() ^ units.keys())} disagree with BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}
    meta.update(loadavg_1m_end=os.getloadavg()[0], repetitions=len(samples),
                attempted=bench.attempted, failed=len(bench.failures),
                failures=sorted(set(bench.failures)),
                error_rate=len(bench.failures) / bench.attempted)
    record["samples"] = [{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb} for s in samples]
    record["setup_samples"] = bench.setup_samples
    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    (OUT / f"{args.workload}{smoke}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("meta " + json.dumps(meta))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_CLASSES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
