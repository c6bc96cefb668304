"""Run one job of a workload in a fresh interpreter and print the outputs and
timings as one JSON line.

run.py starts this script once per repetition, so the memoised
polynomials in revstack never make a later repetition cheaper than a
user's first call.  The spec is one JSON argument:

  job         "none" (set-up only), "tables", "theorems" or "appendix"
  n, jobs     problem size and worker count (tables, theorems)
  sorters     sorter order for "tables"
  argv        CLI arguments for "appendix", run in-process via cli.main
  trace       wrap every public revstack function while the job runs
  spawned_at  time.monotonic() just before the parent started this process
  src         the directory revstack must be imported from
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def run_job(spec: dict):
    import revstack

    job = spec["job"]
    if job == "tables":
        return {
            sorter: [list(row) for row in revstack.descent_table(spec["n"], sorter, spec["jobs"]).deg_des]
            for sorter in spec["sorters"]
        }
    if job == "theorems":
        return revstack.verify_theorems(spec["n"], spec["jobs"]).to_json()
    if job == "appendix":
        from revstack import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(spec["argv"])
        return {"exit": code, "stdout": buf.getvalue()}
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    import revstack
    from revstack import enumeration

    enumeration.load_reference_tables()
    setup_s = time.monotonic() - spec["spawned_at"]
    expected = Path(spec["src"]).resolve() / "revstack" / "__init__.py"
    if Path(revstack.__file__).resolve() != expected:
        print(f"revstack imported from {revstack.__file__}, expected {expected}", file=sys.stderr)
        return 3

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        output = run_job(spec)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    record = {"setup_s": setup_s, "wall_s": wall_s, "output": output}
    if tracer is not None:
        record["restored"] = tracer.restored()
        record["trace"] = tracer.to_json()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
