"""The benchmark's own tests.

    python3 -m pytest -q perfbench

They run every workload in smoke mode (tables at n = 6, theorems at
n = 5, appendix --max-n 5), so they take seconds, not the full sizes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")] + [
    "perms.sort_passes_per_perm", "enumeration.cache_hit_ratio",
]


def smoke(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    metrics = result_of(smoke(workload, 0))
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(smoke(workload, 1))
    second = result_of(smoke(workload, 1))
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    assert first["error_rate"] == 0
    if workload != "theorems":
        assert first["patterns.calls"] == first["zigzag.calls"] == first["trees.calls"] == 0
    if workload == "appendix_warm":
        assert first["enumeration.cache_hit_ratio"] == 1.0
    else:
        assert first["perms.sort_passes_per_perm"] > 0


def _revstack_namespaces():
    return {name: mod for name, mod in sys.modules.items()
            if name == "revstack" or name.startswith("revstack.")}


def test_tracing_wraps_every_copy_keeps_outputs_and_restores(tmp_path):
    import revstack
    from revstack import cli, enumeration, patterns, perms

    argv = ["appendix", "--max-n", "4", "--cache-dir", str(tmp_path), "--jobs", "1"]
    specs = [
        {"job": "tables", "n": 5, "jobs": 1, "sorters": ["revstack", "stack"]},
        {"job": "theorems", "n": 4, "jobs": 1},
        {"job": "appendix", "argv": argv},
    ]
    child.run_job(specs[-1])  # prime the cache, so the runs below are warm
    before = {name: dict(vars(mod)) for name, mod in _revstack_namespaces().items()}
    for spec in specs:
        untraced = child.run_job(spec)
        tracer = Tracer()
        tracer.install()
        try:
            wrapper = perms.revstack_sort_sim
            assert wrapper is not before["revstack.perms"]["revstack_sort_sim"]
            assert enumeration.revstack_sort_sim is patterns.revstack_sort_sim is wrapper
            assert revstack.revstack_sort_sim is wrapper
            assert cli.deg_revstack is perms.deg_revstack is not before["revstack.perms"]["deg_revstack"]
            traced = child.run_job(spec)
        finally:
            tracer.uninstall()
        assert traced == untraced
        assert tracer.restored()
        assert tracer.calls
        after = _revstack_namespaces()
        for name, attrs in before.items():
            now = vars(after[name])
            assert now.keys() == attrs.keys()
            assert all(now[k] is v for k, v in attrs.items())


def test_oracle_agrees_with_golden_data():
    golden = oracle.load_golden(ROOT / "src")
    for n in range(2, 11):
        assert golden[(n, n - 1)] == oracle.eulerian_coeffs(n)
        assert golden[(n, 1)] == oracle.narayana_coeffs(n)
    assert [oracle.stack_count_nm2(n) for n in (4, 5)] == [22, 114]
    assert [oracle.stack_count_nm3(n) for n in (4, 5)] == [14, 91]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "tmp", "__pycache__", ".pytest_cache"))
    proc = smoke("tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
