import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_zigzag_free_counts_script():
    proc = subprocess.run(
        [sys.executable, "scripts/zigzag_free_counts.py", "--max-n", "5", "--jobs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # k = n - 1 = 4: every permutation of S_5 is counted in all three columns
    assert proc.stdout.splitlines()[-3] == "  4          120              120                        120"


def test_zigzag_free_counts_script_jobs_agree():
    outputs = [
        subprocess.run(
            [sys.executable, "scripts/zigzag_free_counts.py", "--max-n", "6", "--jobs", jobs],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for jobs in ("1", "2")
    ]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["zigzag_free_counts.py", "--max-n", "2"],
    # --help exits after the imports, which are what depend on the directory
    ["verify_all.py", "--help"],
])
def test_scripts_run_from_any_directory(tmp_path, argv):
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.extended
def test_verify_all_script():
    # the Steingrimsson comparison always runs to n = 9, whatever --max-n
    proc = subprocess.run(
        [sys.executable, "scripts/verify_all.py", "--max-n", "3", "--jobs", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("total: ALL VERIFIED")
