"""Smoke tests: every example script runs clean end to end.

(system_comparison.py is exercised by the benchmark suite's Fig 4-7
logic and takes minutes, so it is excluded from the quick suite.)
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

QUICK_EXAMPLES = [
    "quickstart.py",
    "custom_iterator.py",
    "python_kernels.py",
    "distributed_traversal.py",
    "trace_timeline.py",
    "submit_pipeline.py",
    "batch_machine.py",
    "scale_out.py",
    "split_index.py",
    "crash_recovery.py",
]


@pytest.mark.parametrize("script", QUICK_EXAMPLES)
def test_example_runs_clean(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"
    assert "Traceback" not in completed.stderr


def test_all_examples_are_listed():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert set(QUICK_EXAMPLES) | {"system_comparison.py"} == on_disk
