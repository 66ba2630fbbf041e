"""Traced zero-second runs of the benchmark, as a smoke test of the library's call graph.

perfbench's tracer wraps every library function that ``cli`` imports and
checks each item's output against its oracle and its wrapped call counts. A
CLI change that calls a library function through a reference taken before the
wrapping (a cached parser that stored ``type=parse_kernel``, for example)
hides that call and fails the pnm-batch run. The two detector workloads pin
the detectors' output and their calls per frame, such as one
``kernels.pad_samples`` per frame, through the row-range runner. The
box-chain workload pins ``correlate``'s output and its 50 ``correlate`` and
50 ``pad_samples`` calls per frame.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload", ["pnm-batch", "sobel-1080p", "freichen-raw-vga", "box-chain-qvga"]
)
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
