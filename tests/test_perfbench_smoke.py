"""A traced pnm-batch run of the benchmark, as a smoke test of the CLI's call graph.

perfbench's tracer wraps every library function that ``cli`` imports and
checks each job's wrapped call counts. A CLI change that calls a library
function through a reference taken before the wrapping (a cached parser that
stored ``type=parse_kernel``, for example) hides that call and fails the run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_pnm_batch_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pnm-batch",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
