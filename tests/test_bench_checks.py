"""The benchmark's correctness checks.

`bench/worker.py --check` runs one untimed repetition of a workload and
reports `"ok": false` when an output digest differs from the one
`bench/workloads.py` pins, when `replay` of its `events.jsonl` differs
from the run, or when its exported ledger fails to verify.  With
`--trace` it also installs `bench/layertrace.py`.  The runs start with
the session (background.py).
"""
import json

import pytest

from background import WORKER_RUNS


@pytest.mark.parametrize("run", WORKER_RUNS)
def test_benchmark_worker_check(run, background, request):
    returncode, out, err = background.result(request.node.name)
    assert returncode == 0, err[-2000:]
    result = json.loads(out)
    assert result["ok"], result["errors"]
    assert result["digest_checked"]
