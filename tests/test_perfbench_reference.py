"""Every benchmark workload still reproduces perfbench/reference.json.

One checked pass per workload at the default seed: the cell rows and the
cross-matrix summaries must match the stored reference, and no cell may
fail.  This catches an output drift, or a change to an API the benchmark
reads, in the test suite rather than only when the benchmark runs.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checked_pass_matches_reference(name, tmp_path):
    workload = WORKLOADS[name]()
    workload.setup(checks.DEFAULT_SEED, str(tmp_path))
    checked = workload.checked_pass(Tracer(False))
    assert checked.failed == 0
    checks.check_reference(name, [checked])
