"""Every benchmark workload still reproduces perfbench/reference.json.

One checked pass per workload at the default seed: the cell rows and the
cross-matrix summaries must match the stored reference, and no cell may
fail.  This catches an output drift, or a change to an API the benchmark
reads, in the test suite rather than only when the benchmark runs.
"""
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from mtsk.cohort import generate_synthetic_cohort
from mtsk.lps import load_lps_forest, lps_train, save_lps_forest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, count_lps  # noqa: E402


def test_benchmark_imports_resolve():
    """Not marked slow, so that a ``-m "not slow"`` run imports perfbench/workloads.py,
    which holds every name the benchmark imports from mtsk.  run.py is left out:
    importing it sets the BLAS thread variables in os.environ."""
    assert sorted(WORKLOADS) == ["imputed-paper", "ladder-small", "native-paper", "oos-scoring"]


def test_lps_counters_are_plain_json(tmp_path):
    """run.py writes the traced counters with json.dumps and no default, so the
    forest figures that count_lps reads (representation_length, each tree's
    segment_length and lag) must be Python ints, for a trained and a loaded forest."""
    cohort = generate_synthetic_cohort(4, 6, 3, 12, 1.5, seed=0)
    forest = lps_train(cohort, n_trees=4, seed=1)
    save_lps_forest(forest, tmp_path / "forest.lps.npz")
    for f in (forest, load_lps_forest(tmp_path / "forest.lps.npz")):
        counts = Counter()
        count_lps(counts, f, len(cohort))
        assert json.loads(json.dumps(counts)) == counts
        assert all(type(v) is int for v in counts.values())


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checked_pass_matches_reference(name, tmp_path):
    workload = WORKLOADS[name]()
    workload.setup(checks.DEFAULT_SEED, str(tmp_path))
    checked = workload.checked_pass(Tracer(False))
    assert checked.failed == 0
    checks.check_reference(name, [checked])
