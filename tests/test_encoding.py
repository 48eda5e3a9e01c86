"""Every text file that mtsk reads or writes is opened as UTF-8, never in the locale's encoding.

``python -X warn_default_encoding`` makes each ``open()`` without an encoding emit an
``EncodingWarning``.  Pytest cannot set that flag for its own interpreter, so one round trip
through every reader and writer runs in a child interpreter, where such a warning raised from
mtsk is an error.  The names and the tag hold non-ASCII text, so the files' bytes are UTF-8.
"""
import os
import subprocess
import sys
import textwrap

import mtsk

ROUND_TRIP = textwrap.dedent("""
    import json, sys, warnings
    warnings.filterwarnings("error", category=EncodingWarning, module="mtsk")

    import numpy as np
    from mtsk.cli import main
    from mtsk.cluster import Embedding, dump_embedding
    from mtsk.cohort import Cohort, MTSample, generate_synthetic_cohort, load_cohort, write_cohort
    from mtsk.evaluate import (ExperimentConfig, ExperimentReport, MethodSpec, MetricRow,
                               read_rows_csv, write_aggregate_csv, write_report_json,
                               write_rows_csv)
    from mtsk.kernels import load_matrix, save_matrix

    out = sys.argv[1]
    made = generate_synthetic_cohort(2, 3, 2, 6, 1.0, seed=0)
    cohort = Cohort([MTSample(f"pé{i}", s.values, s.mask, s.label)
                     for i, s in enumerate(made.samples)], ["ä", "b"], 6)
    write_cohort(cohort, f"{out}/cohort.csv")
    assert load_cohort(f"{out}/cohort.csv").ids() == cohort.ids()

    save_matrix(f"{out}/gram.csv", "grâm", np.eye(2))
    assert load_matrix(f"{out}/gram.csv")[0] == "grâm"

    rows = [MetricRow("tck", "none", 6, 0, "test", 0.5, 0.25, 1 / 3)]
    report = ExperimentReport(rows, [], ExperimentConfig(methods=(MethodSpec("tck"),)))
    write_rows_csv(report, f"{out}/rows.csv")
    assert read_rows_csv(f"{out}/rows.csv") == rows
    write_aggregate_csv(report, f"{out}/aggregate.csv")
    write_report_json(report, f"{out}/report.json")
    dump_embedding(f"{out}/embedding.csv", Embedding(np.eye(2), ["pé0", "pé1"]), [1, None],
                   [0, 1])

    with open(f"{out}/config.json", "w", encoding="utf-8") as fh:
        json.dump({"cohort": {"path": f"{out}/cohort.csv"}, "output_dir": f"{out}/run",
                   "methods": [{"kernel": "linear", "imputation": "zero"}], "windows": [6],
                   "runs": 1}, fh)
    assert main(["run", f"{out}/config.json", "--dry-run"]) == 0
""")


def test_readers_and_writers_name_their_encoding(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtsk.__file__)))
    done = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-c", ROUND_TRIP,
                           str(tmp_path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "pé0" in (tmp_path / "cohort.csv").read_bytes().decode("utf-8")
    assert (tmp_path / "gram.csv").read_bytes().startswith("grâm,2,2\n".encode())
