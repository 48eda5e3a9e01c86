"""Each script in demos/ runs standalone, as the README says."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # The demos write their CSV and model files into the working directory.
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
