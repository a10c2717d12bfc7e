import glob
import os
import subprocess
import sys

import pytest

from conftest import SRC

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = subprocess.run(
        [sys.executable, path], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
