"""The runtime entry points import neither networkx nor scipy.

Both are heavy imports that only some paths need: networkx is a test
oracle, scipy loads on the first HiGHS solve.  A sweep, the CLI, the
worker pool and the daemon pay for whatever ``import`` drags in before
any loop is scheduled.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

HEAVY = ("networkx", "scipy")


@pytest.mark.parametrize(
    "module", ["repro.core", "repro.cli", "repro.parallel",
               "repro.serve.daemon"],
)
def test_entry_point_skips_heavy_imports(module):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120,
    )
    assert json.loads(out.stdout) == []
