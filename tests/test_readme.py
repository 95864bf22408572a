"""The README's examples run as written against the package."""

import os
import re
import subprocess
import sys

import h1geom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_tour_runs():
    # the README's one python block: a renamed or removed public name
    # fails here rather than leaving the README stale
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (tour,) = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    src = os.path.dirname(os.path.dirname(os.path.abspath(h1geom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", tour], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "vs" in proc.stdout
