"""The benchmark's tracer still finds every function it wraps.

`bench/tracer.py` rebinds tanglekit functions by name, and its
`patch_function` raises when a name is gone, so renaming a traced
function breaks only the traced benchmark run.  Installing the tracer
here, in a fresh interpreter with `src` and `bench` on the path, makes
such a rename fail the suite instead.  It writes no bytecode under `bench`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_traced_name():
    path = os.pathsep.join(os.path.join(ROOT, sub) for sub in ("src", "bench"))
    result = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer, install; install(Tracer())"],
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
