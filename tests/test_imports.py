"""Cold start: each command imports only the tanglekit modules it runs.

Every case runs in a fresh interpreter, because the package's modules are
already loaded in the test process.  Each gets the PJH tangle's PD text on
stdin, which only a command without --pd reads, so `verify --in-trans` runs
as `tanglekit pjh | tanglekit verify --in-trans` does.  No command may import `dataclasses`
or `inspect` beyond what a bare interpreter loads: each costs a cold
process several milliseconds of compiling.
"""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import tanglekit.diagram

BASE = {"tanglekit", "tanglekit.cli", "tanglekit.errors"}
DIAGRAM = {
    "tanglekit._record",
    "tanglekit.diagram",
    "tanglekit.diagram.core",
    "tanglekit.diagram.pdcode",
}
IDENTIFY = {
    "tanglekit.rational",
    "tanglekit.diagram.build",
    "tanglekit.diagram.identify",
    "tanglekit.diagram.invariants",
    "tanglekit.diagram.rewrite",
    "tanglekit.diagram.surgery",
} | DIAGRAM
HEAVY = {"dataclasses", "inspect"}
with open("tests/fixtures/pjh.pd", encoding="utf-8") as _fh:
    PJH = _fh.read()

RUN_MAIN = """
import contextlib, io, json, sys
import tanglekit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = tanglekit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(sys.modules)]))
"""


def _loaded(script, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        input=PJH,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def bare_modules():
    """Every module a bare `python -c pass` has loaded by the time it runs."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print('\\n'.join(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "argv,adds",
    [
        ([], set()),
        (["solve"], {"tanglekit._record", "tanglekit.experiments", "tanglekit.rational"}),
        (
            ["deduce", "--facts", "tests/fixtures/facts_empty.json"],
            {"tanglekit._record", "tanglekit.graphdeduce"},
        ),
        (
            ["enumerate", "--max-crossings", "1"],
            {"tanglekit.census", "tanglekit.diagram.rewrite"} | DIAGRAM,
        ),
        (
            ["lk", "--pd", "tests/fixtures/pjh_xarc.pd"],
            {"tanglekit.diagram.invariants"} | DIAGRAM,
        ),
        (
            ["reduce", "--pd", "tests/fixtures/figure_eight.pd"],
            {"tanglekit.diagram.rewrite"} | DIAGRAM,
        ),
        (
            ["pjh"],
            {
                "tanglekit.experiments",
                "tanglekit.rational",
                "tanglekit.diagram.build",
                "tanglekit.diagram.surgery",
            }
            | DIAGRAM,
        ),
        (["verify", "--pd", "tests/fixtures/candidate_8x.pd"], {"tanglekit.experiments"} | IDENTIFY),
        (["verify", "--in-trans"], {"tanglekit.experiments"} | IDENTIFY),
        (["identify", "--pd", "tests/fixtures/figure_eight.pd"], IDENTIFY),
    ],
    ids=[
        "import",
        "solve",
        "deduce",
        "enumerate",
        "lk",
        "reduce",
        "pjh",
        "verify",
        "pjh | verify --in-trans",
        "identify",
    ],
)
def test_command_loads_only_its_modules(argv, adds, bare_modules):
    code, loaded = _loaded(RUN_MAIN, *argv)
    assert code == 0
    assert {m for m in loaded if m.startswith("tanglekit")} == BASE | adds
    assert not HEAVY & (set(loaded) - bare_modules)


def test_one_reexport_loads_one_submodule():
    loaded = _loaded(
        "import json, sys\n"
        "from tanglekit.diagram import simplify\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tanglekit'))))"
    )
    assert set(loaded) == {
        "tanglekit",
        "tanglekit.errors",
        "tanglekit._record",
        "tanglekit.diagram",
        "tanglekit.diagram.core",
        "tanglekit.diagram.rewrite",
    }


def test_reexports_are_the_defining_objects():
    for name in tanglekit.diagram.__all__:
        obj = getattr(tanglekit.diagram, name)
        assert obj.__module__.startswith("tanglekit.diagram."), name
        assert getattr(import_module(obj.__module__), name) is obj, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tanglekit.diagram.no_such_name
    with pytest.raises(ImportError):
        from tanglekit.diagram import no_such_name  # noqa: F401
