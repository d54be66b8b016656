"""Cold start: set-up imports neither numpy nor the simulator.

Structural, not timed: each check runs in a fresh interpreter and
lists which heavy modules the set-up left in ``sys.modules``.  Every
package serves its public names on first access (``repro._lazy``), so
a name must still resolve and show in ``dir()`` although nothing
imported it up front.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api

SRC = Path(__file__).resolve().parents[1] / "src"

#: What no set-up may load: numpy, the simulator, the execution layer.
HEAVY = ("numpy", "repro.core.cluster", "repro.api.execute")

_REPORT = (f"import json, sys; print(json.dumps([m for m in {HEAVY!r} "
           f"if m in sys.modules]))")

#: The packages whose public names resolve on first access.
LAZY_PACKAGES = ("repro", "repro.api", "repro.core", "repro.energy",
                 "repro.eval", "repro.isa", "repro.kernels", "repro.mem",
                 "repro.obs", "repro.ssr", "repro.sweep")


def _loaded_after(code: str) -> list[str]:
    """The :data:`HEAVY` modules a fresh interpreter holds after
    running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{_REPORT}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv: str) -> str:
    """``python -m repro ARGV`` inside the interpreter, exit caught."""
    return (f"import contextlib, io, runpy, sys\n"
            f"sys.argv = ['repro', *{list(argv)!r}]\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    try:\n"
            f"        runpy.run_module('repro', run_name='__main__')\n"
            f"    except SystemExit:\n"
            f"        pass")


@pytest.mark.parametrize("code", [
    "from repro.api import Session\n"
    "from repro.eval.figures import claims_from_results\n"
    "Session(cache={store!r})",
    _cli("--help"),
    _cli("cache", "--help"),
], ids=["fig3-cold-setup", "repro --help", "repro cache --help"])
def test_set_up_loads_neither_numpy_nor_the_simulator(code, tmp_path):
    assert _loaded_after(code.format(store=str(tmp_path / "store"))) == []


def test_worker_pool_imports_the_execution_layer_before_forking(tmp_path):
    """Pool workers fork from the parent, so the parent imports the
    simulator before it starts the first one and no worker starts cold;
    a pool that has started no worker, as in a server that has only
    answered health checks, has loaded none of it."""
    assert _loaded_after("from repro.sweep.runner import WorkerPool\n"
                         "WorkerPool(1).close()") == []
    ran = ("import threading\n"
           "from repro.api import workload\n"
           "from repro.sweep.runner import WorkerPool\n"
           "pool, done = WorkerPool(1), threading.Event()\n"
           "pool.submit(workload('vecop', 'baseline', n=16), None,\n"
           "            lambda *report: done.set())\n"
           "assert done.wait(120)\n"
           "pool.close()")
    assert _loaded_after(ran) == list(HEAVY)
    served = ("from repro.serve.testing import ServerThread\n"
              f"with ServerThread({str(tmp_path)!r}) as server:\n"
              "    assert server.client().healthz()['ok']")
    assert _loaded_after(served) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_public_names_resolve_and_show_in_dir(name):
    from repro._lazy import _origins

    package = importlib.import_module(name)
    listed = set(dir(package))
    for attr in package.__all__:
        assert getattr(package, attr) is not None, attr
        assert attr in listed, attr
    # The TYPE_CHECKING imports are the one record of where a name
    # lives: each names a public attribute.
    assert set(_origins(name)) <= set(package.__all__)


def test_unknown_names_stay_attribute_errors():
    assert not hasattr(repro, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.api.no_such_name
