"""Start-up cost: scipy is imported only by the calls that use it.

Each check runs in a fresh interpreter.  In-process, the test modules have
already imported scipy, so a broken lazy import (say `import scipy`
followed by `scipy.linalg.expm`) would still work here.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

import qsnn

_SCIPY_LOADED = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)

_COMMANDS = (
    ["neuron", "exc", "--k", "3", "--l", "5"],
    ["neuron", "final", "--l", "29", "--s", "15"],
    ["network", "run", "--template", "reduced", "--truth-table", "--back-action"],
    ["neuron", "phase", "--m", "3", "--n", "82", "--tune", "--budget", "30"],
    ["neuron", "exc", "--k", "3", "--l", "5", "--tune", "--budget", "20"],
)

# The two calls that import scipy, run in this process and in a fresh one.
_SCIPY_CALLS = """
from qsnn import core, neurons, parameters

ham = neurons.build_exc_hamiltonian(parameters.solve_exc(3, 5))
results = {
    "ode": core.evolve(core.StateVector.all_down(3), ham, 0.5, method="ode").amplitudes,
    "oracle": core.piecewise_constant_propagator(ham, 0.5, 1e-3).matrix,
}
"""


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    root = str(Path(qsnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_commands_load_no_scipy():
    script = f"""
import contextlib, io, json, sys
import qsnn
loaded = {{"import qsnn": {_SCIPY_LOADED}}}
import qsnn.cli
from qsnn import cli
loaded["import qsnn.cli"] = {_SCIPY_LOADED}
for args in {_COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args, prog_name="qsnn", standalone_mode=False)
    loaded[" ".join(args)] = {_SCIPY_LOADED}
print(json.dumps(loaded))
"""
    done = _run_fresh(script)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert len(loaded) == 2 + len(_COMMANDS)
    assert loaded == {step: [] for step in loaded}


def test_scipy_calls_match_in_a_fresh_interpreter(tmp_path):
    out = tmp_path / "results.pkl"
    script = f"""
import pickle, sys
assert not {_SCIPY_LOADED}
{_SCIPY_CALLS}
assert {{'scipy.integrate', 'scipy.linalg'}} <= set(sys.modules)
with open(sys.argv[1], "wb") as f:
    pickle.dump(results, f)
"""
    done = _run_fresh(script, str(out))
    assert done.returncode == 0, done.stderr
    fresh = pickle.loads(out.read_bytes())
    here = {}
    exec(_SCIPY_CALLS, here)
    assert np.array_equal(fresh["ode"], here["results"]["ode"])
    assert np.array_equal(fresh["oracle"], here["results"]["oracle"])
