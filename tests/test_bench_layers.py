"""The traced benchmark run (`bench/run.py --trace 1`) wraps the liepq
bindings that `bench/layers.py` names; each of them must still exist, and a
traced seed-1 round of every workload must call each layer it requires."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "bench" / "layers.py"


def load_layers():
    """The names bench/layers.py defines (LAYERS, REQUIRED), executed from
    its source text so that nothing is imported, cached or written under
    bench/."""
    namespace = {"__name__": "bench_layers"}
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), namespace)
    return namespace


def test_every_traced_binding_resolves():
    missing = []
    for layer, targets in load_layers()["LAYERS"].items():
        for modname, qualname in targets:
            module = importlib.import_module("liepq." + modname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                found = isinstance(cls, type) and attr in cls.__dict__
            else:
                found = callable(getattr(module, qualname, None))
            if not found:
                missing.append((layer, modname, qualname))
    assert not missing


def test_matmul_operator_calls_the_module_level_mat_mul(monkeypatch):
    """The traced run counts products by wrapping `exact_linalg.mat_mul` by
    name; `a @ b` must look that name up at call time, or every `@` product
    escapes the count (as it would if `Matrix.__matmul__` were bound to the
    function itself)."""
    import liepq.exact_linalg as exact_linalg

    calls = []
    real = exact_linalg.mat_mul
    monkeypatch.setattr(
        exact_linalg, "mat_mul", lambda a, b: calls.append((a, b)) or real(a, b)
    )
    a = exact_linalg.Matrix.from_rows([[1, 2], [0, 1]])
    b = exact_linalg.Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == real(a, b)
    assert calls == [(a, b)]


@pytest.mark.parametrize("workload", sorted(load_layers()["REQUIRED"]))
def test_traced_seed_1_round_calls_every_required_layer(workload):
    """One traced seed-1 round in its own process, as `bench/run.py` starts
    it (no bytecode written under bench/): it exits 0, records a call on
    every layer REQUIRED names for the workload, and every verdict passes.
    A library change that stops a workload calling a required layer fails
    here, not only in the traced benchmark run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--mode", "run", "--trace"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing_layers"] == []
    assert [(label, problems) for label, _, problems in out["verdicts"] if problems] == []
