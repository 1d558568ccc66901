"""The traced benchmark run (`bench/run.py --trace 1`) wraps the liepq
bindings that `bench/layers.py` names; each of them must still exist."""

import importlib
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    """LAYERS from bench/layers.py, executed from its source text so that
    nothing is imported, cached or written under bench/."""
    namespace = {"__name__": "bench_layers"}
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_binding_resolves():
    missing = []
    for layer, targets in load_layers().items():
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
