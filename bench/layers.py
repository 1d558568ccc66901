"""Per-layer tracing for the traced run.

`Tracer.install` wraps named liepq functions in every liepq module namespace
that bound them (so `from .exact_linalg import mat_mul` in another module is
wrapped too) and methods on their class.  Each wrapper records calls and
inclusive time on a span stack; a layer's self time is its inclusive time
minus that of the wrapped calls it made.  The spans stay in memory and are
summarized when the round ends.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module, function or Class.method) pairs
LAYERS = {
    "exact_linalg.mat_mul": [("exact_linalg", "mat_mul")],
    "exact_linalg.elementwise": [
        ("exact_linalg", "Matrix.__add__"),
        ("exact_linalg", "Matrix.__sub__"),
        ("exact_linalg", "Matrix.scale"),
    ],
    "exact_linalg.echelon": [
        ("exact_linalg", "rref"),
        ("exact_linalg", "kernel"),
        ("exact_linalg", "solve_linear"),
        ("exact_linalg", "invert"),
        ("exact_linalg", "Subspace.reduce"),
    ],
    "lie_core.jacobi": [("lie_core", "LieAlgebra._check_jacobi")],
    "lie_core.killing": [("lie_core", "LieAlgebra.killing_form")],
    "lie_core.structure": [
        ("lie_core", "LieAlgebra.from_matrices"),
        ("lie_core", "LieAlgebra.from_structure"),
    ],
    "lie_core.trace_form": [("lie_core", "LieAlgebra.trace_form")],
    "lie_core.closure": [
        ("lie_core", "subalgebra_closure"),
        ("lie_core", "is_maximal_subalgebra"),
    ],
    "lie_core.centralizer": [("lie_core", "centralizer")],
    "rep_theory.eigensplit": [("rep_theory", "rational_eigensplit")],
    "rep_theory.hom_kernels": [("rep_theory", "hom_space")],
    "rep_theory.hom_dense": [("rep_theory", "hom_space_dense")],
    "rep_theory.forms": [
        ("rep_theory", "invariant_symmetric_forms"),
        ("rep_theory", "invariant_skew_forms"),
    ],
    "rep_theory.restrict": [("rep_theory", "restrict")],
    "rep_theory.irreducible": [("rep_theory", "is_irreducible")],
    "ratpoly.min_poly": [("ratpoly", "min_poly")],
    "ratpoly.rational_roots": [("ratpoly", "rational_roots")],
    "ratpoly.char_poly": [("ratpoly", "char_poly")],
    "ratpoly.factor": [("ratpoly", "factor_poly")],
    "so_pq.so_pq_algebra": [("so_pq", "so_pq_algebra")],
    "so_pq.deformed_algebra": [("so_pq", "deformed_algebra")],
    "so_pq.embedding_iso": [("so_pq", "embedding_iso")],
    "so_pq.so_of_form": [("so_pq", "so_of_form")],
    "so_pq.half_spin": [("so_pq", "half_spin_reps")],
    "so_pq.exceptional_iso": [("so_pq", "exceptional_iso")],
    "weyl_enum.enumerate": [("weyl_enum", "enumerate_up_to_dim")],
    "cli.run_check": [("cli", "run_check")],
}

# layers each workload is known to call; zero calls on one of them means a
# binding escaped its wrapper, and the traced run fails
REQUIRED = {
    "deform-grid": [
        "exact_linalg.mat_mul", "exact_linalg.elementwise", "exact_linalg.echelon",
        "lie_core.jacobi", "lie_core.killing", "lie_core.structure",
        "so_pq.so_pq_algebra", "so_pq.deformed_algebra", "so_pq.embedding_iso",
    ],
    "module-certs": [
        "exact_linalg.mat_mul", "exact_linalg.elementwise", "exact_linalg.echelon",
        "lie_core.killing", "lie_core.structure", "lie_core.trace_form",
        "rep_theory.eigensplit", "rep_theory.hom_kernels", "rep_theory.hom_dense",
        "rep_theory.forms", "rep_theory.restrict", "rep_theory.irreducible",
        "ratpoly.min_poly", "ratpoly.rational_roots", "so_pq.so_pq_algebra",
        "so_pq.embedding_iso", "so_pq.so_of_form", "so_pq.half_spin",
    ],
    "verify-cli": [
        "exact_linalg.mat_mul", "exact_linalg.elementwise", "exact_linalg.echelon",
        "lie_core.jacobi", "lie_core.killing", "lie_core.structure",
        "lie_core.trace_form", "lie_core.closure", "lie_core.centralizer",
        "rep_theory.eigensplit", "rep_theory.hom_kernels", "rep_theory.hom_dense",
        "rep_theory.forms", "rep_theory.restrict", "rep_theory.irreducible",
        "ratpoly.min_poly", "ratpoly.rational_roots", "so_pq.so_pq_algebra",
        "so_pq.deformed_algebra", "so_pq.embedding_iso", "so_pq.so_of_form",
        "so_pq.half_spin", "so_pq.exceptional_iso", "weyl_enum.enumerate",
        "cli.run_check",
    ],
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the round's clock, which leaves out its speed probes
        self.stack = []  # per open span: inclusive seconds of its wrapped callees
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.site_calls = {}
        self.covered_s = 0.0  # time inside outermost spans
        self.entries_built = 0
        self.splits = 0
        self.stages = {"stage_i": 0, "stage_ii": 0, "stage_iii": 0}
        self._so_pq_cache = None

    def _wrap(self, fn, layer, site, on_result=None):
        stack, calls, self_s, site_calls = self.stack, self.calls, self.self_s, self.site_calls
        site_calls[site] = 0
        perf = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                site_calls[site] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "liepq" or name.startswith("liepq.")]
        hooks = {
            "rational_eigensplit": self._count_split,
            "is_irreducible": self._count_stage,
        }
        for layer, targets in LAYERS.items():
            for modname, qualname in targets:
                owner = sys.modules["liepq." + modname]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    site = f"{owner.__name__}.{qualname}"
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(raw.__func__, layer, site)))
                    else:
                        setattr(cls, attr, self._wrap(raw, layer, site))
                    continue
                original = getattr(owner, qualname)
                if qualname == "so_pq_algebra":
                    self._so_pq_cache = original
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            site = f"{module.__name__}.{name}"
                            setattr(module, name, self._wrap(original, layer, site, hooks.get(qualname)))
        matrix = sys.modules["liepq.exact_linalg"].Matrix
        init = matrix.__init__

        def counting_init(obj, rows, cols, entries):
            self.entries_built += rows * cols
            init(obj, rows, cols, entries)

        matrix.__init__ = counting_init

    def _count_split(self, result):
        self.splits += result is not None

    def _count_stage(self, verdict):
        """Which stage of is_irreducible decided: (i) a one-dimensional
        endomorphism space, (ii) a proper invariant kernel, (iii) the
        division-algebra test (an INCONCLUSIVE verdict also ends there)."""
        if verdict.status == "REDUCIBLE":
            self.stages["stage_ii"] += 1
        elif verdict.status == "IRREDUCIBLE" and verdict.endo_dim == 1:
            self.stages["stage_i"] += 1
        else:
            self.stages["stage_iii"] += 1

    def missing(self, workload):
        """Required layers that recorded no call."""
        return [layer for layer in REQUIRED[workload] if not self.calls[layer]]

    def summary(self):
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = self.calls[layer]
            metrics[f"{layer}.self_s"] = self.self_s[layer]
        metrics["exact_linalg.entries_built"] = self.entries_built
        attempts = self.calls["rep_theory.eigensplit"]
        metrics["rep_theory.eigensplit.split_ratio"] = self.splits / attempts if attempts else 0.0
        for stage, count in self.stages.items():
            metrics[f"rep_theory.irreducible.{stage}"] = count
        metrics["so_pq.so_pq_algebra.builds"] = self._so_pq_cache.cache_info().misses
        return {"metrics": metrics, "site_calls": self.site_calls, "covered_s": self.covered_s}
