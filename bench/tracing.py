"""Spans at the module boundaries of splitproj, recorded from outside.

``Tracer.install`` replaces the public functions of each layer
(``cli`` -> ``driver`` -> ``splitting`` -> ``subspaces`` -> ``linalg``) with
wrappers, in the defining module and in every splitproj module that
imported the name, and ``uninstall`` puts the originals back.  No file of
the package changes.  Each wrapped call appends one span (name, start,
end, parent span) to flat in-memory arrays; ``save`` writes them out and
``metrics`` reduces them.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("cli", "driver", "splitting", "subspaces", "linalg")

#: Wrapped public functions per layer.
BOUNDARY = {
    "linalg": ("svd", "pseudoinverse", "operator_norm", "spectral_radius", "rank"),
    "subspaces": ("from_basis", "complement", "intersect_pair", "intersect_all",
                  "sum_projector", "subspace_from_dict"),
    "splitting": ("forward_blocks", "displacement", "fix_decomposition",
                  "operator_matrix", "affine_lift"),
    "driver": ("iterate", "iteration_counts", "rate_bounds", "governing_limit",
               "shadow_limit", "shadow"),
    "cli": ("main", "exp1", "exp2", "exp2_counts", "exp3", "run_single",
            "load_problem", "records_to_csv", "records_to_json"),
}
#: Problem construction (including the affine consistency check) is traced
#: through the constructors of both problem classes.
PROBLEM_CLASSES = ("RyuProblem", "MTProblem")

#: Spans that own a relaxed-iteration loop: the driver's two loops and the
#: exp3 loop, which lives in the cli module.
LOOP_SPANS = ("driver.iterate", "driver.iteration_counts", "cli.exp3")


def svd_flops(m: int, n: int) -> float:
    """Golub-Van Loan count for a thin SVD with U1, Sigma and V."""
    m, n = max(m, n), min(m, n)
    return 14.0 * m * n * n + 8.0 * n ** 3


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.span_names: list = []
        self.name_ids: dict = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.flops = 0.0
        self.runs = 0
        self.capped = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.span_names):
            self.span_names.append(name)
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observers(self):
        def shape_of(args, kwargs):
            return np.shape(args[0] if args else kwargs["a"])

        def on_svd(args, kwargs, result):
            self.flops += svd_flops(*shape_of(args, kwargs))

        def on_pinv(args, kwargs, result):
            m, n = shape_of(args, kwargs)
            self.flops += 2.0 * m * n * min(m, n)

        def on_eig(args, kwargs, result):
            self.flops += 10.0 * shape_of(args, kwargs)[0] ** 3

        def on_counts(args, kwargs, result):
            config = args[1] if len(args) > 1 else kwargs["config"]
            self.runs += 1
            self.capped += config.max_iters in result

        def on_iterate(args, kwargs, result):
            self.runs += 1
            self.capped += not result.converged

        return {"linalg.svd": on_svd, "linalg.pseudoinverse": on_pinv,
                "linalg.spectral_radius": on_eig, "driver.iteration_counts": on_counts,
                "driver.iterate": on_iterate}

    def install(self):
        observers = self._observers()
        for layer, functions in BOUNDARY.items():
            home = self.modules[layer]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original,
                                     observers.get(f"{layer}.{fname}"))
                for module in self.modules.values():
                    if module.__dict__.get(fname) is original:
                        self._restore.append((module, fname, original))
                        setattr(module, fname, wrapper)
        for cname in PROBLEM_CLASSES:
            cls = getattr(self.modules["splitting"], cname)
            original = cls.__dict__["__init__"]
            self._restore.append((cls, "__init__", original))
            cls.__init__ = self._wrap("splitting.problem_build", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        return names, parents, dur

    def save(self, path):
        names, parents, _ = self.arrays()
        np.savez_compressed(path, name=names, parent=parents,
                            start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
                            names=np.array(self.span_names))

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans (seconds, counts)."""
        names, parents, dur = self.arrays()
        k = len(self.span_names)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        ids = self.name_ids

        def n(name):
            return int(calls[ids[name]])

        def s(name):
            return float(total[ids[name]])

        def self_s(name):
            return float(own[ids[name]])

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(self_s(name) for name in self.span_names
                                         if name.startswith(layer + "."))
        for fname in BOUNDARY["linalg"]:
            out[f"linalg.{fname}.calls"] = n(f"linalg.{fname}")
        out["linalg.computed_gflop"] = self.flops / 1e9
        for fname in ("from_basis", "intersect_all"):
            out[f"subspaces.{fname}.calls"] = n(f"subspaces.{fname}")
            out[f"subspaces.{fname}.s"] = s(f"subspaces.{fname}")
        for fname in ("forward_blocks", "displacement"):
            out[f"splitting.{fname}.calls"] = n(f"splitting.{fname}")
            out[f"splitting.{fname}.self_s"] = self_s(f"splitting.{fname}")
        for fname in ("fix_decomposition", "operator_matrix", "problem_build", "affine_lift"):
            out[f"splitting.{fname}.calls"] = n(f"splitting.{fname}")
            out[f"splitting.{fname}.s"] = s(f"splitting.{fname}")
        out["driver.iteration_counts.calls"] = n("driver.iteration_counts")
        out["driver.iteration_counts.self_s"] = self_s("driver.iteration_counts")
        out["driver.iterate.self_s"] = self_s("driver.iterate")
        out["driver.rate_bounds.s"] = s("driver.rate_bounds")
        out["driver.limits.calls"] = n("driver.governing_limit") + n("driver.shadow_limit")
        out["driver.limits.s"] = s("driver.governing_limit") + s("driver.shadow_limit")

        # A relaxed step applies the displacement exactly once, inside a loop
        # span; displacement calls under operator_matrix (the affine MT
        # offset) are not steps.
        loop_ids = [ids[name] for name in LOOP_SPANS]
        parent_name = np.where(nested, names[np.maximum(parents, 0)], -1)
        in_loop = np.isin(parent_name, loop_ids)
        steps = int(np.sum(in_loop & (names == ids["splitting.displacement"])))
        kernel = np.isin(names, [ids["splitting.forward_blocks"], ids["splitting.displacement"]])
        loop_time = (self_s("driver.iterate") + self_s("driver.iteration_counts")
                     + float(np.sum(dur[in_loop & kernel])))
        out["driver.iterations"] = steps
        out["driver.iteration_us"] = 1e6 * loop_time / steps if steps else 0.0
        out["driver.runs"] = self.runs
        out["driver.capped_frac"] = self.capped / self.runs if self.runs else 0.0
        out["cli.records_to_csv.s"] = s("cli.records_to_csv")
        out["cli.load_problem.s"] = s("cli.load_problem")
        return out
