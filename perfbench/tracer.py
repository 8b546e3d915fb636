"""In-memory spans around the public functions of each bubblefield layer.

A span is (name, start, end, parent, op, attrs): `parent` is the index of
the enclosing span in the same process, `op` the id of the benchmark op
that caused it ("setup" outside the timed ops), and `attrs` the counts
observed at the boundary (Newton starts, samples, bytes, ...).  Spans stay
in a list until the traced run ends; `layer_metrics` turns them into the
per-layer numbers.

Every module of the package that holds the original function object under
any name is patched, so direct imports such as `cli.build_configuration`
or the re-exports in `bubblefield/__init__.py` are traced as well.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = {
    "config": ("build_configuration", "interaction_matrix"),
    "equilibrium": ("solve_equilibria", "isolation_check"),
    "dynamics": ("integrate", "omega_limit_estimate", "trajectory_csv"),
    "groundstate": ("verify_kappa",),
    "circulant": ("build_family", "k10_report"),
    "cli": ("main",),
}

# per-op counts observed at a boundary, and the ratios built from them
COUNTS = {
    "equilibrium.solve_equilibria": ("starts", "solutions", "no_solution"),
    "equilibrium.isolation_check": ("isolated",),
    "dynamics.integrate": ("samples", "failed"),
    "dynamics.trajectory_csv": ("bytes",),
}


def _observe_solve(args, kwargs, result, exc):
    from bubblefield.equilibrium import NoSolutionFound, SolverOptions

    opts = args[1] if len(args) > 1 else kwargs.get("options", SolverOptions())
    return {
        "starts": 1 + opts.n_random + len(opts.extra_seeds),
        "solutions": len(result) if exc is None else 0,
        "no_solution": int(isinstance(exc, NoSolutionFound)),
    }


OBSERVERS = {
    "equilibrium.solve_equilibria": _observe_solve,
    "equilibrium.isolation_check": lambda a, kw, r, e: {"isolated": int(e is None and r.isolated)},
    "dynamics.integrate": lambda a, kw, r, e: (
        {"samples": len(r.ts), "failed": 0} if e is None else {"samples": 0, "failed": 1}
    ),
    "dynamics.trajectory_csv": lambda a, kw, r, e: {"bytes": len(r) if e is None else 0},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, attrs]
        self._stack = []
        self.op = "setup"

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = time.monotonic()
                stack.pop()
                if observe is not None:
                    span[5] = observe(args, kwargs, result, exc)

        return traced

    def install(self):
        """Patch every traced function wherever the package holds a reference."""
        for layer in LAYERS:
            importlib.import_module(f"bubblefield.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "bubblefield" or n.startswith("bubblefield.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"bubblefield.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def dump(self):
        """Spans as JSON-ready records."""
        keys = ("name", "start", "end", "parent", "op", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]


def layer_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for layer, names in LAYERS.items():
        for fname in names:
            base = f"{layer}.{fname}"
            out += [(f"{base}.calls", "count"), (f"{base}.total_ms", "ms"),
                    (f"{base}.self_ms", "ms"), (f"{base}.p50_ms", "ms")]
            out += [(f"{base}.{c}", "count") for c in COUNTS.get(base, ())]
    out += [
        ("equilibrium.solve_equilibria.solutions_per_start", "1"),
        ("equilibrium.isolation_check.isolated_frac", "1"),
        ("dynamics.integrate.us_per_sample", "us"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_frac", "1"),
    ]
    return out


def layer_metrics(spans, n_ops, scale=1.0):
    """Per-layer metrics from span records (dicts as written by `dump`).

    `.calls`, `.total_ms`, `.self_ms` and the counts are per timed op, so
    runs that complete different numbers of ops compare; setup spans are
    included in the numerator.  `.p50_ms` is the median single call.  Times
    are multiplied by `scale` (run.py's reference-speed factor).  Self
    time is the duration minus the time of the direct children, which in a
    single thread are disjoint intervals inside their parent.
    """
    dur = [scale * (s["end"] - s["start"]) for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        rec = by_name.setdefault(s["name"], {"d": [], "self": 0.0, "counts": {}})
        rec["d"].append(dur[i])
        rec["self"] += dur[i] - child[i]
        for k, v in (s["attrs"] or {}).items():
            rec["counts"][k] = rec["counts"].get(k, 0) + v

    out = {}
    for layer, names in LAYERS.items():
        for fname in names:
            base = f"{layer}.{fname}"
            rec = by_name.get(base, {"d": [], "self": 0.0, "counts": {}})
            out[f"{base}.calls"] = len(rec["d"]) / n_ops
            out[f"{base}.total_ms"] = 1e3 * sum(rec["d"]) / n_ops
            out[f"{base}.self_ms"] = 1e3 * rec["self"] / n_ops
            out[f"{base}.p50_ms"] = 1e3 * statistics.median(rec["d"]) if rec["d"] else 0.0
            for c in COUNTS.get(base, ()):
                out[f"{base}.{c}"] = rec["counts"].get(c, 0) / n_ops
    solve = by_name.get("equilibrium.solve_equilibria", {"counts": {}})["counts"]
    iso = by_name.get("equilibrium.isolation_check", {"d": []})
    integ = by_name.get("dynamics.integrate", {"d": [], "counts": {}})
    samples = integ["counts"].get("samples", 0)
    out["equilibrium.solve_equilibria.solutions_per_start"] = (
        solve.get("solutions", 0) / solve["starts"] if solve.get("starts") else 0.0
    )
    out["equilibrium.isolation_check.isolated_frac"] = (
        iso["counts"].get("isolated", 0) / len(iso["d"]) if iso["d"] else 0.0
    )
    out["dynamics.integrate.us_per_sample"] = 1e6 * sum(integ["d"]) / samples if samples else 0.0
    return out
