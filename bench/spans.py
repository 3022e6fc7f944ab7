"""Spans around the public functions of each curvedq layer.

The wrappers live here, in the benchmark, not in the library.  Each one is
installed in every curvedq namespace where its function is looked up, since
several modules import functions by name (geometry imports eval_jet3, torus
imports scipy's solve_triangular).  A wrapper records how often its function
ran, its total time and its self time (total minus the time of wrapped calls
it made), plus how often it was called from each wrapped parent.  Full spans
are kept in memory for the first `cap` calls and written out at the end.
"""

import dataclasses
import sys
import time

SPAN_CAP = 50_000

# (module, function) pairs wrapped in every traced run; the span name is
# "<module>.<function>".  solve_triangular is scipy's, looked up in torus.
TARGETS = (
    ("torus", "solve_spectrum"),
    ("torus", "assemble"),
    ("torus", "overlap_analytic"),
    ("torus", "jacobi_eigh"),
    ("torus", "solve_triangular"),
    ("torus", "table_states"),
    ("shapes", "parse_shape"),
    ("shapes", "eval_jet2"),
    ("shapes", "eval_jet3"),
    ("geometry", "graph_metric_patch"),
    ("geometry", "curvature_sample"),
    ("operators", "surface_operator"),
    ("operators", "hermitian_momenta"),
    ("operators", "hermiticity_residual"),
    ("operators", "cancellation_residual"),
    ("cli", "run"),
    ("cli", "emit"),
    ("cli", "check_cancellation"),
    ("cli", "selfadjointness_defect"),
)
# Coefficient callables returned by surface_operator share this span name.
COEFF_SPAN = "operators.coeff_eval"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS) + (COEFF_SPAN,)


class Tracer:
    """Aggregates and spans for one process.

    Wrappers record only while `on` is true; `op` tags spans with the current op.
    """

    def __init__(self, cap=SPAN_CAP):
        self.cap = cap
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.edges = {}  # (parent name or None, name) -> calls
        self.spans = []  # (name, start, end, parent index or -1, op)
        self.top_s = 0.0  # time inside spans that have no wrapped parent
        self.on = False
        self.op = -1
        self._stack = []  # [name, span index, child seconds]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [name, -1, 0.0]
            if len(self.spans) < self.cap:
                frame[1] = len(self.spans)
                self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                took = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + took
                self.self_time[name] = self.self_time.get(name, 0.0) + took - frame[2]
                edge = (parent[0] if parent else None, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
                if parent is not None:
                    parent[2] += took
                else:
                    self.top_s += took
                if frame[1] >= 0:
                    up = parent[1] if parent is not None else -1
                    self.spans[frame[1]] = (name, start, end, up, self.op)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target in each loaded curvedq namespace that holds it."""
        modules = [m for key, m in sys.modules.items() if key == "curvedq" or key.startswith("curvedq.")]
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"curvedq.{mod_name}")
            if home is None:  # curvedq.cli is loaded only by the CLI
                continue
            original = getattr(home, fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            if fn_name == "surface_operator":
                wrapped = self._wrap_coeffs(wrapped)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap_coeffs(self, surface_operator):
        def traced(*args, **kwargs):
            coeffs = surface_operator(*args, **kwargs)
            return dataclasses.replace(
                coeffs,
                **{f.name: self.wrap(COEFF_SPAN, getattr(coeffs, f.name)) for f in dataclasses.fields(coeffs)},
            )

        return traced

    def summary(self):
        return {
            "calls": dict(self.calls),
            "s": dict(self.total),
            "self_s": dict(self.self_time),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "top_s": self.top_s,
        }

    def finished_spans(self):
        return [s for s in self.spans if s is not None]
