"""Span recording around hermweb's layers, installed from the benchmark.

Nothing under src/ changes.  `instrument` rebinds module attributes so that
calls between hermweb modules go through recording wrappers:

  * public functions, everywhere a hermweb module has bound them by name;
  * the __post_init__ validation of HermitianMetricField and FormField,
    so each construction is one span;
  * numpy.fft (fft, ifft, fftn, ifftn) and numpy.linalg (det, inv) as seen
    from grid, forms, metric, ma and flow, through a stand-in `np`;
  * the gmres call in hermweb.ma, with its operator and preconditioner
    wrapped, and an iteration callback that counts GMRES iterations.

A span is [name, start, end, parent index, operation id].  Spans stay in
memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute) of the function it wraps
FUNCTIONS = {
    "grid.hessian_values": ("hermweb.grid", "hessian_values"),
    "metric.is_positive_definite": ("hermweb.metric", "is_positive_definite"),
    "metric.ricci_tensor": ("hermweb.metric", "ricci_tensor"),
    "metric.classify": ("hermweb.metric", "classify"),
    "forms.wedge": ("hermweb.forms", "wedge"),
    "forms.exterior_d": ("hermweb.forms", "exterior_d"),
    "ma.solve_ma2": ("hermweb.ma", "solve_ma2"),
    "ma.solve_ma3": ("hermweb.ma", "solve_ma3"),
    "ma.form_to_matrix": ("hermweb.ma", "form_to_matrix"),
    "ma.hodge_root": ("hermweb.ma", "hodge_root"),
    "flow.run_flow": ("hermweb.flow", "run_flow"),
    "flow.flow_step": ("hermweb.flow", "flow_step"),
    "specfile.loads": ("hermweb.specfile", "loads"),
    "expr.evaluate": ("hermweb.expr", "evaluate"),
    "report.render_report": ("hermweb.report", "render_report"),
    "report.dump_field": ("hermweb.report", "dump_field"),
    "models.hopf_check": ("hermweb.models", "hopf_check"),
    "models.nakamura_check": ("hermweb.models", "nakamura_check"),
    "models.yoshihara_check": ("hermweb.models", "yoshihara_check"),
    "cli.main": ("hermweb.cli", "main"),
}
CONSTRUCTORS = {
    "metric.HermitianMetricField": ("hermweb.metric", "HermitianMetricField"),
    "forms.FormField": ("hermweb.forms", "FormField"),
}
NUMPY_USERS = ("hermweb.grid", "hermweb.forms", "hermweb.metric", "hermweb.ma", "hermweb.flow")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def layer_totals(self, scales):
        """Per span name: (calls, self seconds), over spans inside operations.

        Self time is the span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        Each operation's self times are multiplied by its host scale,
        `scales[operation id]`.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in scales:
                continue
            calls[name] += 1
            self_s[name] += ((end - start) - child[i]) * scales[op]
        return calls, self_s

    def write(self, path, header: dict):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(dict(header, counts=dict(self.counts)), fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Namespace:
    """Attribute lookups fall through to `target` unless overridden."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def instrument(tracer: Tracer) -> None:
    import numpy
    import hermweb.cli  # noqa: F401  (loads report, models and specfile too)
    import hermweb.report  # noqa: F401

    modules = [m for name, m in sys.modules.items() if name == "hermweb" or name.startswith("hermweb.")]

    def rebind(orig, new):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)

    for span_name, (module_name, attr) in FUNCTIONS.items():
        orig = getattr(sys.modules[module_name], attr)
        rebind(orig, tracer.wrap(span_name, orig))
    for span_name, (module_name, attr) in CONSTRUCTORS.items():
        cls = getattr(sys.modules[module_name], attr)
        cls.__post_init__ = tracer.wrap(span_name, cls.__post_init__)

    fft = {f: tracer.wrap("grid.fft", getattr(numpy.fft, f)) for f in ("fft", "ifft", "fftn", "ifftn")}
    linalg = {f: tracer.wrap(f"linalg.{f}", getattr(numpy.linalg, f)) for f in ("det", "inv")}
    np_view = _Namespace(
        numpy, fft=_Namespace(numpy.fft, **fft), linalg=_Namespace(numpy.linalg, **linalg)
    )
    for module_name in NUMPY_USERS:
        sys.modules[module_name].np = np_view

    ma = sys.modules["hermweb.ma"]
    ma.gmres = _traced_gmres(tracer, ma.gmres, ma.LinearOperator)


def _traced_gmres(tracer: Tracer, gmres, LinearOperator):
    gmres_span = tracer.wrap("ma.gmres", gmres)

    def count_iteration(_residual_norm):
        tracer.counts["ma.gmres_iters"] += 1

    def traced(A, b, *args, M=None, **kwargs):
        A = LinearOperator(A.shape, matvec=tracer.wrap("ma.matvec", A.matvec), dtype=A.dtype)
        if M is not None:
            M = LinearOperator(M.shape, matvec=tracer.wrap("ma.precond", M.matvec), dtype=M.dtype)
        return gmres_span(
            A, b, *args, M=M, callback=count_iteration, callback_type="pr_norm", **kwargs
        )

    return traced
