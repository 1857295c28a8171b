"""Span tracing for the benchmark's traced run.

The tracer wraps functions of the ``dblcheck`` package from the outside:
module-level public functions, selected methods of the table and report
classes, and the per-instance ``square_pred`` / ``hcomp_h_fn`` /
``vcomp_v_fn`` callables.  Every wrapped call is a span with a name, the
current job id and its parent span.  Spans are aggregated in memory by
(job, name, parent) into call count, total time and self time, where self
time is the duration minus the time covered by child spans.

The package imports by name (``from .core import validate_double_category``),
so a wrapped function is rebound in every ``dblcheck.*`` namespace that holds
it, not only in the module that defines it.
"""

import functools
import importlib
import inspect
import sys
import time

# DoubleCat methods worth a span.  Cheap accessors (sq_top, h_id, ...) are
# left alone: they run millions of times and would bury everything else in
# tracing overhead.
DOUBLECAT_METHODS = (
    "find_square", "square_exists", "squares_with_boundary", "hcomp_h",
    "vcomp_v", "hcomp_sq", "vcomp_sq", "sq_h_id", "sq_v_id",
    "hcomp_sq_many", "vcomp_sq_many", "vertical_inverse",
    "materialize_flat_squares")
REPORT_METHODS = ("add", "merge")
INSTANCE_FNS = ("square_pred", "hcomp_h_fn", "vcomp_v_fn")
SETUP = "setup"  # job id of the work that builds a round's inputs
MODULES = ("core", "functor", "transform", "hom", "quasi", "strictify",
           "tensor", "monads", "cli")


def _accumulate(table, key, rec):
    acc = table.setdefault(key, [0] * len(rec))
    for i, x in enumerate(rec):
        acc[i] += x


def _n_cells(d):
    return len(d.objects) + len(d.hnames) + len(d.vnames) + len(d.sq_bounds)


class Tracer:
    """In-memory span aggregation plus the two growth probes."""

    def __init__(self):
        self.job = None
        self.stack = []
        self.spans = {}
        # (job, name) -> [calls that grew the cells, calls that did not,
        # cells added]
        self.growth = {}

    def reset(self):
        self.spans.clear()
        self.growth.clear()

    def wrap(self, name, fn, size=None):
        """A traced stand-in for fn.  With ``size``, also record how much
        ``size(self_arg)`` grew across the call."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        tracer = self

        def finish(frame, t0):
            dt = clock() - t0
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += dt
            key = (tracer.job, name, parent[0] if parent else None)
            rec = spans.get(key)
            if rec is None:
                rec = spans[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]

        if size is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(frame, t0)
        else:
            growth = self.growth

            @functools.wraps(fn)
            def traced(obj, *args, **kwargs):
                before = size(obj)
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    finish(frame, t0)
                    grew = size(obj) - before
                    g = growth.setdefault((tracer.job, name), [0, 0, 0])
                    g[0 if grew else 1] += 1
                    g[2] += grew
        traced.bench_traced = True
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the package in place.  Call once per process."""
        mods = {short: importlib.import_module("dblcheck." + short)
                for short in MODULES}
        from dblcheck.core import DoubleCat, ValidationReport
        from dblcheck.hom import HomDoubleCat
        from dblcheck.quasi import QHomDoubleCat

        rebinds = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    rebinds[obj] = self.wrap("%s.%s" % (short, attr), obj)
        for mod in [m for n, m in sys.modules.items()
                    if n == "dblcheck" or n.startswith("dblcheck.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in rebinds:
                    setattr(mod, attr, rebinds[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in rebinds:
                            obj[k] = rebinds[v]

        flat_size = lambda d: len(d.sq_bounds) if d.flat else 0
        for meth in DOUBLECAT_METHODS:
            size = flat_size if meth == "find_square" else None
            setattr(DoubleCat, meth, self.wrap(
                "core.DoubleCat." + meth, DoubleCat.__dict__[meth], size))
        for meth in REPORT_METHODS:
            setattr(ValidationReport, meth, self.wrap(
                "core.ValidationReport." + meth,
                ValidationReport.__dict__[meth]))
        for cls, short in ((HomDoubleCat, "hom"), (QHomDoubleCat, "quasi")):
            for meth, fn in list(vars(cls).items()):
                if not inspect.isfunction(fn) or meth == "__init__":
                    continue
                size = _n_cells if "intern" in meth else None
                setattr(cls, meth, self.wrap(
                    "%s.%s.%s" % (short, cls.__name__, meth), fn, size))

        tracer = self
        plain_setattr = object.__setattr__

        def setattr_hook(obj, attr, value):
            if (attr in INSTANCE_FNS and value is not None
                    and not getattr(value, "bench_traced", False)):
                value = tracer.wrap("core." + attr, value)
            plain_setattr(obj, attr, value)

        DoubleCat.__setattr__ = setattr_hook

    # -- summaries ----------------------------------------------------------

    def totals(self):
        """Span totals name -> [calls, total_s, self_s] and growth totals
        name -> [grew, not grew, added], summed over every job but set-up."""
        spans, growth = {}, {}
        for (job, name, _parent), rec in self.spans.items():
            if job != SETUP:
                _accumulate(spans, name, rec)
        for (job, name), rec in self.growth.items():
            if job != SETUP:
                _accumulate(growth, name, rec)
        return spans, growth

    def dump(self):
        """The aggregated spans and growth probes as JSON-ready lists."""
        return {"spans": [[job, name, parent] + rec for (job, name, parent),
                          rec in self.spans.items()],
                "growth": [[job, name] + rec
                           for (job, name), rec in self.growth.items()]}

    def merge(self, dumped):
        """Add spans dumped by a traced child process."""
        for job, name, parent, *rec in dumped["spans"]:
            _accumulate(self.spans, (job, name, parent), rec)
        for job, name, *rec in dumped["growth"]:
            _accumulate(self.growth, (job, name), rec)


def layer_round(totals, growth):
    """Per-layer values of one traced round, from span totals and probes.

    Counts are exact for the round; times are seconds of self time.
    """
    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    intern = [n for n in growth if "intern" in n]
    intern_calls = sum(growth[n][0] + growth[n][1] for n in intern)
    intern_hits = sum(growth[n][1] for n in intern)
    hh, hh_fn = calls("core.DoubleCat.hcomp_h"), calls("core.hcomp_h_fn")
    vv, vv_fn = calls("core.DoubleCat.vcomp_v"), calls("core.vcomp_v_fn")
    return {
        "core.find_square.calls": calls("core.DoubleCat.find_square"),
        "core.find_square.self_s": self_s("core.DoubleCat.find_square"),
        "core.square_pred.calls": calls("core.square_pred"),
        "core.flat_squares_interned":
            growth.get("core.DoubleCat.find_square", [0, 0, 0])[2],
        "core.hcomp_h.calls": hh,
        "core.hcomp_h_fn.calls": hh_fn,
        "core.hcomp_h.miss_ratio": hh_fn / hh if hh else 0.0,
        "core.vcomp_v.calls": vv,
        "core.vcomp_v_fn.calls": vv_fn,
        "core.vcomp_v.miss_ratio": vv_fn / vv if vv else 0.0,
        "core.hcomp_sq.calls": calls("core.DoubleCat.hcomp_sq"),
        "core.hcomp_sq.self_s": self_s("core.DoubleCat.hcomp_sq"),
        "core.vcomp_sq.calls": calls("core.DoubleCat.vcomp_sq"),
        "core.vcomp_sq.self_s": self_s("core.DoubleCat.vcomp_sq"),
        "core.validate_double_category.self_s":
            self_s("core.validate_double_category"),
        "core.ValidationReport.add.calls": calls("core.ValidationReport.add"),
        "core.from_json.self_s": self_s("core.from_json"),
        "functor.check_lax_functor.self_s": self_s("functor.check_lax_functor"),
        "functor.check_wellformed.self_s": self_s("functor.check_wellformed"),
        "transform.check.self_s": self_s(
            "transform.check_hor_transform", "transform.check_vert_transform",
            "transform.check_modification"),
        "transform.compose.self_s": self_s(
            "transform.vcompose_hor", "transform.vcompose_vert",
            "transform.hcompose_modifications",
            "transform.vcompose_modifications"),
        "hom.populate_squares.self_s": self_s("hom.populate_squares"),
        "hom.enumerate_lax_functors.self_s":
            self_s("hom.enumerate_lax_functors"),
        "hom.intern.calls": intern_calls,
        "hom.intern.hit_ratio":
            intern_hits / intern_calls if intern_calls else 0.0,
        "quasi.check_quasi_functor.self_s":
            self_s("quasi.check_quasi_functor"),
        "quasi.curry0.self_s": self_s("quasi.curry0"),
        "strictify.strictify0.self_s": self_s("strictify.strictify0"),
        "tensor.verify_universal_property.self_s":
            self_s("tensor.verify_universal_property"),
        "monads.verify_comp_diagram.self_s":
            self_s("monads.verify_comp_diagram"),
        "monads.mnd_double_category.self_s":
            self_s("monads.mnd_double_category"),
        "strictify.check_equivalence.self_s":
            self_s("strictify.check_equivalence"),
        "cli.render_text.self_s": self_s("cli.render_text"),
    }
