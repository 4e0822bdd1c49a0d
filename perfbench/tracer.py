"""Spans and counters around refleig's public functions, installed from outside.

Nothing under `src/` is changed: `install` replaces each target function by a
wrapper in every refleig module that binds it (`from .eigenspace import
evaluation_rank` in `refleig.report` is a second binding of the same object),
and replaces methods on their class.  A span records its name, its parent
span, start, end, and optionally a size taken from the arguments or an
outcome taken from the result, so self time is exact: a span's duration minus
the durations of its direct children.

The cyclotomic field operations run millions of times; they get counters
only (calls and the largest conductor), not spans.
"""

import functools
import sys
import time

# (span name, module, attribute) -- an attribute "Class.method" wraps a method.
SPANS = (
    ("groups.builtin", "refleig.groups", "builtin"),
    ("groups.is_pseudo_reflection_group", "refleig.groups", "is_pseudo_reflection_group"),
    ("linalg.rref", "refleig.linalg", "rref"),
    ("linalg.rank", "refleig.linalg", "rank"),
    ("linalg.nullspace", "refleig.linalg", "nullspace"),
    ("linalg.rowspan_add", "refleig.linalg", "RowSpan.add"),
    ("series.molien", "refleig.series", "molien"),
    ("series.series_identity_check", "refleig.series", "series_identity_check"),
    ("series.extract_degrees", "refleig.series", "extract_degrees"),
    ("polynomials.invariant_subspace", "refleig.polynomials", "invariant_subspace"),
    ("polynomials.reynolds", "refleig.polynomials", "reynolds"),
    ("polynomials.diff_apply", "refleig.polynomials", "diff_apply"),
    ("polynomials.jacobian_independent", "refleig.polynomials", "jacobian_independent"),
    ("harmonics.find_fundamental_invariants", "refleig.harmonics", "find_fundamental_invariants"),
    ("harmonics.compute_harmonics", "refleig.harmonics", "compute_harmonics"),
    ("harmonics.verify_product_decomposition", "refleig.harmonics", "verify_product_decomposition"),
    ("eigenspace.orbit", "refleig.eigenspace", "orbit"),
    ("eigenspace.evaluation_rank", "refleig.eigenspace", "evaluation_rank"),
    ("eigenspace.commutant_dimension", "refleig.eigenspace", "commutant_dimension"),
    ("eigenspace.eigen_check", "refleig.eigenspace", "eigen_check"),
    ("eigenspace.equivariance_check", "refleig.eigenspace", "equivariance_check"),
    ("eigenspace.dual_sample_elements", "refleig.eigenspace", "dual_sample_elements"),
    ("eigenspace.dual_cyclic_check", "refleig.eigenspace", "dual_cyclic_check"),
    ("report.eigenspace_section", "refleig.report", "eigenspace_section"),
    ("report.render_json", "refleig.report", "render_json"),
    ("parsing.format_poly", "refleig.parsing", "format_poly"),
)

# Counted field operations: (counter, method names that share one function).
COUNTERS = (
    ("cyclotomic.add", ("__add__", "__radd__")),
    ("cyclotomic.mul", ("__mul__", "__rmul__")),
)


def _rref_cells(rows, ncols, *_args, **_kwargs):
    return len(rows) * ncols


SIZES = {"linalg.rref": _rref_cells}
OUTCOMES = {"linalg.rowspan_add": bool, "polynomials.reynolds": bool}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, size, outcome]
        self._stack = []
        self.counts = {name: 0 for name, _ in COUNTERS}
        self.max_order = 0

    def span(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        size = SIZES.get(name)
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            if size is not None:
                rec[4] = size(*args, **kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if outcome is not None:
                rec[5] = outcome(result)
            return result

        return wrapper

    def counter(self, name, fn, cls):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[name] += 1
            order = max(a.order, b.order) if type(b) is cls else a.order
            if order > self.max_order:
                self.max_order = order
            return fn(a, b)

        return wrapper

    def install(self):
        """Wrap every target in every refleig module that binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "refleig" or key.startswith("refleig."))
        ]
        for name, module, attr in SPANS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                _rebind_method(cls, (meth,), self.span(name, cls.__dict__[meth]))
            else:
                original = getattr(owner, attr)
                wrapper = self.span(name, original)
                bound = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{module}.{attr} is bound nowhere")
        cyclotomic = sys.modules["refleig.cyclotomic"].Cyclotomic
        for name, methods in COUNTERS:
            original = cyclotomic.__dict__[methods[0]]
            _rebind_method(cyclotomic, methods, self.counter(name, original, cyclotomic))

    def summary(self):
        """Per-span-name aggregates, exact self time included."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        root_s = 0.0
        for rec in spans:
            dur = rec[3] - rec[2]
            if rec[1] >= 0:
                child_time[rec[1]] += dur
            else:
                root_s += dur
        names = {}
        for idx, rec in enumerate(spans):
            dur = rec[3] - rec[2]
            agg = names.setdefault(
                rec[0], {"calls": 0, "self_s": 0.0, "true": 0, "size_max": 0}
            )
            agg["calls"] += 1
            agg["self_s"] += dur - child_time[idx]
            if rec[5]:
                agg["true"] += 1
            if rec[4] is not None and rec[4] > agg["size_max"]:
                agg["size_max"] = rec[4]
        return {
            "spans": names,
            "root_s": root_s,
            "section_s": [
                rec[3] - rec[2] for rec in spans
                if rec[0] == "report.eigenspace_section"
            ],
            "rank_fastpath": self._rank_fastpath(),
            "counts": dict(self.counts),
            "max_order": self.max_order,
        }

    def _rank_fastpath(self):
        """evaluation_rank calls that settled without a linalg.rank below them."""
        spans = self.spans
        fell_back = set()
        for rec in spans:
            if rec[0] != "linalg.rank":
                continue
            parent = rec[1]
            while parent >= 0:
                if spans[parent][0] == "eigenspace.evaluation_rank":
                    fell_back.add(parent)
                    break
                parent = spans[parent][1]
        total = sum(1 for rec in spans if rec[0] == "eigenspace.evaluation_rank")
        return total - len(fell_back)


def _rebind_method(cls, names, wrapper):
    original = cls.__dict__[names[0]]
    for key, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, key, wrapper)
    missing = [n for n in names if cls.__dict__.get(n) is not wrapper]
    if missing:
        raise RuntimeError(f"{cls.__name__} no longer binds {missing} to one function")

