"""Per-layer tracing of the sgrg package, installed from outside the package.

`Tracer.install()` replaces the public functions of the traced modules, and a
few methods, with wrappers.  Each wrapper is one of three kinds:

* span    -- name, start, end and parent span, kept in memory; used for
             everything called fewer than about 1e4 times per run;
* timer   -- call count and inclusive time, no span; hot functions whose
             time is itself a per-layer metric;
* counter -- call count only; the hot term-algebra primitives.

Modules import some functions by name (`from .rgmap import rg_step`), so a
wrapper replaces every module attribute of the package that holds the
original object, not only the one in the defining module.

Self time of a span is its duration minus the durations of its direct child
spans.  Timers and counters are not spans: their time stays in the self time
of the span that called them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

MODULES = ("flow", "rgmap", "activities", "terms", "lattice", "covariance",
           "fields", "interpolation", "cli")

# Public functions called 1e4-1e6 times per flow: counted, never timed.
COUNTED = frozenset({
    "terms.canon", "terms.translate_term", "terms.scale_term",
    "terms.convolve_term", "terms.bond_laplacian", "terms.term_slots",
    "terms.term_log_weight", "rgmap.tree_convolved_terms",
    "activities.collapse_term", "activities.potential_v",
    "activities.block_quadrature_nodes", "lattice.neighbors",
    "lattice.partition_block", "lattice.block_distance",
    "interpolation.path_in_forest",
})

# Hot functions whose inclusive time is a per-layer metric.
TIMED = frozenset({"terms.evaluate_terms", "lattice.halo",
                   "lattice.partition_closure", "fields.FieldGrid.at"})

# Methods traced in addition to the module-level functions.
METHODS = (("terms", "CovAccess", "c"), ("covariance", "CovarianceKernel", "eval"),
           ("fields", "FieldGrid", "at"))

EXTRACT = ("rgmap.extraction_coefficients", "rgmap.build_extraction_activity",
           "rgmap.extract_cloud")


def _activity_size(K):
    """(shapes, terms) of a truncated or cloud activity."""
    data = getattr(K, "shapes", None)
    if data is None:
        data = getattr(K, "data", {})
    return len(data), sum(len(ts) for ts in data.values())


def patch_everywhere(old, new, package: str = "sgrg") -> int:
    """Replace every module attribute of `package` that is `old` by `new`."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
    return hits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent]
        self._stack: list[int] = []
        self.cells: dict[str, list] = {}  # timers [calls, total, depth], counters [n]
        self.steps: list[tuple[int, int]] = []
        self.in_cov_c = 0
        self._post = self._post_hooks()

    # -- wrappers -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def cell(self, name: str, size: int = 1) -> list:
        return self.cells.setdefault(name, [0] * size)

    def span(self, name: str, fn, post=None):
        nid, spans, stack, clock = self._id(name), self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return wrapper

    def timer(self, name: str, fn):
        cell, clock = self.cell(name, 3), time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if cell[2]:  # recursive call: time counted by the outer one
                return fn(*args, **kwargs)
            cell[2] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[2] = 0

        return wrapper

    def counter(self, name: str, fn):
        cell = self.cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- special cases ----------------------------------------------------------

    def _canon(self, fn):
        calls, t_in, t_out = (self.cell(n) for n in
                              ("terms.canon", "terms.canon.terms_in", "terms.canon.terms_out"))

        @functools.wraps(fn)
        def wrapper(terms, *args, **kwargs):
            terms = list(terms)  # canon iterates its input exactly once
            calls[0] += 1
            t_in[0] += len(terms)
            out = fn(terms, *args, **kwargs)
            t_out[0] += len(out)
            return out

        return wrapper

    def _cov_c(self, fn):
        calls, tracer = self.cell("terms.CovAccess.c"), self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            tracer.in_cov_c += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.in_cov_c -= 1

        return wrapper

    def _kernel_eval(self, fn):
        evals, tracer = self.cell("terms.CovAccess.kernel_evals"), self
        inner = self.span("covariance.CovarianceKernel.eval", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_cov_c:
                evals[0] += 1
            return inner(*args, **kwargs)

        return wrapper

    def _post_hooks(self):
        def step(out):
            self.steps.append(_activity_size(out[0]))

        def fluct(out):
            self.cell("rgmap.fluctuate.terms_out")[0] += _activity_size(out)[1]
            self.cell("rgmap.fluctuate.dropped")[0] += int(getattr(out, "dropped_terms", 0))

        def trunc(out):
            self.cell("activities.truncate_cloud_terms.kept")[0] += len(out[0])
            self.cell("activities.truncate_cloud_terms.dropped")[0] += len(out[1])

        return {"rgmap.rg_step": step, "rgmap.fluctuate": fluct,
                "activities.truncate_cloud_terms": trunc}

    # -- installation -----------------------------------------------------------

    def wrap(self, name: str, fn):
        if name == "terms.canon":
            return self._canon(fn)
        if name == "terms.CovAccess.c":
            return self._cov_c(fn)
        if name == "covariance.CovarianceKernel.eval":
            return self._kernel_eval(fn)
        if name in COUNTED or inspect.isgeneratorfunction(fn):
            return self.counter(name, fn)
        if name in TIMED:
            return self.timer(name, fn)
        return self.span(name, fn, self._post.get(name))

    def install(self) -> None:
        """Wrap the traced functions of an imported sgrg (call before cli.main)."""
        import importlib

        mods = {m: importlib.import_module("sgrg." + m) for m in MODULES}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                patch_everywhere(fn, self.wrap(f"{short}.{attr}", fn))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        # every CloudTerm is built by its dataclass __init__ or by terms._raw_term
        terms = mods["terms"]
        cls = terms.CloudTerm
        cls.__post_init__ = self.counter("terms.CloudTerm.created", cls.__post_init__)
        patch_everywhere(terms._raw_term,
                         self.counter("terms.CloudTerm.created", terms._raw_term))

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds; counts; rg_step detail."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        table: dict[str, dict] = {}
        step_durations, step_children = [], []
        for i, (nid, t0, t1, parent) in enumerate(spans):
            name = names[nid]
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            outer, p = True, parent
            while p >= 0:  # nested call of the same function: counted once
                if spans[p][0] == nid:
                    outer = False
                    break
                p = spans[p][3]
            if outer:
                row["s"] += t1 - t0
            if name == "rgmap.rg_step":
                step_durations.append(t1 - t0)
                step_children.append(child[i])
        for name, cell in self.cells.items():
            if len(cell) == 3:
                table[name] = {"calls": cell[0], "s": cell[1], "self_s": cell[1]}
            else:
                table.setdefault(name, {})["calls"] = cell[0]
        return {"table": table, "steps": self.steps,
                "rg_step_s": step_durations, "rg_step_child_s": step_children}


def per_layer_metrics(summary: dict, cpu_s: float) -> dict:
    """Per-layer metric values, by BENCHMARK.json name, from a trace summary."""
    table = summary["table"]

    def get(name, key):
        return float(table.get(name, {}).get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    steps = summary["steps"]
    step_s = summary["rg_step_s"]
    kept = get("activities.truncate_cloud_terms.kept", "calls")
    dropped = get("activities.truncate_cloud_terms.dropped", "calls")
    c_calls = get("terms.CovAccess.c", "calls")
    out = {
        "flow.rg_step.s": statistics.median(step_s) if step_s else 0.0,
        "flow.steps": float(len(step_s)),
        "flow.activity_norm.s": get("activities.activity_norm", "s"),
        "rgmap.rg_step.child_cover": ratio(sum(summary["rg_step_child_s"]), sum(step_s)),
        "rgmap.fluctuate.self_s": get("rgmap.fluctuate", "self_s"),
        "rgmap.fluctuate.calls": get("rgmap.fluctuate", "calls"),
        "rgmap.fluctuate.terms_out": get("rgmap.fluctuate.terms_out", "calls"),
        "rgmap.fluctuate.dropped": get("rgmap.fluctuate.dropped", "calls"),
        "rgmap.tree_convolved_terms.calls": get("rgmap.tree_convolved_terms", "calls"),
        "rgmap.scale_activity.self_s": get("rgmap.scale_activity", "self_s"),
        "rgmap.scale_linear.s": get("rgmap.scale_linear", "s"),
        "rgmap.scale_linear.calls": get("rgmap.scale_linear", "calls"),
        "rgmap.four_term_split.self_s": get("rgmap.four_term_split", "self_s"),
        "rgmap.linearized_step.s": get("rgmap.linearized_step", "s"),
        "rgmap.extract.s": sum(get(n, "s") for n in EXTRACT),
        "rgmap.check_hypotheses.s": get("rgmap.check_hypotheses", "s"),
        "rgmap.step.shapes_out": float(sum(s for s, _ in steps)),
        "rgmap.step.terms_out": float(sum(t for _, t in steps)),
        "activities.truncate_cloud_terms.self_s": get("activities.truncate_cloud_terms", "self_s"),
        "activities.truncate_cloud_terms.calls": get("activities.truncate_cloud_terms", "calls"),
        "activities.truncate_cloud_terms.kept": kept,
        "activities.truncate_cloud_terms.dropped": dropped,
        "activities.truncate_cloud_terms.keep_ratio": ratio(kept, kept + dropped),
        "activities.polymer_exp.s": get("activities.polymer_exp", "s"),
        "activities.polymer_exp.calls": get("activities.polymer_exp", "calls"),
        "activities.mayer_init_truncated.s": get("activities.mayer_init_truncated", "s"),
        "terms.canon.calls": get("terms.canon", "calls"),
        "terms.canon.terms_in": get("terms.canon.terms_in", "calls"),
        "terms.canon.terms_out": get("terms.canon.terms_out", "calls"),
        "terms.canon.merge_ratio": ratio(get("terms.canon.terms_out", "calls"),
                                         get("terms.canon.terms_in", "calls")),
        "terms.translate_term.calls": get("terms.translate_term", "calls"),
        "terms.scale_term.calls": get("terms.scale_term", "calls"),
        "terms.CloudTerm.created": get("terms.CloudTerm.created", "calls"),
        "terms.CovAccess.c.calls": c_calls,
        "terms.CovAccess.kernel_evals": get("terms.CovAccess.kernel_evals", "calls"),
        "terms.CovAccess.hit_ratio": ratio(
            c_calls - get("terms.CovAccess.kernel_evals", "calls"), c_calls),
        "terms.convolve_terms.s": get("terms.convolve_terms", "s"),
        "terms.convolve_terms.calls": get("terms.convolve_terms", "calls"),
        "terms.evaluate_terms.s": get("terms.evaluate_terms", "s"),
        "terms.evaluate_terms.calls": get("terms.evaluate_terms", "calls"),
        "lattice.partition_closure.s": get("lattice.partition_closure", "s"),
        "lattice.partition_closure.calls": get("lattice.partition_closure", "calls"),
        "lattice.halo.s": get("lattice.halo", "s"),
        "lattice.halo.calls": get("lattice.halo", "calls"),
        "covariance.CovarianceKernel.eval.s": get("covariance.CovarianceKernel.eval", "s"),
        "covariance.CovarianceKernel.eval.calls": get("covariance.CovarianceKernel.eval", "calls"),
        "covariance.star_norm.s": get("covariance.star_norm", "s"),
        "covariance.trlog_T.s": get("covariance.trlog_T", "s"),
        "fields.gaussian_ensemble.s": get("fields.gaussian_ensemble", "s"),
        "fields.FieldGrid.at.s": get("fields.FieldGrid.at", "s"),
        "fields.FieldGrid.at.calls": get("fields.FieldGrid.at", "calls"),
        "interpolation.construct_gamma.s": get("interpolation.construct_gamma", "s"),
        "interpolation.construct_gamma.calls": get("interpolation.construct_gamma", "calls"),
        "interpolation.ordered_region_quadrature.calls":
            get("interpolation.ordered_region_quadrature", "calls"),
        "cli.main.s": get("cli.main", "s"),
        "cli.cpu_s": cpu_s,
    }
    return out


# Work counts that must repeat exactly between runs of one input and one source.
EXACT_COUNTS = (
    "flow.steps", "rgmap.fluctuate.calls", "rgmap.fluctuate.terms_out",
    "rgmap.fluctuate.dropped", "rgmap.tree_convolved_terms.calls",
    "rgmap.scale_linear.calls", "rgmap.step.shapes_out", "rgmap.step.terms_out",
    "activities.truncate_cloud_terms.calls", "activities.truncate_cloud_terms.kept",
    "activities.truncate_cloud_terms.dropped", "activities.polymer_exp.calls",
    "terms.canon.calls", "terms.canon.terms_in", "terms.canon.terms_out",
    "terms.translate_term.calls", "terms.scale_term.calls", "terms.CloudTerm.created",
    "terms.CovAccess.c.calls", "terms.CovAccess.kernel_evals",
    "terms.convolve_terms.calls", "terms.evaluate_terms.calls",
    "lattice.partition_closure.calls", "lattice.halo.calls",
    "covariance.CovarianceKernel.eval.calls", "fields.FieldGrid.at.calls",
    "interpolation.construct_gamma.calls", "interpolation.ordered_region_quadrature.calls",
)
