"""Spans and counters around the program's public functions.

``Tracer.install`` replaces each traced function or method by a wrapper that
records a span (name, start, end, parent, op id) in compact in-memory
arrays.  Module functions are replaced under every name a gradedwl module
binds them to (``cli.parse_model`` and ``formats.parse_model`` are the same
function), so callers that imported the name directly are traced as well.
A call nested directly in a span of the same name, such as the recursive
``FormulaEvaluator.nodes``, folds into the outer span.  The hottest calls,
``InternTable.intern`` and ``FormulaEvaluator.__init__``, are counted only.

Self time is a span's duration minus the time its direct children cover;
each layer's ``_s`` metric sums its spans' self times.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> span name.  An attribute "Class.method" traces a
# method.  ``after(tracer, args, result)`` may count from a call's result
# and returns the result the caller receives.
SPANS = {
    ("cli", "main"): "cli.main",
    ("formats", "parse_model"): "formats.parse_model",
    ("kripke", "KripkeModel.__init__"): "kripke.model_init",
    ("kripke", "PointedModel.__init__"): "kripke.point_init",
    ("kripke", "disjoint_union"): "kripke.disjoint_union",
    ("formulas", "parse"): "formulas.parse",
    ("formulas", "check"): "formulas.check",
    ("formulas", "FormulaEvaluator.nodes"): "formulas.eval",
    ("typedesc", "full_type"): "typedesc.full_type",
    ("typedesc", "enumerate_full_types"): "typedesc.enumerate",
    ("typedesc", "tree_model_of_type"): "typedesc.tree_model",
    ("typedesc", "render_type"): "typedesc.render",
    ("automaton", "step"): "automaton.step",
    ("automaton", "run"): "automaton.run",
    ("wl", "refine_to_stable"): "wl.refine",
    ("wl", "refine_round"): "wl.round",
    ("wl", "Coloring.partition"): "wl.partition",
    ("wl", "distinguish"): "wl.distinguish",
    ("gfp", "phi_wl_fixpoint"): "gfp.fixpoint",
    ("gfp", "phi_wl_step"): "gfp.step",
    ("translate", "roundtrip_check"): "translate.roundtrip",
    ("grid", "gen_grid"): "grid.gen",
}


def _count_grid(tracer, models):
    for model in models:
        tracer.counts["grid.models"] += 1
        yield model


AFTER = {
    "automaton.step": lambda tr, args, result: tr.add("automaton.node_steps", len(args[1].domain), result),
    "wl.refine": lambda tr, args, result: tr.add("wl.classes", result.coloring.class_count(), result),
    "gfp.step": lambda tr, args, result: tr.add("gfp.pairs_tested", len(args[1].pairs), result),
    "translate.roundtrip": lambda tr, args, result: tr.add(
        "translate.disagreements", len(result.disagreements),
        tr.add("translate.models_checked", result.models_checked, result)),
    "grid.gen": lambda tr, args, result: _count_grid(tr, result),
}

# What each op of a workload must reach.  A traced run that records none of
# one of these fails, so a rename in the program cannot silently report 0.
COVERAGE = {
    "refine-large": [
        "formats.parse_model", "kripke.model_init", "kripke.point_init", "formulas.eval",
        "typedesc.intern_calls", "typedesc.full_type", "automaton.step", "wl.refine",
        "wl.round", "wl.partition",
    ],
    "oracle-pairs": [
        "cli.main", "formats.parse_model", "kripke.model_init", "kripke.point_init",
        "kripke.disjoint_union", "formulas.check", "formulas.eval", "typedesc.intern_calls",
        "typedesc.full_type", "typedesc.render", "automaton.step", "wl.distinguish",
        "wl.refine", "wl.round", "wl.partition", "gfp.fixpoint", "gfp.step",
        "gfp.pairs_tested",
    ],
    "roundtrip-grid": [
        "kripke.model_init", "kripke.point_init", "formulas.check", "formulas.eval",
        "formulas.evaluators", "typedesc.intern_calls", "typedesc.enumerate",
        "typedesc.tree_model", "typedesc.render", "automaton.run", "automaton.step",
        "translate.roundtrip", "translate.models_checked", "grid.gen", "grid.models",
    ],
}

# Per-op counts that must repeat exactly between two traced runs of a seed.
DETERMINISTIC = [
    "typedesc.table_size", "typedesc.intern_calls", "wl.round", "gfp.step",
    "gfp.pairs_tested", "translate.models_checked", "formulas.evaluators", "failed",
]


class Tracer:
    def __init__(self):
        self.names = []
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.tables = {}
        self.per_op = []

    def add(self, key, amount, result):
        self.counts[key] += amount
        return result

    # -- instrumentation -----------------------------------------------------

    def install(self, prog):
        """Wrap every traced function of the loaded gradedwl modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "gradedwl" or name.startswith("gradedwl.")]
        for (module, attr), span in SPANS.items():
            owner = getattr(prog, module)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(owner, cls_name)
                attr = method
            original = getattr(owner, attr)
            wrapper = self._span(span, original, AFTER.get(span))
            setattr(owner, attr, wrapper)
            if owner is getattr(prog, module):
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)
        table_cls = prog.typedesc.InternTable
        table_cls.intern = self._count_intern(table_cls.intern)
        evaluator_cls = prog.formulas.FormulaEvaluator
        evaluator_cls.__init__ = self._count("formulas.evaluators", evaluator_cls.__init__)

    def _span(self, name, fn, after):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self.stack
        span_op, span_parent, span_name = self.span_op, self.span_parent, self.span_name
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if stack and span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(span_start)
            span_op.append(self.op)
            span_parent.append(stack[-1] if stack else -1)
            span_name.append(nid)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            return result if after is None else after(self, args, result)

        return traced

    def _count(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_intern(self, fn):
        def intern(table, *args, **kwargs):
            self.counts["typedesc.intern_calls"] += 1
            if table not in self.tables:
                self.tables[table] = len(table)
            return fn(table, *args, **kwargs)

        return intern

    # -- ops -----------------------------------------------------------------

    def begin_op(self, i):
        self.op = i
        self.counts = Counter()
        self.tables = {}

    def end_op(self, failed):
        """Close the op's counts; a table's misses are its growth in the op."""
        counts = self.counts
        counts["typedesc.table_size"] = sum(len(t) for t in self.tables)
        counts["typedesc.intern_misses"] = sum(len(t) - n for t, n in self.tables.items())
        counts["failed"] = int(failed)
        self.per_op.append(counts)
        self.tables = {}
        self.op = -1

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self time and span count per (op, name); op -1 is set-up."""
        n = len(self.span_start)
        duration = array("d", map(float.__sub__, self.span_end, self.span_start))
        covered = array("d", bytes(8 * n))
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += duration[i]
        self_s = defaultdict(float)
        calls = Counter()
        for i in range(n):
            key = (self.span_op[i], self.names[self.span_name[i]])
            self_s[key] += duration[i] - covered[i]
            calls[key] += 1
        return self_s, calls

    def op_records(self, calls):
        """Per-op counts, span calls included, for the determinism check."""
        records = [dict(c) for c in self.per_op]
        for (op, name), n in calls.items():
            if op >= 0:
                records[op][name] = n
        return records

    def metrics(self, self_s, calls, ops_per_s):
        """Per-layer metrics: times and counts per attempted op."""
        ops = len(self.per_op)
        op_self, op_calls, setup_self = Counter(), Counter(), Counter()
        for (op, name), s in self_s.items():
            if op >= 0:
                op_self[name] += s
                op_calls[name] += calls[op, name]
            else:
                setup_self[name] += s
        counts = Counter()
        for c in self.per_op:
            counts.update(c)
        intern_calls = counts["typedesc.intern_calls"]
        hits = intern_calls - counts["typedesc.intern_misses"]

        def t(name):
            return op_self[name] / ops, "s/op", op_calls[name]

        def c(name):
            return op_calls[name] / ops, "count/op", op_calls[name]

        def k(key, unit="count/op"):
            return counts[key] / ops, unit, ops

        return {
            "cli.main_s": t("cli.main"),
            "cli.calls": c("cli.main"),
            "formats.parse_model_s": t("formats.parse_model"),
            "formats.parse_model_calls": c("formats.parse_model"),
            "kripke.model_init_s": t("kripke.model_init"),
            "kripke.models_built": c("kripke.model_init"),
            "kripke.point_init_s": t("kripke.point_init"),
            "kripke.pointed_models": c("kripke.point_init"),
            "kripke.disjoint_union_s": t("kripke.disjoint_union"),
            "formulas.parse_s": (setup_self["formulas.parse"], "s", 1),
            "formulas.check_s": t("formulas.check"),
            "formulas.eval_s": t("formulas.eval"),
            "formulas.evaluators": k("formulas.evaluators"),
            "typedesc.intern_calls": k("typedesc.intern_calls"),
            "typedesc.intern_hit_ratio": (hits / intern_calls if intern_calls else 0.0,
                                          "ratio", intern_calls),
            "typedesc.table_size": k("typedesc.table_size"),
            "typedesc.full_type_s": t("typedesc.full_type"),
            "typedesc.enumerate_s": t("typedesc.enumerate"),
            "typedesc.tree_model_s": t("typedesc.tree_model"),
            "typedesc.render_s": t("typedesc.render"),
            "automaton.step_s": t("automaton.step"),
            "automaton.steps": c("automaton.step"),
            "automaton.node_steps": k("automaton.node_steps"),
            "automaton.run_s": t("automaton.run"),
            "automaton.runs": c("automaton.run"),
            "wl.refine_s": t("wl.refine"),
            "wl.round_s": t("wl.round"),
            "wl.rounds": c("wl.round"),
            "wl.partition_s": t("wl.partition"),
            "wl.classes": k("wl.classes"),
            "wl.distinguish_s": t("wl.distinguish"),
            "gfp.fixpoint_s": t("gfp.fixpoint"),
            "gfp.fixpoint_calls": c("gfp.fixpoint"),
            "gfp.step_s": t("gfp.step"),
            "gfp.stages": c("gfp.step"),
            "gfp.pairs_tested": k("gfp.pairs_tested"),
            "gfp.errors": k("gfp.fixpoint.raised"),
            "translate.roundtrip_s": t("translate.roundtrip"),
            "translate.models_checked": k("translate.models_checked"),
            "translate.disagreements": k("translate.disagreements"),
            "grid.models": k("grid.models"),
            "trace.ops_per_s": (ops_per_s, "1/s", ops),
        }

    def coverage_gaps(self, workload):
        """Names in ``COVERAGE`` that recorded no span and no count."""
        seen = {self.names[i] for i in set(self.span_name)}
        for c in self.per_op:
            seen.update(k for k, v in c.items() if v)
        return [name for name in COVERAGE[workload] if name not in seen]

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_op[i]}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
