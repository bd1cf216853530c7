"""Effective translations between formulas, type disjunctions and automata.

The constructions here are infinite procedures on paper; they are realized
as deterministic budgeted streams that signal explicitly when a budget is
reached instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import run, run_points, type_automaton
from .formulas import Disjunction, FormulaEvaluator, check, modal_depth, validate_vocabulary
from . import typedesc


BUDGET_REACHED = object()
"""Sentinel yielded by :meth:`BudgetedEnumerator.events` on truncation."""


class BudgetedEnumerator:
    """Deterministic, replayable, duplicate-free stream with an item budget.

    Built from a zero-argument factory so every iteration replays the same
    prefix.  ``events()`` yields the items followed by ``BUDGET_REACHED``
    when the item budget truncated the stream; plain iteration yields items
    only and records the flag on ``budget_reached``.
    """

    def __init__(self, factory, max_items=None, label=""):
        self._factory = factory
        self.max_items = max_items
        self.label = label
        self.budget_reached = False

    def events(self):
        emitted = 0
        seen = set()
        for item in self._factory():
            if item in seen:
                continue
            if self.max_items is not None and emitted >= self.max_items:
                self.budget_reached = True
                yield BUDGET_REACHED
                return
            seen.add(item)
            emitted += 1
            yield item
        self.budget_reached = False

    def __iter__(self):
        for event in self.events():
            if event is not BUDGET_REACHED:
                yield event

    def items(self):
        return [x for x in self]


@dataclass
class Budgets:
    """Budget knobs shared by the translation streams."""

    max_degree: int = 2
    max_items: int = None
    max_rounds: int = 8


def formula_to_type_disjunction(formula, vocab, degree_budget, table=None, max_items=None):
    """Full types of the formula's depth whose realizers all satisfy it.

    Enumerates full types of depth md(formula) with relevant degrees at most
    ``degree_budget``, realizes each by its tree model and keeps it when the
    formula holds at the tree root.  The tree realizer decides membership
    because realizers of a full type agree on all formulas up to its depth.
    """
    validate_vocabulary(formula, vocab)
    table = typedesc.DEFAULT_TABLE if table is None else table
    depth = modal_depth(formula)

    def generate():
        for t in typedesc.enumerate_full_types(vocab, depth, degree_budget, table):
            tree = typedesc.tree_model_of_type(t)
            if check(tree, formula):
                yield t

    return BudgetedEnumerator(generate, max_items, label=f"types-of({formula!r})")


def diagonal(enumerator_factories):
    """Fair diagonal interleaving of countably many streams.

    The pair (stream i, item j) appears within the first (i+j+1)(i+j+2)/2
    emissions: anti-diagonal s covers item s-i of stream i.
    """
    iterators = []
    factories = iter(enumerator_factories)
    factories_done = False
    s = 0
    while True:
        if not factories_done:
            try:
                iterators.append([iter(next(factories)()), False])
            except StopIteration:
                factories_done = True
        emitted_any = False
        for entry in iterators[: s + 1]:
            iterator, done = entry
            if done:
                continue
            try:
                yield next(iterator)
                emitted_any = True
            except StopIteration:
                entry[1] = True
        if factories_done and not emitted_any and all(done for _, done in iterators):
            return
        s += 1


def disjunction_to_automaton(disjunction, vocab, degree_budget, table=None, max_items=None):
    """Type automaton accepting exactly the models of the disjunction.

    The accepting set is the diagonal interleaving of the per-disjunct full
    type streams, so every (disjunct, type) pair is reached after finitely
    many steps.
    """
    table = typedesc.DEFAULT_TABLE if table is None else table

    def factories():
        budget = max_items if max_items is not None else 10**9
        for f, _ in disjunction.all_disjuncts(budget):
            yield (
                lambda f=f: formula_to_type_disjunction(
                    f, vocab, degree_budget, table, max_items
                )
            )

    def deduped():
        seen = set()
        for t in diagonal(factories()):
            if t not in seen:
                seen.add(t)
                yield t

    # Replay-cache the stream so repeated runs of the automaton do not redo
    # the type enumeration; the underlying stream is advanced at most once.
    cache = []
    state = {"iter": None, "done": False}

    def accepting_stream():
        i = 0
        while True:
            if i < len(cache):
                yield cache[i]
                i += 1
                continue
            if state["done"]:
                return
            if state["iter"] is None:
                state["iter"] = deduped()
            try:
                item = next(state["iter"])
            except StopIteration:
                state["done"] = True
                return
            cache.append(item)

    return type_automaton(vocab, table, accepting_enumerator=accepting_stream)


def automaton_to_disjunction(spec, vocab, round_budget, degree_budget, table=None,
                             max_items=None, enum_budget=10000):
    """Full types whose tree realizers the automaton accepts.

    Emits a depth-n type exactly when the automaton accepts the type's tree
    model at a round at most n; deeper accepting rounds are captured by the
    deeper types of the same stream.
    """
    table = typedesc.DEFAULT_TABLE if table is None else table

    def generate():
        for depth in range(round_budget + 1):
            for t in typedesc.enumerate_full_types(vocab, depth, degree_budget, table):
                tree = typedesc.tree_model_of_type(t)
                result = run(spec, tree, max_rounds=depth, enum_budget=enum_budget)
                if result.accepted:
                    yield t

    return BudgetedEnumerator(generate, max_items, label="accepted-types")


@dataclass
class RoundtripDisagreement:
    pointed_model: object
    by_check: bool
    by_automaton: bool
    by_disjunction: bool


@dataclass
class RoundtripReport:
    formula: object
    models_checked: int = 0
    disagreements: list = field(default_factory=list)
    budget_reached: bool = False

    @property
    def agreed(self):
        return not self.disagreements


def _model_groups(pointed_models):
    """Runs of consecutive pointed models that share one model object."""
    group = []
    for pm in pointed_models:
        if group and pm.model is not group[0].model:
            yield group
            group = []
        group.append(pm)
    if group:
        yield group


def roundtrip_check(formula, vocab, pointed_models, budgets, table=None):
    """Cross-validate direct model checking, automaton acceptance and the
    translated-back type disjunction on a stream of pointed models.

    Consecutive pointed models that share one model object form a group.
    Each group is checked once: one formula evaluator serves the formula and
    every back formula, and one automaton run serves every point.  Each
    point is still counted and reported on its own, in stream order.

    ``budget_reached`` is set when an item budget truncated the forward or
    the back stream, when a run stopped on its enumeration budget, or when
    ``budgets.max_rounds`` is below the formula's modal depth; a
    disagreement is then not evidence of a faulty translation.
    """
    table = typedesc.DEFAULT_TABLE if table is None else table
    aut = disjunction_to_automaton(
        Disjunction.of([formula]), vocab, budgets.max_degree, table, budgets.max_items
    )
    back = automaton_to_disjunction(
        aut, vocab, budgets.max_rounds, budgets.max_degree, table, budgets.max_items
    )
    back_formulas = [typedesc.render_type(t, table) for t in back]
    depth = modal_depth(formula)
    report = RoundtripReport(formula)
    report.budget_reached = back.budget_reached or budgets.max_rounds < depth
    if budgets.max_items is not None:
        forward = formula_to_type_disjunction(
            formula, vocab, budgets.max_degree, table, budgets.max_items
        )
        report.budget_reached |= any(e is BUDGET_REACHED for e in forward.events())
    for group in _model_groups(pointed_models):
        model = group[0].model
        validate_vocabulary(formula, model.vocab)
        evaluator = FormulaEvaluator(model)
        satisfying = evaluator.nodes(formula)
        runs = run_points(aut, model, [pm.point for pm in group], max_rounds=depth)
        for pm in group:
            by_check = pm.point in satisfying
            result = runs[pm.point]
            by_automaton = result.accepted
            by_disjunction = any(evaluator.holds(pm.point, f) for f in back_formulas)
            report.budget_reached |= result.enum_budget_reached
            report.models_checked += 1
            if not (by_check == by_automaton == by_disjunction):
                report.disagreements.append(
                    RoundtripDisagreement(pm, by_check, by_automaton, by_disjunction)
                )
    return report
