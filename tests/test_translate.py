import itertools

from gradedwl import (
    And,
    Diamond,
    Disjunction,
    Not,
    Prop,
    TOP,
    Budgets,
    GridSpec,
    BudgetedEnumerator,
    InternTable,
    KripkeModel,
    automaton_to_disjunction,
    check,
    disjunction_to_automaton,
    formula_to_type_disjunction,
    gen_grid,
    modal_depth,
    parse,
    render_type,
    roundtrip_check,
    run,
    serialize_type,
)
from gradedwl.formulas import FormulaEvaluator
from gradedwl.translate import BUDGET_REACHED, diagonal

from conftest import V0, V1, model, pointed


class TestBudgetedEnumerator:
    def test_items_and_replay(self):
        e = BudgetedEnumerator(lambda: iter([3, 1, 2]))
        assert e.items() == [3, 1, 2]
        assert e.items() == [3, 1, 2]
        assert not e.budget_reached

    def test_duplicates_dropped(self):
        e = BudgetedEnumerator(lambda: iter([1, 1, 2, 1]))
        assert e.items() == [1, 2]

    def test_budget_sentinel(self):
        e = BudgetedEnumerator(lambda: itertools.count(), max_items=3)
        events = list(itertools.islice(e.events(), 4))
        assert events == [0, 1, 2, BUDGET_REACHED]
        assert e.budget_reached

    def test_budget_not_reached_when_stream_fits(self):
        e = BudgetedEnumerator(lambda: iter([1, 2]), max_items=5)
        assert e.items() == [1, 2]
        assert not e.budget_reached

    def test_budget_prefix_monotone(self):
        full = BudgetedEnumerator(lambda: iter(range(10))).items()
        short = BudgetedEnumerator(lambda: iter(range(10)), max_items=4).items()
        assert full[: len(short)] == short


class TestDiagonal:
    def test_single_stream(self):
        assert list(diagonal([lambda: iter("abc")])) == ["a", "b", "c"]

    def test_empty(self):
        assert list(diagonal([])) == []

    def test_fair_over_infinite_streams(self):
        def stream(i):
            return lambda: ((i, j) for j in itertools.count())

        def factories():
            for i in itertools.count():
                yield stream(i)

        prefix = list(itertools.islice(diagonal(factories()), 21))
        # pair (i, j) must appear within the first (i+j+1)(i+j+2)/2 items
        for i, j in [(0, 0), (1, 0), (0, 3), (2, 2)]:
            bound = (i + j + 1) * (i + j + 2) // 2
            assert (i, j) in prefix[:bound]

    def test_finite_streams_complete(self):
        got = list(diagonal([lambda: iter([1, 2]), lambda: iter([3]), lambda: iter([])]))
        assert sorted(got) == [1, 2, 3]


class TestFormulaToTypes:
    def test_top_single_type(self):
        types = formula_to_type_disjunction(TOP, V0, 2).items()
        assert len(types) == 1
        assert types[0].depth == 0

    def test_diamond_keeps_positive_totals(self):
        types = formula_to_type_disjunction(Diamond(1, 1, TOP), V0, 2).items()
        # depth-1 degree<=2 types have totals 0, 1, 2; the formula needs >= 1
        assert len(types) == 2
        assert all(t.channels[0].total >= 1 for t in types)

    def test_contradiction_empty(self):
        assert formula_to_type_disjunction(And(TOP, Not(TOP)), V0, 2).items() == []

    def test_prop_filters_atoms(self):
        types = formula_to_type_disjunction(Prop(0), V1, 1).items()
        assert types and all(0 in t.atoms for t in types)

    def test_deterministic(self):
        f = parse("(<1:1>p0 & ~p0)", V1)
        a = [t.uid for t in formula_to_type_disjunction(f, V1, 2)]
        b = [t.uid for t in formula_to_type_disjunction(f, V1, 2)]
        assert a == b

    def test_kept_types_exactly_satisfiers(self):
        # oracle: realize every enumerated type and check directly
        from gradedwl import enumerate_full_types, tree_model_of_type

        f = parse("<1:2>p0", V1)
        kept = {t.uid for t in formula_to_type_disjunction(f, V1, 2)}
        for t in enumerate_full_types(V1, 1, 2):
            assert (t.uid in kept) == check(tree_model_of_type(t), f)


class TestDisjunctionToAutomaton:
    def check_agreement(self, disjunction, formula, vocab, max_degree=2, depth=1):
        aut = disjunction_to_automaton(disjunction, vocab, max_degree)
        spec = GridSpec(max_nodes=3, max_degree=max_degree, props=len(vocab.props),
                        exhaustive=True)
        for m in itertools.islice(gen_grid(spec), 120):
            for w in m.domain:
                pm = pointed(m, w)
                assert run(aut, pm, max_rounds=depth).accepted == check(pm, formula)

    def test_single_disjunct(self):
        f = parse("<1:1>T", V0)
        self.check_agreement(Disjunction.of([f]), f, V0)

    def test_two_disjuncts(self):
        f1, f2 = parse("p0", V1), parse("<1:2>T", V1)
        or_formula = parse("(p0 | <1:2>T)", V1)
        self.check_agreement(Disjunction.of([f1, f2]), or_formula, V1)

    def test_repeated_runs_reuse_stream(self):
        f = parse("<1:1>T", V0)
        aut = disjunction_to_automaton(Disjunction.of([f]), V0, 2)
        m = model([0, 1], [(1, 0, 1)])
        for _ in range(3):
            assert run(aut, pointed(m, 0), max_rounds=1).accepted
            assert not run(aut, pointed(m, 1), max_rounds=1).accepted


class TestAutomatonToDisjunction:
    def test_inverts_forward_translation(self):
        f = parse("<1:1>T", V0)
        aut = disjunction_to_automaton(Disjunction.of([f]), V0, 2)
        back = automaton_to_disjunction(aut, V0, round_budget=1, degree_budget=2)
        forward = {t.uid for t in formula_to_type_disjunction(f, V0, 2)}
        assert {t.uid for t in back} == forward

    def test_round_budget_zero_sees_depth_zero_only(self):
        aut = disjunction_to_automaton(Disjunction.of([TOP]), V0, 2)
        back = automaton_to_disjunction(aut, V0, round_budget=0, degree_budget=2)
        assert [t.depth for t in back] == [0]

    def test_max_items_truncates_with_marker(self):
        aut = disjunction_to_automaton(Disjunction.of([TOP]), V0, 2)
        back = automaton_to_disjunction(
            aut, V0, round_budget=2, degree_budget=2, max_items=2
        )
        events = list(back.events())
        assert events[-1] is BUDGET_REACHED
        assert len(events) == 3


class TestRoundtrip:
    def budgets(self, depth):
        return Budgets(max_degree=2, max_rounds=depth)

    def models(self, vocab, count=80):
        return [
            pointed(m, w)
            for m in itertools.islice(
                gen_grid(GridSpec(max_nodes=3, max_degree=2, props=len(vocab.props),
                                  exhaustive=True)), count)
            for w in m.domain
        ]

    def test_simple_modal_formula_agrees(self):
        f = parse("<1:1>T", V0)
        report = roundtrip_check(f, V0, self.models(V0), self.budgets(1))
        assert report.agreed
        assert report.models_checked > 0

    def test_propositional_formula_agrees(self):
        f = parse("~p0", V1)
        report = roundtrip_check(f, V1, self.models(V1, 30), self.budgets(0))
        assert report.agreed

    def test_depth_two_formula_agrees(self):
        f = parse("<1:1><1:2>T", V0)
        report = roundtrip_check(f, V0, self.models(V0), self.budgets(2))
        assert report.agreed

    def test_disagreement_reported_for_wrong_automaton(self):
        # feed the checker a formula whose automaton was built for another
        f, g = parse("<1:1>T", V0), parse("<1:2>T", V0)
        aut = disjunction_to_automaton(Disjunction.of([g]), V0, 2)
        pm = pointed(model([0, 1], [(1, 0, 1)]), 0)
        assert check(pm, f) != run(aut, pm, max_rounds=1).accepted


def roundtrip_per_point(formula, vocab, pointed_models, budgets, table):
    """The roundtrip check written as one evaluator and one run per point:
    ``(models_checked, [(pm, by_check, by_automaton, by_disjunction)])``."""
    aut = disjunction_to_automaton(
        Disjunction.of([formula]), vocab, budgets.max_degree, table, budgets.max_items
    )
    back = automaton_to_disjunction(
        aut, vocab, budgets.max_rounds, budgets.max_degree, table, budgets.max_items
    )
    back_formulas = [render_type(t, table) for t in back]
    checked, disagreements = 0, []
    for pm in pointed_models:
        by_check = check(pm, formula)
        by_automaton = run(aut, pm, max_rounds=modal_depth(formula)).accepted
        evaluator = FormulaEvaluator(pm.model)
        by_disjunction = any(evaluator.holds(pm.point, f) for f in back_formulas)
        checked += 1
        if not (by_check == by_automaton == by_disjunction):
            disagreements.append((pm, by_check, by_automaton, by_disjunction))
    return checked, disagreements


class TestRoundtripPerModel:
    """``roundtrip_check`` works per model; it must report what the check
    per point reports, on the caller's objects and in stream order."""

    def grid(self, vocab, nodes, degree):
        return list(gen_grid(GridSpec(max_nodes=nodes, max_degree=degree,
                                      props=len(vocab.props), exhaustive=True)))

    def compare(self, text, vocab, stream, budgets, same_objects=True):
        formula = parse(text, vocab)
        report = roundtrip_check(formula, vocab, iter(stream()), budgets, InternTable())
        checked, expected = roundtrip_per_point(formula, vocab, iter(stream()), budgets,
                                                InternTable())
        got = [(d.pointed_model, d.by_check, d.by_automaton, d.by_disjunction)
               for d in report.disagreements]
        assert report.models_checked == checked
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            if same_objects:
                assert g[0] is e[0]
            else:
                assert (g[0].model.edge_triples(), g[0].point) == \
                    (e[0].model.edge_triples(), e[0].point)
            assert g[1:] == e[1:]
        return report

    def test_agreeing_formula(self):
        pms = [pointed(m, w) for m in self.grid(V1, 3, 1)[::4] for w in m.domain]
        report = self.compare("(<1:1>p0 | <1:2>~p0)", V1, lambda: pms,
                              Budgets(max_degree=2, max_rounds=1))
        assert report.agreed and not report.budget_reached
        assert report.models_checked == len(pms)

    def test_item_budget_with_disagreements(self):
        pms = [pointed(m, w) for m in self.grid(V0, 2, 2) for w in m.domain]
        report = self.compare("<1:1>T", V0, lambda: pms,
                              Budgets(max_degree=2, max_items=1, max_rounds=1))
        assert report.disagreements and report.budget_reached

    def test_alternating_models_and_repeated_points(self):
        models = [m for m in self.grid(V0, 3, 2) if len(m.domain) == 3][::6]
        pms = []
        for a, b in zip(models[::2], models[1::2]):
            for w in a.domain:
                pms += [pointed(a, w), pointed(b, w)]
            pms += [pms[-1], pms[-1], pointed(b, 0)]
        report = self.compare("<1:1><1:1>T", V0, lambda: pms,
                              Budgets(max_degree=2, max_items=3, max_rounds=2))
        assert report.disagreements

    def test_fresh_model_for_every_point(self):
        grid = self.grid(V0, 3, 2)[::8]

        def stream():
            for m in grid:
                for w in m.domain:
                    yield pointed(KripkeModel(m.domain, V0, m.edge_triples()), w)

        report = self.compare("<1:1>T", V0, stream,
                              Budgets(max_degree=2, max_items=1, max_rounds=1),
                              same_objects=False)
        assert report.disagreements


def test_serializations_of_forward_stream_stable():
    f = parse("<1:=1>T", V0)
    texts = [serialize_type(t) for t in formula_to_type_disjunction(f, V0, 2)]
    assert texts == [
        "(type d1 (atoms) (ch 1 (= 1 (type d0 (atoms))) (total 1)))"
    ]
