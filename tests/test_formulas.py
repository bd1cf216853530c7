import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gradedwl import (
    And,
    Diamond,
    Disjunction,
    FormulaSyntaxError,
    KripkeModel,
    Not,
    PointedModel,
    Prop,
    TOP,
    check,
    check_disjunction,
    conjoin_disjunctions,
    modal_depth,
    parse,
    print_formula,
    width,
)
from gradedwl.formulas import exact_diamond

from conftest import V0, V1, V2, model, pointed


# -- parsing ---------------------------------------------------------------


class TestParse:
    def test_diamond(self):
        assert parse("<1:2> p0", V1) == Diamond(1, 2, Prop(0))

    def test_conjunction(self):
        assert parse("(p0 & ~p1)", V2) == And(Prop(0), Not(Prop(1)))

    def test_exact_sugar(self):
        got = parse("<1:=1> T", V0)
        assert got == And(Diamond(1, 1, TOP), Not(Diamond(1, 2, TOP)))

    def test_or_implies_iff_expand(self):
        assert check(pointed(model([0]), 0), parse("(T | ~T)", V0))
        assert check(pointed(model([0]), 0), parse("(~T -> T)", V0))
        assert check(pointed(model([0]), 0), parse("(T <-> T)", V0))

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("(p0 &", V1)
        assert err.value.position == 5

    def test_out_of_vocabulary_prop(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p3", V1)

    def test_out_of_vocabulary_channel(self):
        with pytest.raises(FormulaSyntaxError):
            parse("<2:1>T", V1)

    def test_trailing_input_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("T T", V0)


def formulas(vocab, max_depth=4):
    """Hypothesis strategy over core formulas of the vocabulary."""
    atoms = [st.just(TOP)]
    if vocab.props:
        atoms.append(st.sampled_from(sorted(vocab.props)).map(Prop))
    base = st.one_of(*atoms)

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda lr: And(*lr)),
            st.tuples(
                st.integers(1, vocab.channels),
                st.integers(0, 3),
                children,
            ).map(lambda t: Diamond(*t)),
        )

    return st.recursive(base, extend, max_leaves=max_depth * 2)


@settings(max_examples=200, deadline=None)
@given(formulas(V2))
def test_parser_roundtrip(f):
    assert parse(print_formula(f), V2) == f


@settings(max_examples=200, deadline=None)
@given(formulas(V2))
def test_width_length_equals_modal_depth(f):
    assert len(width(f, V2.channels)) == modal_depth(f)


# -- modal depth and width -------------------------------------------------


class TestDepthWidth:
    def test_top_depth_zero(self):
        assert modal_depth(TOP) == 0

    def test_nested(self):
        f = Diamond(1, 2, And(Prop(0), Diamond(1, 1, Prop(1))))
        assert modal_depth(f) == 2

    def test_max_rule(self):
        assert modal_depth(And(Diamond(1, 0, TOP), Prop(0))) == 1

    def test_width_atom(self):
        assert width(Prop(0), 2) == ()

    def test_width_prepend(self):
        assert width(Diamond(2, 5, Prop(0)), 2) == ((0, 5),)

    def test_width_conjunction_padding(self):
        f = And(Diamond(1, 2, Prop(0)), Diamond(2, 3, Diamond(1, 1, Prop(1))))
        assert width(f, 2) == ((2, 3), (1, 0))


# -- model checking --------------------------------------------------------


class TestCheck:
    def test_counting_diamond_brute_force(self):
        m = KripkeModel([1, 2, 3], V1, [(1, 1, 2), (1, 1, 3)], {0: [2, 3]})
        f = parse("<1:2> p0", V1)
        # independent oracle: count satisfying successors directly
        count = sum(1 for v in m.successors(1, 1) if v in m.valuation(0))
        assert count >= 2
        assert check(pointed(m, 1), f)

    def test_zero_threshold_vacuous(self):
        m = model([0])
        assert check(pointed(m, 0), Diamond(1, 0, Prop(0) if False else TOP))
        assert check(pointed(m, 0), parse("<1:0>~T", V0))

    def test_no_successors(self):
        assert not check(pointed(model([0]), 0), parse("<1:1>T", V0))

    def test_propositional_clauses_match_truth_tables(self):
        # all propositional formulas of size <= 6 on single-node models
        def gen(size):
            if size <= 1:
                yield TOP
                yield Prop(0)
                yield Prop(1)
                return
            for f in gen(size - 1):
                yield Not(f)
            for ls in range(1, size - 1):
                for l in gen(ls):
                    for r in gen(size - 1 - ls):
                        yield And(l, r)

        def brute(assignment, f):
            if isinstance(f, type(TOP)):
                return True
            if isinstance(f, Prop):
                return f.index in assignment
            if isinstance(f, Not):
                return not brute(assignment, f.child)
            return brute(assignment, f.left) and brute(assignment, f.right)

        for assignment in [set(), {0}, {1}, {0, 1}]:
            m = KripkeModel([0], V2, [], {p: [0] for p in assignment})
            pm = pointed(m, 0)
            for size in range(1, 5):
                for f in gen(size):
                    assert check(pm, f) == brute(assignment, f)

    def test_graded_monotonicity(self):
        m = model([0, 1, 2], [(1, 0, 1), (1, 0, 2)])
        pm = pointed(m, 0)
        for k in range(4):
            if check(pm, Diamond(1, k, TOP)):
                for j in range(k + 1):
                    assert check(pm, Diamond(1, j, TOP))

    def test_exact_diamond_unique_count(self):
        m = model([0, 1, 2], [(1, 0, 1), (1, 0, 2)])
        pm = pointed(m, 0)
        holds = [k for k in range(5) if check(pm, exact_diamond(1, k, TOP))]
        assert holds == [2]


# -- disjunctions ----------------------------------------------------------


def reachability_enumerator():
    f = Prop(0)
    while True:
        yield f
        f = Diamond(1, 1, f)


class TestDisjunction:
    def test_tautological_pair(self):
        d = Disjunction.of([Prop(0), Not(Prop(0))])
        m = KripkeModel([0], V1, [], {})
        assert check_disjunction(pointed(m, 0), d, budget=10).holds

    def test_empty_disjunction(self):
        d = Disjunction.of([])
        assert not check_disjunction(pointed(model([0]), 0), d, budget=10).holds

    def test_reachability_enumerator_within_budget(self):
        # oracle: unfold the enumerator by hand and check each disjunct
        m = KripkeModel([0, 1, 2], V1, [(1, 0, 1), (1, 1, 2)], {0: [2]})
        pm = pointed(m, 0)
        unfolded = list(itertools.islice(reachability_enumerator(), 3))
        assert [check(pm, f) for f in unfolded] == [False, False, True]
        d = Disjunction((), enumerator=reachability_enumerator())
        verdict = check_disjunction(pm, d, budget=3)
        assert verdict.holds

    def test_budget_relative_negative_flagged(self):
        m = KripkeModel([0], V1, [], {})
        d = Disjunction((), enumerator=reachability_enumerator())
        verdict = check_disjunction(pointed(m, 0), d, budget=5)
        assert not verdict.holds
        assert verdict.budget_limited

    def test_duplicates_removed(self):
        d = Disjunction.of([Prop(0), Prop(0), Not(Prop(0))])
        assert len(d.disjuncts) == 2


class TestConjoinDisjunctions:
    def test_singleton_product(self):
        d = conjoin_disjunctions(Disjunction.of([Prop(0)]), Disjunction.of([Prop(1)]))
        assert d.disjuncts == (And(Prop(0), Prop(1)),)

    def test_product_cardinality(self):
        d = conjoin_disjunctions(
            Disjunction.of([Prop(0), Prop(1)]), Disjunction.of([Prop(2)])
        )
        assert len(d.disjuncts) == 2

    def test_semantics_on_all_single_node_models(self):
        vocab_props = frozenset({0, 1, 2, 3})
        from gradedwl import Vocabulary

        v4 = Vocabulary(vocab_props, 1)
        d1 = Disjunction.of([Prop(0), Prop(1)])
        d2 = Disjunction.of([Prop(2), Not(Prop(3))])
        for bits in itertools.product([0, 1], repeat=4):
            valuation = {p: [0] for p in range(4) if bits[p]}
            pm = pointed(KripkeModel([0], v4, [], valuation), 0)
            lhs = check_disjunction(pm, conjoin_disjunctions(d1, d2), 100).holds
            rhs = (check_disjunction(pm, d1, 100).holds
                   and check_disjunction(pm, d2, 100).holds)
            assert lhs == rhs


def test_nonclosure_regression():
    """The reachability disjunction is true on a chain ending in p0, while the
    pointwise negated conjunction is true on a p0-free cycle; no countable
    disjunction can express the negation."""
    chain = KripkeModel([0, 1, 2], V1, [(1, 0, 1), (1, 1, 2)], {0: [2]})
    d = Disjunction((), enumerator=reachability_enumerator())
    assert check_disjunction(pointed(chain, 0), d, budget=3).holds
    cycle = KripkeModel([0, 1, 2], V1,
                        [(1, 0, 1), (1, 1, 2), (1, 2, 0)], {})
    prefix = list(itertools.islice(reachability_enumerator(), 10))
    assert all(check(pointed(cycle, 0), Not(f)) for f in prefix)
