import itertools

import pytest

from gradedwl import (
    AutomatonSpec,
    GridSpec,
    KripkeModel,
    ModelDomainError,
    Multiset,
    TransitionError,
    Verdict,
    VocabularyError,
    full_type,
    gen_grid,
    initial_configuration,
    run,
    step,
    type_automaton,
    type_epsilon,
)
from gradedwl.automaton import run_points
from gradedwl.formats import parse_automaton

from conftest import V0, V1, cycle, model, path3_undirected, pointed


def degree_automaton(vocab=V0):
    """States are integers; each round a node records its successor count."""
    return AutomatonSpec(
        vocab,
        initializer=lambda atoms: 0,
        transition=lambda multisets, prev: len(multisets[0]),
        accepting=lambda s: s >= 2,
        name="degree",
    )


def parity_automaton(vocab=V0):
    """Round-robin state flip, ignoring messages."""
    return AutomatonSpec(
        vocab,
        initializer=lambda atoms: 0,
        transition=lambda multisets, prev: 1 - prev,
        accepting=lambda s: s == 1,
    )


class TestInitialConfiguration:
    def test_initializer_sees_atoms(self):
        m = KripkeModel([0, 1], V1, [], {0: [1]})
        aut = AutomatonSpec(V1, initializer=frozenset.copy, transition=None)
        config = initial_configuration(aut, m)
        assert config.round == 0
        assert config.states == {0: frozenset(), 1: frozenset({0})}

    def test_vocab_mismatch(self):
        with pytest.raises(VocabularyError):
            initial_configuration(degree_automaton(V1), model([0]))


class TestStep:
    def test_messages_flow_against_edges(self):
        # edge 1 -> 2: node 1 hears node 2's state, not the other way round
        m = model([1, 2], [(1, 1, 2)])
        seen = {}

        def delta(multisets, prev):
            seen[prev] = multisets[0]
            return prev

        aut = AutomatonSpec(V0, initializer=lambda atoms: None, transition=delta)
        config = initial_configuration(aut, m)
        config.states = {1: "a", 2: "b"}
        step(aut, m, config)
        assert seen["a"] == Multiset(["b"])
        assert seen["b"] == Multiset()

    def test_synchrony(self):
        # all nodes read round-t states: on a directed 2-cycle the states swap
        m = model([0, 1], [(1, 0, 1), (1, 1, 0)])

        def delta(multisets, prev):
            (s,) = list(multisets[0])
            return s

        aut = AutomatonSpec(V0, initializer=lambda atoms: None, transition=delta)
        config = initial_configuration(aut, m)
        config.states = {0: "x", 1: "y"}
        nxt = step(aut, m, config)
        assert nxt.states == {0: "y", 1: "x"}
        assert nxt.round == 1

    def test_multiplicities_preserved(self):
        m = model([0, 1, 2], [(1, 0, 1), (1, 0, 2)])
        captured = []

        def delta(multisets, prev):
            captured.append(multisets[0])
            return prev

        aut = AutomatonSpec(V0, initializer=lambda atoms: "s", transition=delta)
        step(aut, m, initial_configuration(aut, m))
        assert captured[0] == Multiset(["s", "s"])

    def test_transition_error_annotated_with_node(self):
        def delta(multisets, prev):
            raise TransitionError("boom")

        aut = AutomatonSpec(V0, initializer=lambda atoms: 0, transition=delta)
        m = model([7])
        with pytest.raises(TransitionError) as err:
            step(aut, m, initial_configuration(aut, m))
        assert err.value.node == 7


class TestRun:
    def test_accepts_at_earliest_round(self):
        res = run(parity_automaton(), pointed(model([0]), 0), max_rounds=5)
        assert res.accepted and res.round == 1
        assert res.trace[:2] == [0, 1]

    def test_round_zero_acceptance(self):
        aut = AutomatonSpec(
            V0, lambda atoms: 0, lambda ms, s: s, accepting=lambda s: s == 0
        )
        res = run(aut, pointed(model([0]), 0), max_rounds=0)
        assert res.accepted and res.round == 0

    def test_not_within_budget(self):
        aut = degree_automaton()
        res = run(aut, pointed(model([0]), 0), max_rounds=4)
        assert res.verdict is Verdict.NOT_WITHIN_BUDGET
        assert res.round is None
        assert not res.accepted
        assert len(res.trace) == 5

    def test_enumerator_acceptance(self):
        aut = AutomatonSpec(
            V0,
            lambda atoms: 0,
            lambda ms, s: s + 1,
            accepting_enumerator=lambda: iter(range(100, -1, -10)),
        )
        res = run(aut, pointed(model([0]), 0), max_rounds=50)
        assert res.accepted
        # the reported round is the earliest accepting round discovered so
        # far, and must genuinely be an enumerated accepting state
        assert res.trace[res.round] % 10 == 0

    def test_enumerator_budget_exhaustion(self):
        aut = AutomatonSpec(
            V0,
            lambda atoms: 0,
            lambda ms, s: s,
            accepting_enumerator=lambda: itertools.count(1),
        )
        res = run(aut, pointed(model([0]), 0), max_rounds=3, enum_budget=20)
        assert res.verdict is Verdict.NOT_WITHIN_BUDGET

    def test_enumerator_earliest_round_reported(self):
        aut = AutomatonSpec(
            V0,
            lambda atoms: 0,
            lambda ms, s: s + 1,
            accepting_enumerator=lambda: iter([2, 1]),
        )
        res = run(aut, pointed(model([0]), 0), max_rounds=10)
        assert res.accepted and res.round == 1


def run_alone(automaton, pm, max_rounds, enum_budget):
    """The single-point run loop, kept as the reference for run_points:
    ``(verdict, round, trace, enum_budget_reached)``."""
    model, point = pm.model, pm.point
    config = initial_configuration(automaton, model)
    trace = [config.states[point]]

    if automaton.accepting_enumerator is None:
        accepting = automaton.accepting
        if accepting is not None and accepting(trace[0]):
            return Verdict.ACCEPTED, 0, trace, False
        for _ in range(max_rounds):
            config = step(automaton, model, config)
            trace.append(config.states[point])
            if accepting is not None and accepting(trace[-1]):
                return Verdict.ACCEPTED, config.round, trace, False
        return Verdict.NOT_WITHIN_BUDGET, None, trace, False

    enumerated = set()
    iterator = iter(automaton.accepting_enumerator())
    pulled = 0
    rounds_left = max_rounds
    enum_done = False
    while True:
        for t, s in enumerate(trace):
            if s in enumerated:
                return Verdict.ACCEPTED, t, trace, False
        progressed = False
        if rounds_left > 0:
            config = step(automaton, model, config)
            trace.append(config.states[point])
            rounds_left -= 1
            progressed = True
        if not enum_done and pulled < enum_budget:
            try:
                enumerated.add(next(iterator))
                pulled += 1
                progressed = True
            except StopIteration:
                enum_done = True
        if not progressed:
            break
    return Verdict.NOT_WITHIN_BUDGET, None, trace, not enum_done


def _sum_transition(multisets, prev):
    return prev + sum(multisets[0])


SEES_P0 = """gradedwl-automaton v1
props 0
channels 1
states yes no ok
init {p0} yes
init default no
rule yes else -> yes
rule no [1: yes>=1] -> ok
rule no [1: ok>=1] -> ok
rule no else -> no
rule ok else -> ok
accept ok
"""


class TestRunPoints:
    AUTOMATA = {
        "predicate": AutomatonSpec(V1, lambda atoms: len(atoms), _sum_transition,
                                   accepting=lambda s: s >= 3),
        # the enumeration order makes the first discovered round differ from
        # the earliest accepting round, and a repeated item spends budget
        "enumerator": AutomatonSpec(V1, lambda atoms: len(atoms), _sum_transition,
                                    accepting_enumerator=lambda: iter([4, 2, 4, 7, 1, 3])),
        "declarative": parse_automaton(SEES_P0),
    }

    @pytest.mark.parametrize("kind", sorted(AUTOMATA))
    def test_every_point_equals_a_run_alone(self, kind):
        aut = self.AUTOMATA[kind]
        grid = itertools.chain(
            gen_grid(GridSpec(max_nodes=2, max_degree=2, props=1, exhaustive=True)),
            itertools.islice(
                gen_grid(GridSpec(max_nodes=3, max_degree=2, props=1, exhaustive=True)),
                0, None, 28),
        )
        for m in grid:
            for max_rounds in range(6):
                for budget in (0, 1, 2, 10000):
                    results = run_points(aut, m, m.domain, max_rounds, budget)
                    assert set(results) == set(m.domain)
                    for w in m.domain:
                        got = results[w]
                        alone = run(aut, pointed(m, w), max_rounds, budget)
                        assert got == alone
                        expected = run_alone(aut, pointed(m, w), max_rounds, budget)
                        assert (got.verdict, got.round, got.trace,
                                got.enum_budget_reached) == expected

    def test_stops_stepping_once_every_point_has_a_verdict(self):
        steps = []

        def delta(multisets, prev):
            steps.append(prev)
            return prev + 1

        aut = AutomatonSpec(V0, lambda atoms: 0, delta, accepting=lambda s: s >= 2)
        m = model([0, 1, 2], [(1, 0, 1)])
        results = run_points(aut, m, [0, 2], max_rounds=9)
        assert {w: r.round for w, r in results.items()} == {0: 2, 2: 2}
        assert len(steps) == 2 * len(m.domain)

    def test_repeated_points_share_one_result(self):
        m = model([0, 1], [(1, 0, 1)])
        results = run_points(degree_automaton(), m, [1, 1, 0], max_rounds=2)
        assert sorted(results) == [0, 1]

    def test_point_outside_domain(self):
        with pytest.raises(ModelDomainError):
            run_points(degree_automaton(), model([0]), [0, 5], max_rounds=1)


class TestTypeAutomaton:
    def test_round_zero_is_epsilon_type(self):
        m = KripkeModel([0, 1], V1, [], {0: [1]})
        config = initial_configuration(type_automaton(V1), m)
        for w in m.domain:
            assert config.states[w] is type_epsilon(pointed(m, w))

    def test_state_equals_full_type_small_models(self):
        aut = type_automaton(V0)
        for m in itertools.islice(
                gen_grid(GridSpec(max_nodes=3, max_degree=2, exhaustive=True)), 200):
            config = initial_configuration(aut, m)
            for n in range(3):
                for w in m.domain:
                    assert config.states[w].uid == full_type(pointed(m, w), n).uid
                config = step(aut, m, config)

    def test_sink_node_transition(self):
        # no successors: the next descriptor records an empty channel, total 0
        m = model([0])
        aut = type_automaton(V0)
        config = step(aut, m, initial_configuration(aut, m))
        t = config.states[0]
        assert t.depth == 1
        assert t.channels[0].exact == ()
        assert t.channels[0].total == 0

    def test_depth_mismatch_rejected(self):
        aut = type_automaton(V0)
        m = model([0, 1], [(1, 0, 1)])
        config = initial_configuration(aut, m)
        config.states[1] = step(aut, m, config).states[1]  # now depth 1 vs 0
        with pytest.raises(TransitionError):
            step(aut, m, config)

    def test_non_descriptor_state_rejected(self):
        aut = type_automaton(V0)
        m = model([0])
        config = initial_configuration(aut, m)
        config.states[0] = "junk"
        with pytest.raises(TransitionError):
            step(aut, m, config)

    def test_acceptance_by_type_uid(self):
        # accept exactly the nodes whose depth-1 type is that of a sink
        target = full_type(pointed(model([0]), 0), 1)
        aut = type_automaton(V0, accepting=lambda s: s.uid == target.uid)
        chain = model([0, 1], [(1, 0, 1)])
        assert run(aut, pointed(chain, 1), max_rounds=1).accepted
        assert not run(aut, pointed(chain, 0), max_rounds=1).accepted

    def test_cycle_states_agree_everywhere(self):
        m = cycle(5)
        aut = type_automaton(V0)
        config = initial_configuration(aut, m)
        for _ in range(3):
            config = step(aut, m, config)
            assert len({s.uid for s in config.states.values()}) == 1
