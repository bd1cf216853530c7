import itertools

import pytest

from gradedwl import (
    KripkeModel,
    Vocabulary,
    disjoint_union,
    phi_wl_fixpoint,
    phi_wl_step,
    refine_to_stable,
    stagewise_agreement,
    wl_equivalent_via_gfp,
)
from gradedwl.gfp import atom_agreement, stage_relations

from conftest import V1, cycle, model, path3_undirected, pointed


class TestFullSquare:
    """Without propositions, stage 0 (atom agreement) is the full square."""

    def test_all_pairs(self):
        r = atom_agreement(model([0, 1]))
        assert r.pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert r.stage == 0


class TestStep:
    def test_regular_graph_full_square_survives(self):
        m = cycle(5)
        r = phi_wl_step(m, atom_agreement(m))
        assert r.pairs == atom_agreement(m).pairs
        assert r.stage == 1

    def test_edgeless_full_square_survives(self):
        m = model([0, 1, 2])
        r = phi_wl_step(m, atom_agreement(m))
        assert r.pairs == atom_agreement(m).pairs

    def test_degree_mismatch_dropped(self):
        # 3-path plus isolated node: stage 1 keeps pairs of equal degree
        u, _, map2 = disjoint_union(path3_undirected(), model([0]))
        iso = map2[0]
        r = phi_wl_step(u, atom_agreement(u))
        degrees = {w: len(u.successors(w, 1)) for w in u.domain}
        expected = {(x, y) for x in u.domain for y in u.domain
                    if degrees[x] == degrees[y]}
        assert r.pairs == expected
        assert (iso, 1) not in r.pairs

    def test_antitone(self):
        m = path3_undirected()
        r0 = atom_agreement(m)
        r1 = phi_wl_step(m, r0)
        r2 = phi_wl_step(m, r1)
        assert r2.pairs <= r1.pairs <= r0.pairs


class TestFixpoint:
    def test_single_node_stage_zero(self):
        fix, stages = phi_wl_fixpoint(model([0]))
        assert stages == 0
        assert fix.pairs == {(0, 0)}

    def test_triangle_square_union_full(self):
        u, _, _ = disjoint_union(cycle(3), cycle(4))
        fix, _ = phi_wl_fixpoint(u)
        assert fix.pairs == atom_agreement(u).pairs

    def test_path_classes(self):
        m = path3_undirected()
        fix, _ = phi_wl_fixpoint(m)
        assert fix.pairs == {(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)}

    def test_fixpoint_is_fixed(self):
        m = model(range(5), [(1, i, i + 1) for i in range(4)])
        fix, _ = phi_wl_fixpoint(m)
        assert phi_wl_step(m, fix).pairs == fix.pairs

    def test_fixpoint_is_equivalence_relation(self):
        m, _, _ = disjoint_union(path3_undirected(),
                                 model([0, 1, 2], [(1, 0, 1), (1, 1, 0)]))
        fix, _ = phi_wl_fixpoint(m)
        nodes = m.domain
        assert all((x, x) in fix.pairs for x in nodes)
        assert all((y, x) in fix.pairs for x, y in fix.pairs)
        for x, y in fix.pairs:
            for y2, z in fix.pairs:
                if y2 == y:
                    assert (x, z) in fix.pairs

    def test_chain_is_antitone_and_ends_at_fixpoint(self):
        m = model(range(5), [(1, i, i + 1) for i in range(4)])
        chain = list(stage_relations(m))
        for a, b in zip(chain, chain[1:]):
            assert b.pairs < a.pairs
        fix, stages = phi_wl_fixpoint(m)
        assert chain[-1].pairs == fix.pairs
        assert chain[-1].stage == stages


class TestEquivalenceOracle:
    def test_cycles_equivalent(self):
        assert wl_equivalent_via_gfp(pointed(cycle(3), 0), pointed(cycle(4), 0))

    def test_path_points_inequivalent(self):
        m = path3_undirected()
        assert not wl_equivalent_via_gfp(pointed(m, 0), pointed(m, 1))

    def test_agrees_with_refinement_oracle(self):
        pms = [pointed(path3_undirected(), w) for w in range(3)]
        pms += [pointed(cycle(3), 0), pointed(cycle(4), 0), pointed(model([0]), 0)]
        for pm1, pm2 in itertools.combinations(pms, 2):
            union, map1, map2 = disjoint_union(pm1.model, pm2.model)
            stable = refine_to_stable(union)
            wl_eq = (stable.coloring.colors[map1[pm1.point]]
                     == stable.coloring.colors[map2[pm2.point]])
            assert wl_eq == wl_equivalent_via_gfp(pm1, pm2)

    def test_agrees_with_refinement_on_two_channels_with_p0(self):
        # Nodes 0 and 3 see one p0 node on channel 1 and none on channel 2;
        # nodes 1 and 4 carry p0 but differ in their channel-2 successors.
        vocab = Vocabulary(frozenset({0}), 2)
        m = KripkeModel(range(6), vocab,
                        [(1, 0, 1), (2, 1, 2), (1, 3, 4), (2, 4, 4), (1, 2, 5)],
                        {0: [1, 4, 5]})
        stable = refine_to_stable(m)
        fix, _ = phi_wl_fixpoint(m)
        colors = stable.coloring.colors
        assert fix.pairs == {(x, y) for x in m.domain for y in m.domain
                             if colors[x] == colors[y]}
        assert not wl_equivalent_via_gfp(pointed(m, 0), pointed(m, 3))


class TestStagewise:
    def test_stage_zero_always_related(self):
        m = path3_undirected()
        assert stagewise_agreement(pointed(m, 0), pointed(m, 1), 0)

    def test_atoms_separate_at_stage_zero(self):
        m = model([0, 1], vocab=V1, valuation={0: [0]})
        assert not stagewise_agreement(pointed(m, 0), pointed(m, 1), 0)
        assert not wl_equivalent_via_gfp(pointed(m, 0), pointed(m, 1))

    def test_separation_stage(self):
        m = path3_undirected()
        assert not stagewise_agreement(pointed(m, 0), pointed(m, 1), 1)

    def test_large_stage_matches_fixpoint(self):
        pairs = [
            (pointed(cycle(3), 0), pointed(cycle(4), 0)),
            (pointed(path3_undirected(), 0), pointed(path3_undirected(), 1)),
        ]
        for pm1, pm2 in pairs:
            assert stagewise_agreement(pm1, pm2, 50) == wl_equivalent_via_gfp(pm1, pm2)

    def test_negative_stage_rejected(self):
        with pytest.raises(ValueError):
            stagewise_agreement(pointed(model([0]), 0), pointed(model([0]), 0), -1)
