import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gradedwl import (
    InternTable,
    KripkeModel,
    NotFullTypeError,
    RenderSizeError,
    Vocabulary,
    check,
    enumerate_full_types,
    full_type,
    modal_depth,
    render_type,
    serialize_type,
    tree_model_of_type,
    type_epsilon,
    type_of_width,
)

from conftest import V0, V1, cycle, model, path3_undirected, pointed


def star(leaves):
    """One center (node 0) pointing at ``leaves`` sinks."""
    return model(range(leaves + 1), [(1, 0, i) for i in range(1, leaves + 1)])


# -- depth-0 and width-indexed types ---------------------------------------


class TestEpsilon:
    def test_atoms_recorded(self):
        m = KripkeModel([0, 1], V1, [], {0: [1]})
        t0 = type_epsilon(pointed(m, 0))
        t1 = type_epsilon(pointed(m, 1))
        assert t0.atoms == frozenset()
        assert t1.atoms == frozenset({0})
        assert t0.uid != t1.uid

    def test_depth_zero_no_channels(self):
        t = type_epsilon(pointed(model([0]), 0))
        assert t.depth == 0 and t.channels == ()


class TestTypeOfWidth:
    def test_threshold_below_degree(self):
        pm = pointed(star(5), 0)
        t = type_of_width(pm, ((2,),))
        profile = t.channels[0]
        assert not profile.exact
        assert len(profile.thresholds) == 1
        assert profile.thresholds[0][1] == 2
        assert profile.total is None
        assert not t.is_full

    def test_exact_above_degree(self):
        pm = pointed(star(5), 0)
        t = type_of_width(pm, ((6,),))
        profile = t.channels[0]
        assert not profile.thresholds
        assert profile.exact[0][1] == 5
        assert profile.total == 5
        assert t.is_full

    def test_stable_past_degree_plus_one(self):
        pm = pointed(star(5), 0)
        uids = {type_of_width(pm, ((k,),)).uid for k in range(6, 10)}
        assert len(uids) == 1

    def test_width_zero_records_nothing(self):
        pm = pointed(star(5), 0)
        t = type_of_width(pm, ((0,),))
        profile = t.channels[0]
        assert not profile.exact and not profile.thresholds
        assert profile.total is None

    def test_two_path_depth_one(self):
        m = model([0, 1], [(1, 0, 1)])
        t = type_of_width(pointed(m, 0), ((2,),))
        (child, n), = t.channels[0].exact
        assert n == 1
        assert child.uid == type_epsilon(pointed(m, 1)).uid

    def test_sibling_types_merged_in_counts(self):
        # two leaves with the same atoms collapse to one entry of count 2
        t = type_of_width(pointed(star(2), 0), ((3,),))
        assert len(t.channels[0].exact) == 1
        assert t.channels[0].exact[0][1] == 2


def above_degrees(m, depth):
    """A finite width vector with every level one above the model's largest
    out-degree on channel 1, so every count is exact and every total set."""
    top = max(len(m.successors(v, 1)) for v in m.domain)
    return ((top + 1,),) * depth


class TestFullType:
    def test_is_full(self):
        for n in range(3):
            assert full_type(pointed(path3_undirected(), 0), n).is_full

    def test_cycle_nodes_share_uid_across_models(self):
        # every node of every cycle looks like every other at any depth
        pms = [pointed(cycle(k), w) for k in (3, 4) for w in range(k)]
        for n in range(4):
            uids = {full_type(pm, n).uid for pm in pms}
            assert len(uids) == 1

    def test_path_endpoint_differs_from_middle(self):
        m = path3_undirected()
        assert full_type(pointed(m, 0), 1).uid != full_type(pointed(m, 1), 1).uid
        assert full_type(pointed(m, 0), 0).uid == full_type(pointed(m, 1), 0).uid

    def test_larger_width_gives_same_descriptor(self):
        pm = pointed(path3_undirected(), 1)
        fw = above_degrees(pm.model, 2)
        bigger = tuple((level[0] + 3,) for level in fw)
        full = full_type(pm, 2)
        assert type_of_width(pm, fw) is full
        assert type_of_width(pm, bigger) is full

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            full_type(pointed(model([0]), 0), -1)

    def test_fresh_tables_get_their_own_descriptors(self):
        # A freed table's address is soon reused, so a memo keyed by the
        # table's id() would hand the next table a descriptor it never made.
        pm = pointed(path3_undirected(), 1)
        for _ in range(50):
            table = InternTable()
            t = full_type(pm, 2, table)
            assert table.by_uid(t.uid) is t
            del table, t


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_full_type_width_independence_random(n_nodes, data):
    edges = []
    for u in range(n_nodes):
        targets = data.draw(st.sets(st.integers(0, n_nodes - 1), max_size=2))
        edges.extend((1, u, v) for v in targets)
    props = data.draw(st.sets(st.integers(0, n_nodes - 1), max_size=n_nodes))
    m = KripkeModel(range(n_nodes), V1, edges, {0: sorted(props)})
    w = data.draw(st.integers(0, n_nodes - 1))
    depth = data.draw(st.integers(0, 3))
    pm = pointed(m, w)
    fw = above_degrees(m, depth)
    padded = tuple((level[0] + data.draw(st.integers(1, 3)),) for level in fw)
    full = full_type(pm, depth)
    assert type_of_width(pm, fw).uid == full.uid
    assert type_of_width(pm, padded).uid == full.uid


def test_deeper_type_refines_shallower():
    m = path3_undirected()
    for n in range(3):
        by_deep = {}
        for w in m.domain:
            deep = full_type(pointed(m, w), n + 1).uid
            shallow = full_type(pointed(m, w), n).uid
            by_deep.setdefault(deep, set()).add(shallow)
        assert all(len(s) == 1 for s in by_deep.values())


# -- rendering -------------------------------------------------------------


class TestRender:
    def test_self_satisfaction(self):
        m = KripkeModel([0, 1, 2], V1, [(1, 0, 1), (1, 0, 2)], {0: [1]})
        for w in m.domain:
            for n in range(3):
                pm = pointed(m, w)
                f = render_type(full_type(pm, n))
                assert check(pm, f)
                assert modal_depth(f) <= n

    def test_separation_soundness(self):
        m = path3_undirected()
        f_end = render_type(full_type(pointed(m, 0), 1))
        assert check(pointed(m, 0), f_end)
        assert not check(pointed(m, 1), f_end)

    def test_partial_type_renders_threshold(self):
        pm = pointed(star(5), 0)
        f = render_type(type_of_width(pm, ((2,),)))
        assert check(pm, f)
        # a 2-leaf star satisfies the threshold formula too
        assert check(pointed(star(2), 0), f)

    def test_size_cap_enforced(self):
        pm = pointed(star(3), 0)
        t = full_type(pm, 1)
        with pytest.raises(RenderSizeError):
            render_type(t, size_cap=2)

    def test_rendered_formula_shared_subterms(self):
        pm = pointed(star(2), 0)
        t = full_type(pm, 1)
        assert render_type(t) is render_type(t)


class TestSerialize:
    def test_depth_zero(self):
        m = KripkeModel([0], V1, [], {0: [0]})
        assert serialize_type(type_epsilon(pointed(m, 0))) == "(type d0 (atoms p0))"

    def test_depth_one_exact(self):
        t = full_type(pointed(model([0, 1], [(1, 0, 1)]), 0), 1)
        assert serialize_type(t) == (
            "(type d1 (atoms) (ch 1 (= 1 (type d0 (atoms))) (total 1)))"
        )

    def test_threshold_form(self):
        t = type_of_width(pointed(star(5), 0), ((2,),))
        assert serialize_type(t) == "(type d1 (atoms) (ch 1 (>= 2 (type d0 (atoms)))))"

    def test_same_serialization_iff_same_uid(self):
        pms = [pointed(cycle(k), 0) for k in (3, 4, 5)]
        descs = [full_type(pm, n) for pm in pms for n in range(3)]
        for a, b in itertools.combinations(descs, 2):
            assert (a.uid == b.uid) == (serialize_type(a) == serialize_type(b))


# -- enumeration and tree realization --------------------------------------


class TestEnumerate:
    def test_depth_zero_counts_atom_subsets(self):
        assert len(list(enumerate_full_types(V0, 0, 2))) == 1
        assert len(list(enumerate_full_types(V1, 0, 2))) == 2

    def test_depth_one_no_props(self):
        # one depth-0 type, successor multisets of size 0, 1, 2
        assert len(list(enumerate_full_types(V0, 1, 2))) == 3

    def test_depth_two_no_props(self):
        # 3 depth-1 types, multisets over them of size <= 2: 1 + 3 + 6
        assert len(list(enumerate_full_types(V0, 2, 2))) == 10

    def test_depth_one_with_prop(self):
        assert len(list(enumerate_full_types(V1, 1, 1))) == 6

    def test_no_duplicates(self):
        uids = [t.uid for t in enumerate_full_types(V1, 2, 2)]
        assert len(uids) == len(set(uids))

    def test_deterministic_order(self):
        t1 = [t.uid for t in enumerate_full_types(V1, 2, 2)]
        t2 = [t.uid for t in enumerate_full_types(V1, 2, 2)]
        assert t1 == t2

    def test_fresh_table_same_serializations(self):
        default = [serialize_type(t) for t in enumerate_full_types(V1, 1, 2)]
        fresh = [serialize_type(t) for t in enumerate_full_types(V1, 1, 2, InternTable())]
        assert default == fresh

    def test_covers_realized_types(self):
        # types of real bounded-degree models all appear in the enumeration
        enumerated = {t.uid for t in enumerate_full_types(V0, 2, 2)}
        m = path3_undirected()
        for w in m.domain:
            assert full_type(pointed(m, w), 2).uid in enumerated


class TestTreeModel:
    def test_roundtrip_depth_two(self):
        for t in enumerate_full_types(V1, 2, 2):
            pm = tree_model_of_type(t)
            assert full_type(pm, 2).uid == t.uid

    def test_root_is_zero(self):
        t = next(iter(enumerate_full_types(V0, 1, 2)))
        assert tree_model_of_type(t).point == 0

    def test_size_matches_entry_counts(self):
        # a type with 2 depth-0 successors realizes as a 3-node tree
        pm = pointed(star(2), 0)
        t = full_type(pm, 1)
        assert len(tree_model_of_type(t).model.domain) == 3

    def test_rejects_partial_type(self):
        t = type_of_width(pointed(star(5), 0), ((2,),))
        with pytest.raises(NotFullTypeError):
            tree_model_of_type(t)

    def test_realizer_satisfies_rendered_formula(self):
        for t in enumerate_full_types(V1, 1, 1):
            pm = tree_model_of_type(t)
            assert check(pm, render_type(t))
