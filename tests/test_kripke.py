import itertools

import pytest

from gradedwl import (
    KripkeModel,
    ModelDomainError,
    Multiset,
    PointedModel,
    Vocabulary,
    VocabularyError,
    disjoint_union,
)

from conftest import V0, V1, model


class TestSuccessors:
    def test_direct(self):
        m = model([1, 2, 3], [(1, 1, 2), (1, 1, 3)])
        assert set(m.successors(1, 1)) == {2, 3}

    def test_no_successors(self):
        m = model([1, 2], [(1, 1, 2)])
        assert m.successors(2, 1) == ()

    def test_self_loop(self):
        m = model([1], [(1, 1, 1)])
        assert set(m.successors(1, 1)) == {1}

    def test_unknown_node(self):
        m = model([1])
        with pytest.raises(ModelDomainError):
            m.successors(9, 1)

    def test_unknown_channel(self):
        m = model([1])
        with pytest.raises(VocabularyError):
            m.successors(1, 2)

    def test_degree_sum_equals_relation_size(self):
        m = model([0, 1, 2], [(1, 0, 1), (1, 0, 2), (1, 2, 0)])
        total = sum(len(m.successors(w, 1)) for w in m.domain)
        assert total == len(m.relation(1)) == 3


class TestModelValidation:
    def test_empty_domain_rejected(self):
        with pytest.raises(ModelDomainError):
            model([])

    def test_edge_outside_domain_rejected(self):
        with pytest.raises(ModelDomainError):
            model([0], [(1, 0, 5)])

    def test_valuation_outside_domain_rejected(self):
        with pytest.raises(ModelDomainError):
            KripkeModel([0], V1, [], {0: [7]})

    def test_immutable(self):
        m = model([0])
        with pytest.raises(AttributeError):
            m.domain = (1,)


def _isomorphic(m1, nodes1, m2, nodes2):
    """Brute-force bijection search between two induced submodels."""
    if len(nodes1) != len(nodes2):
        return False
    nodes1, nodes2 = sorted(nodes1), sorted(nodes2)
    for perm in itertools.permutations(nodes2):
        bij = dict(zip(nodes1, perm))
        ok = True
        for alpha in range(1, m1.vocab.channels + 1):
            pairs1 = {(bij[u], bij[v]) for u, v in m1.relation(alpha)
                      if u in bij and v in bij}
            pairs2 = {(u, v) for u, v in m2.relation(alpha)
                      if u in set(nodes2) and v in set(nodes2)}
            if pairs1 != pairs2:
                ok = False
                break
        if ok:
            return True
    return False


class TestDisjointUnion:
    def test_two_singletons(self):
        u, _, _ = disjoint_union(model([0]), model([5]))
        assert len(u.domain) == 2
        assert not u.relation(1)

    def test_cardinalities_add(self):
        m1 = model([0, 1], [(1, 0, 1)])
        m2 = model([0, 1, 2], [(1, 0, 1), (1, 1, 2)])
        u, _, _ = disjoint_union(m1, m2)
        assert len(u.domain) == 5
        assert len(u.relation(1)) == 3

    def test_self_union_components_isomorphic(self):
        m = model([0, 1, 2], [(1, 0, 1), (1, 1, 2), (1, 2, 0)])
        u, map1, map2 = disjoint_union(m, m)
        assert _isomorphic(u, list(map1.values()), u, list(map2.values()))

    def test_renaming_maps_disjoint_injective(self):
        m1 = model([3, 7])
        m2 = model([3])
        u, map1, map2 = disjoint_union(m1, m2)
        images = list(map1.values()) + list(map2.values())
        assert len(set(images)) == len(images)
        assert set(images) == set(u.domain)

    def test_vocabulary_mismatch(self):
        with pytest.raises(VocabularyError):
            disjoint_union(model([0]), model([0], vocab=V1))

    def test_valuations_carried(self):
        m1 = KripkeModel([0], V1, [], {0: [0]})
        m2 = KripkeModel([0], V1, [], {})
        u, map1, map2 = disjoint_union(m1, m2)
        assert u.valuation(0) == frozenset({map1[0]})


class TestMultiset:
    def test_membership_levels(self):
        ms = Multiset([1, 1, 2])
        assert ms.contains_at_least(1, 2)
        assert not ms.contains_at_least(1, 3)
        assert ms.contains_at_least(2, 1)
        assert not ms.contains_at_least(2, 2)
        assert not ms.contains_at_least(0, 1)

    def test_level_zero_always_holds(self):
        ms = Multiset()
        assert ms.contains_at_least("anything", 0)

    def test_length_and_equality(self):
        assert len(Multiset([1, 1, 2])) == 3
        assert Multiset([2, 1, 1]) == Multiset([1, 2, 1])
        assert Multiset([1, 2]) != Multiset([1, 1, 2])

    def test_positive_counts_enforced(self):
        with pytest.raises(ValueError):
            Multiset.from_counts({1: 0})


def test_pointed_model_validates_point():
    with pytest.raises(ModelDomainError):
        PointedModel(model([0]), 3)
