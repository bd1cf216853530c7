import pytest

from gradedwl import KripkeModel, PointedModel, Vocabulary

V0 = Vocabulary(frozenset(), 1)
V1 = Vocabulary(frozenset({0}), 1)
V2 = Vocabulary(frozenset({0, 1}), 1)


def model(nodes, edges=(), vocab=V0, valuation=None):
    return KripkeModel(nodes, vocab, edges, valuation)


def path3_undirected(vocab=V0):
    """0 - 1 - 2 with symmetric edges."""
    return model([0, 1, 2], [(1, 0, 1), (1, 1, 0), (1, 1, 2), (1, 2, 1)], vocab)


def cycle(n, vocab=V0):
    """Undirected n-cycle (symmetric, irreflexive)."""
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(1, i, j), (1, j, i)]
    return model(range(n), edges, vocab)


def pointed(m, w):
    return PointedModel(m, w)
