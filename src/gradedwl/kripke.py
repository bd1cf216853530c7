"""Finite multi-relational Kripke models and multisets.

A model is a finite domain of integer node ids, one directed accessibility
relation per channel 1..a, and a valuation mapping proposition indices to
node sets.  Models are immutable after construction; every other module
reads them through the accessors here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelDomainError, VocabularyError


@dataclass(frozen=True)
class Vocabulary:
    """A finite proposition set plus the channel count a (channels are 1..a)."""

    props: frozenset
    channels: int

    def __post_init__(self):
        if self.channels < 1:
            raise VocabularyError("channel count must be at least 1")
        if any((not isinstance(p, int)) or p < 0 for p in self.props):
            raise VocabularyError("proposition indices must be non-negative integers")

    def check_prop(self, index):
        if index not in self.props:
            raise VocabularyError(f"proposition p{index} is not in the vocabulary")

    def check_channel(self, alpha):
        if not 1 <= alpha <= self.channels:
            raise VocabularyError(f"channel {alpha} is not in 1..{self.channels}")

    def describe(self):
        props = ",".join(f"p{i}" for i in sorted(self.props)) or "-"
        return f"props={{{props}}} channels={self.channels}"


class KripkeModel:
    """Immutable finite Kripke model over a :class:`Vocabulary`.

    ``edges`` is an iterable of ``(alpha, u, v)`` triples meaning ``(u, v)``
    is in the relation of channel ``alpha``.  ``valuation`` maps proposition
    index to an iterable of nodes.
    """

    __slots__ = ("vocab", "domain", "_nodes", "_succ", "_valuation", "_atom_cache", "__weakref__")

    def __init__(self, nodes, vocab, edges=(), valuation=None):
        domain = tuple(sorted(set(nodes)))
        if not domain:
            raise ModelDomainError("the domain must be non-empty")
        if any((not isinstance(w, int)) or w < 0 for w in domain):
            raise ModelDomainError("node identifiers must be non-negative integers")
        node_set = frozenset(domain)
        succ = {alpha: {w: [] for w in domain} for alpha in range(1, vocab.channels + 1)}
        for alpha, u, v in edges:
            vocab.check_channel(alpha)
            if u not in node_set or v not in node_set:
                raise ModelDomainError(f"edge ({alpha},{u},{v}) has an endpoint outside the domain")
            succ[alpha][u].append(v)
        for table in succ.values():
            for w, vs in table.items():
                table[w] = tuple(sorted(set(vs)))
        val = {}
        if valuation:
            for p, ws in valuation.items():
                vocab.check_prop(p)
                ws = frozenset(ws)
                if not ws <= node_set:
                    raise ModelDomainError(f"valuation of p{p} leaves the domain")
                val[p] = ws
        for p in vocab.props:
            val.setdefault(p, frozenset())
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_nodes", node_set)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_valuation", val)
        object.__setattr__(self, "_atom_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("KripkeModel is immutable")

    # -- accessors ---------------------------------------------------------

    def successors(self, w, alpha):
        """The alpha-neighbors of w, as a sorted tuple of distinct nodes."""
        try:
            table = self._succ[alpha]
        except KeyError:
            raise VocabularyError(f"channel {alpha} is not in 1..{self.vocab.channels}") from None
        try:
            return table[w]
        except KeyError:
            raise ModelDomainError(f"node {w} is not in the domain") from None

    def valuation(self, p):
        """The set of nodes where proposition p holds."""
        self.vocab.check_prop(p)
        return self._valuation[p]

    def atom_profile(self, w):
        """The set of propositions true at node w."""
        cached = self._atom_cache.get(w)
        if cached is not None:
            return cached
        if w not in self._nodes:
            raise ModelDomainError(f"node {w} is not in the domain")
        profile = frozenset(p for p, ws in self._valuation.items() if w in ws)
        self._atom_cache[w] = profile
        return profile

    def relation(self, alpha):
        """The relation of channel alpha as a frozenset of ordered pairs."""
        self.vocab.check_channel(alpha)
        return frozenset((u, v) for u, vs in self._succ[alpha].items() for v in vs)

    def edge_triples(self):
        """All edges as sorted (alpha, u, v) triples."""
        return [
            (alpha, u, v)
            for alpha in range(1, self.vocab.channels + 1)
            for u in self.domain
            for v in self._succ[alpha][u]
        ]

    def __repr__(self):
        edges = sum(len(vs) for t in self._succ.values() for vs in t.values())
        return f"KripkeModel(|W|={len(self.domain)}, {self.vocab.describe()}, |R|={edges})"


@dataclass(frozen=True)
class PointedModel:
    """A model with a distinguished point."""

    model: KripkeModel
    point: int

    def __post_init__(self):
        if self.point not in self.model._nodes:
            raise ModelDomainError(f"point {self.point} is not in the domain")


class Multiset:
    """Multiset with positive multiplicities; supports at-least-k membership."""

    __slots__ = ("_counts", "_key")

    def __init__(self, items=()):
        counts = {}
        for x in items:
            counts[x] = counts.get(x, 0) + 1
        self._counts = counts
        self._key = None

    @classmethod
    def from_counts(cls, counts):
        ms = cls()
        for x, c in counts.items():
            if c < 1:
                raise ValueError("multiplicities must be positive")
            ms._counts[x] = c
        return ms

    def count(self, x):
        return self._counts.get(x, 0)

    def contains_at_least(self, x, k):
        """Whether x appears at least k times; always true for k = 0."""
        return k <= 0 or self._counts.get(x, 0) >= k

    def items(self):
        return self._counts.items()

    def sorted_items(self):
        return sorted(self._counts.items())

    def __len__(self):
        return sum(self._counts.values())

    def __iter__(self):
        for x, c in self._counts.items():
            for _ in range(c):
                yield x

    def __eq__(self, other):
        return isinstance(other, Multiset) and self._counts == other._counts

    def __hash__(self):
        if self._key is None:
            self._key = tuple(sorted(self._counts.items(), key=lambda kv: (repr(kv[0]), kv[1])))
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{x}:{c}" for x, c in self._counts.items())
        return f"Multiset({{{inner}}})"


# -- structural operations -------------------------------------------------


def disjoint_union(m1, m2):
    """Disjoint union of two models over the same vocabulary.

    Both models are renamed onto a fresh contiguous domain: m1's nodes map
    (in sorted order) to 0..|W1|-1 and m2's to |W1|..|W1|+|W2|-1.  Returns
    ``(union, map1, map2)`` where the maps send original to renamed nodes.
    """
    if m1.vocab != m2.vocab:
        raise VocabularyError(
            f"vocabulary mismatch: {m1.vocab.describe()} vs {m2.vocab.describe()}"
        )
    map1 = {w: i for i, w in enumerate(m1.domain)}
    offset = len(m1.domain)
    map2 = {w: offset + i for i, w in enumerate(m2.domain)}
    edges = [(a, map1[u], map1[v]) for a, u, v in m1.edge_triples()]
    edges += [(a, map2[u], map2[v]) for a, u, v in m2.edge_triples()]
    valuation = {
        p: [map1[w] for w in m1.valuation(p)] + [map2[w] for w in m2.valuation(p)]
        for p in m1.vocab.props
    }
    union = KripkeModel(range(offset + len(m2.domain)), m1.vocab, edges, valuation)
    return union, map1, map2


def pointed_union(pm1, pm2):
    """The disjoint union of two pointed models' models, with both points
    renamed into it: ``(union, a, b)``."""
    union, map1, map2 = disjoint_union(pm1.model, pm2.model)
    return union, map1[pm1.point], map2[pm2.point]
