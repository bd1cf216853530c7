"""Graded multimodal types as hash-consed descriptors.

A descriptor canonically encodes a type: the atom profile at the point and,
per channel, how many successors carry each child type.  Counts strictly
below the construction width are stored exactly; counts at or above it are
stored as thresholds; when the width exceeds the out-degree, the exact
successor total is recorded as well.  A *full* type has every count exact
and a recorded total on every channel.

Descriptors are interned: structural identity (after canonical ordering)
implies pointer identity and equal ``uid``.  Interning doubles as the WL
color compression, and a full descriptor does not depend on which
sufficiently large width produced it, which is what makes uids comparable
across models sharing one table.
"""

from __future__ import annotations

import itertools
import threading
import weakref

from .errors import NotFullTypeError, RenderSizeError
from .formulas import (
    TOP,
    And,
    Diamond,
    Not,
    Prop,
    conjoin_all,
    exact_diamond,
)
from .kripke import KripkeModel, PointedModel, max_out_degree

DEFAULT_RENDER_CAP = 10**6


class ChannelProfile:
    """Per-channel successor summary of a descriptor.

    ``exact``      sorted tuple of (child descriptor, exact count >= 1)
    ``thresholds`` sorted tuple of (child descriptor, k) meaning ">= k", k >= 1
    ``total``      exact successor count, recorded when the width exceeded it
    """

    __slots__ = ("exact", "thresholds", "total")

    def __init__(self, exact, thresholds, total):
        self.exact = exact
        self.thresholds = thresholds
        self.total = total

    def key(self):
        return (
            tuple((c.uid, n) for c, n in self.exact),
            tuple((c.uid, k) for c, k in self.thresholds),
            self.total,
        )

    @property
    def is_exact(self):
        return not self.thresholds and self.total is not None


class TypeDescriptor:
    """Interned canonical representation of a graded multimodal type."""

    __slots__ = ("uid", "vocab", "depth", "atoms", "channels", "__weakref__")

    def __init__(self, uid, vocab, depth, atoms, channels):
        self.uid = uid
        self.vocab = vocab
        self.depth = depth
        self.atoms = atoms
        self.channels = channels  # tuple of ChannelProfile, index alpha-1

    @property
    def is_full(self):
        """Whether every per-channel profile is exact at every level."""
        stack = [self]
        while stack:
            t = stack.pop()
            for profile in t.channels:
                if not profile.is_exact:
                    return False
                stack.extend(c for c, _ in profile.exact)
        return True

    def children(self):
        """All (channel, child, count-or-threshold, exact?) entries in order."""
        for alpha, profile in enumerate(self.channels, start=1):
            for child, n in profile.exact:
                yield alpha, child, n, True
            for child, k in profile.thresholds:
                yield alpha, child, k, False

    def __hash__(self):
        return self.uid

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        return f"TypeDescriptor(uid={self.uid}, depth={self.depth})"


class InternTable:
    """Insert-or-get table assigning uids atomically; one per engine."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_key = {}
        self._by_uid = {}
        self._render = {}
        self._sizes = {}
        # model -> {(node, width vector): descriptor}, for type_of_width
        self._width = weakref.WeakKeyDictionary()
        self._next = 0

    def intern(self, vocab, depth, atoms, channels):
        key = (
            vocab,
            depth,
            tuple(sorted(atoms)),
            tuple(p.key() for p in channels),
        )
        found = self._by_key.get(key)
        if found is not None:
            return found
        with self._lock:
            found = self._by_key.get(key)
            if found is not None:
                return found
            t = TypeDescriptor(self._next, vocab, depth, frozenset(atoms), tuple(channels))
            self._next += 1
            self._by_key[key] = t
            self._by_uid[t.uid] = t
            return t

    def by_uid(self, uid):
        return self._by_uid[uid]

    def __len__(self):
        return len(self._by_key)


DEFAULT_TABLE = InternTable()


def _table(table):
    return DEFAULT_TABLE if table is None else table


# -- construction ----------------------------------------------------------


def type_epsilon(pm, table=None):
    """Depth-0 type: the exact atom profile at the point (Top when no atoms)."""
    table = _table(table)
    return table.intern(pm.model.vocab, 0, pm.model.atom_profile(pm.point), ())


def type_of_width(pm, width_vector, table=None):
    """Type of the given width: exact counts below the width, thresholds at
    or above it, and the exact successor total when the width exceeds the
    out-degree."""
    table = _table(table)
    width_vector = tuple(tuple(level) for level in width_vector)
    model = pm.model
    memo = table._width.get(model)
    if memo is None:
        memo = table._width[model] = {}
    return _type_of_width(model, pm.point, width_vector, table, memo)


def _type_of_width(model, w, width_vector, table, memo):
    key = (w, width_vector)
    found = memo.get(key)
    if found is not None:
        return found
    if not width_vector:
        t = table.intern(model.vocab, 0, model.atom_profile(w), ())
        memo[key] = t
        return t
    head, tail = width_vector[0], width_vector[1:]
    profiles = []
    for alpha in range(1, model.vocab.channels + 1):
        k = head[alpha - 1]
        succ = model.successors(w, alpha)
        counts = {}
        for v in succ:
            child = _type_of_width(model, v, tail, table, memo)
            counts[child] = counts.get(child, 0) + 1
        exact = []
        thresholds = []
        if k > 0:
            for child, n in counts.items():
                if n < k:
                    exact.append((child, n))
                else:
                    thresholds.append((child, k))
        total = len(succ) if k > len(succ) else None
        exact.sort(key=lambda e: (e[0].uid, e[1]))
        thresholds.sort(key=lambda e: (e[0].uid, e[1]))
        profiles.append(ChannelProfile(tuple(exact), tuple(thresholds), total))
    t = table.intern(model.vocab, len(width_vector), model.atom_profile(w), profiles)
    memo[key] = t
    return t


def full_width(pm, n):
    """Smallest full width for depth n: level i is one more than the largest
    out-degree among nodes within i-1 hops of the point, per channel."""
    model = pm.model
    levels = []
    reach = {pm.point}
    frontier = [pm.point]
    channels = range(1, model.vocab.channels + 1)
    for _ in range(n):
        levels.append(
            tuple(1 + max_out_degree(model, reach, alpha) for alpha in channels)
        )
        nxt = []
        for u in frontier:
            for alpha in channels:
                for v in model.successors(u, alpha):
                    if v not in reach:
                        reach.add(v)
                        nxt.append(v)
        frontier = nxt
    return tuple(levels)


def full_type(pm, n, table=None):
    """Full type of modal depth n: every successor count is exact."""
    if n < 0:
        raise ValueError("depth must be non-negative")
    return type_of_width(pm, full_width(pm, n), table)


# -- rendering -------------------------------------------------------------


def _rendered_size(t, table):
    cached = table._sizes.get(t.uid)
    if cached is not None:
        return cached
    # depth-0 part
    n_props = len(t.vocab.props)
    if n_props == 0:
        size = 1  # Top
    else:
        # each prop contributes 1 node, negated ones 2; n-1 And nodes
        size = sum(1 if p in t.atoms else 2 for p in t.vocab.props) + (n_props - 1)
    conjuncts = 0
    for alpha, profile in enumerate(t.channels, start=1):
        for child, _ in profile.exact:
            # <a:=n>f  =  (<a:n>f & ~<a:n+1>f): And + 2 Diamond + Not + 2 bodies
            size += 4 + 2 * _rendered_size(child, table)
            conjuncts += 1
        for child, _ in profile.thresholds:
            size += 1 + _rendered_size(child, table)
            conjuncts += 1
        if profile.total is not None:
            size += 4 + 2  # exact diamond over Top
            conjuncts += 1
    size += conjuncts  # And nodes joining depth-0 part with each extra conjunct
    table._sizes[t.uid] = size
    return size


def render_type(t, table=None, size_cap=DEFAULT_RENDER_CAP):
    """The canonical formula of a descriptor (conjuncts in canonical order).

    The result shares subterms for repeated child types, but its expanded
    tree size is checked against ``size_cap`` first.
    """
    table = _table(table)
    size = _rendered_size(t, table)
    if size > size_cap:
        raise RenderSizeError(size, size_cap)
    return _render(t, table)


def _render(t, table):
    cached = table._render.get(t.uid)
    if cached is not None:
        return cached
    if not t.vocab.props:
        base = TOP
    else:
        literals = [
            Prop(p) if p in t.atoms else Not(Prop(p))
            for p in sorted(t.vocab.props)
        ]
        base = conjoin_all(literals)
    conjuncts = [base]
    for alpha, profile in enumerate(t.channels, start=1):
        for child, n in profile.exact:
            conjuncts.append(exact_diamond(alpha, n, _render(child, table)))
        for child, k in profile.thresholds:
            conjuncts.append(Diamond(alpha, k, _render(child, table)))
        if profile.total is not None:
            conjuncts.append(exact_diamond(alpha, profile.total, TOP))
    formula = conjoin_all(conjuncts)
    table._render[t.uid] = formula
    return formula


def serialize_type(t):
    """Canonical nested text form, stable across runs (uids never appear)."""
    atoms = " ".join(f"p{p}" for p in sorted(t.atoms))
    parts = [f"(atoms {atoms})" if atoms else "(atoms)"]
    for alpha, profile in enumerate(t.channels, start=1):
        entries = []
        for child, n in profile.exact:
            entries.append(f"(= {n} {serialize_type(child)})")
        for child, k in profile.thresholds:
            entries.append(f"(>= {k} {serialize_type(child)})")
        if profile.total is not None:
            entries.append(f"(total {profile.total})")
        parts.append(f"(ch {alpha} {' '.join(entries)})" if entries else f"(ch {alpha})")
    return f"(type d{t.depth} {' '.join(parts)})"


# -- enumeration and realization ------------------------------------------


def _multisets_up_to(items, max_size):
    """All multisets over ``items`` of total size <= max_size, smallest first,
    then lexicographic in the given item order.  Yields count tuples."""
    for size in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(range(len(items)), size):
            counts = [0] * len(items)
            for i in combo:
                counts[i] += 1
            yield tuple(counts)


def enumerate_full_types(vocab, n, degree_budget, table=None):
    """Every full type of depth n realized by some model with all relevant
    out-degrees at most ``degree_budget``; deterministic order, no repeats."""
    table = _table(table)
    if n < 0 or degree_budget < 0:
        raise ValueError("depth and degree budget must be non-negative")
    atom_sets = [frozenset(s) for s in _subsets_sorted(vocab.props)]
    level = [table.intern(vocab, 0, atoms, ()) for atoms in atom_sets]
    for depth in range(1, n + 1):
        nxt = []
        channel_options = list(_multisets_up_to(level, degree_budget))
        for atoms in atom_sets:
            for combo in itertools.product(channel_options, repeat=vocab.channels):
                profiles = []
                for counts in combo:
                    exact = tuple(
                        (level[i], c) for i, c in enumerate(counts) if c > 0
                    )
                    exact = tuple(sorted(exact, key=lambda e: (e[0].uid, e[1])))
                    profiles.append(ChannelProfile(exact, (), sum(counts)))
                nxt.append(table.intern(vocab, depth, atoms, profiles))
        level = nxt
    return iter(level)


def _subsets_sorted(props):
    props = sorted(props)
    out = []
    for size in range(len(props) + 1):
        out.extend(itertools.combinations(props, size))
    return out


def tree_model_of_type(t):
    """Smallest tree model whose root realizes a full type.

    Attaches, per channel and child entry, exactly ``count`` copies of the
    recursively built child subtree.  Root is node 0.
    """
    if not t.is_full:
        raise NotFullTypeError("tree realization requires a full type")
    edges = []
    valuation = {p: [] for p in t.vocab.props}
    counter = itertools.count()

    def build(desc):
        node = next(counter)
        for p in desc.atoms:
            valuation[p].append(node)
        for alpha, profile in enumerate(desc.channels, start=1):
            for child, count in profile.exact:
                for _ in range(count):
                    edges.append((alpha, node, build(child)))
        return node

    build(t)
    total = next(counter)
    model = KripkeModel(range(total), t.vocab, edges, valuation)
    return PointedModel(model, 0)
