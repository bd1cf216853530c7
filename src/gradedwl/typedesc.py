"""Graded multimodal types as hash-consed descriptors.

A descriptor canonically encodes a type: the atom profile at the point and,
per channel, how many successors carry each child type.  Counts strictly
below the construction width are stored exactly; counts at or above it are
stored as thresholds; when the width exceeds the out-degree, the exact
successor total is recorded as well.  ``profile_of`` is the one place that
turns successor counts into such a channel profile.

A *full* type has every count exact and a recorded total on every channel:
it is the type of unbounded width (``math.inf`` on every level), so
``full_type`` needs no search for a large enough width.

Descriptors are interned: structural identity (after canonical ordering)
implies pointer identity and equal ``uid``.  Interning doubles as the WL
color compression, and a full descriptor does not depend on which
sufficiently large width produced it, which is what makes uids comparable
across models sharing one table.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from typing import NamedTuple

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
from .kripke import KripkeModel, PointedModel

DEFAULT_RENDER_CAP = 10**6


class ChannelProfile(NamedTuple):
    """Per-channel successor summary of a descriptor.

    ``exact``      sorted tuple of (child descriptor, exact count >= 1)
    ``thresholds`` sorted tuple of (child descriptor, k) meaning ">= k", k >= 1
    ``total``      exact successor count, recorded when the width exceeded it

    Child descriptors hash by uid and compare by identity, so a profile is
    its own intern key.
    """

    exact: tuple
    thresholds: tuple
    total: int | None

    @property
    def is_exact(self):
        return not self.thresholds and self.total is not None


def _by_child_uid(entry):
    return entry[0].uid


def profile_of(counts, width=math.inf):
    """The channel profile of the successor counts ``{child: n}`` at one
    width: exact entries below ``width``, ``>= width`` thresholds at or above
    it, and the successor total when ``width`` exceeds it.  Width 0 records
    nothing."""
    exact = []
    thresholds = []
    total = 0
    for child, n in counts.items():
        total += n
        if n < width:
            exact.append((child, n))
        elif width > 0:
            thresholds.append((child, width))
    exact.sort(key=_by_child_uid)
    thresholds.sort(key=_by_child_uid)
    return ChannelProfile(tuple(exact), tuple(thresholds), total if width > total else None)


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
        key = (vocab, depth, frozenset(atoms), tuple(channels))
        found = self._by_key.get(key)
        if found is not None:
            return found
        with self._lock:
            found = self._by_key.get(key)
            if found is not None:
                return found
            t = TypeDescriptor(self._next, vocab, depth, key[2], key[3])
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
    out-degree.  A level entry of ``math.inf`` means unbounded: every count
    on that channel is exact and its total is recorded."""
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
        counts = {}
        for v in model.successors(w, alpha):
            child = _type_of_width(model, v, tail, table, memo)
            counts[child] = counts.get(child, 0) + 1
        profiles.append(profile_of(counts, head[alpha - 1]))
    t = table.intern(model.vocab, len(width_vector), model.atom_profile(w), profiles)
    memo[key] = t
    return t


def full_type(pm, n, table=None):
    """Full type of modal depth n: the type of unbounded width, so every
    successor count is exact and every total recorded."""
    if n < 0:
        raise ValueError("depth must be non-negative")
    unbounded = (math.inf,) * pm.model.vocab.channels
    return type_of_width(pm, (unbounded,) * n, table)


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
                profiles = [
                    profile_of({level[i]: c for i, c in enumerate(counts) if c > 0})
                    for counts in combo
                ]
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
