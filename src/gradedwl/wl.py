"""Weisfeiler-Leman color refinement as the interned view of type automata.

A node's color at round t is the uid of its depth-t type descriptor, so the
state/type correspondence holds by construction and there is no hashing
scheme to collide.  Cross-model questions always go through an explicit
disjoint union: the union is the semantics of record, the shared intern
table only an optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelDomainError, VocabularyError
from .formulas import Formula
from .kripke import pointed_union
from . import automaton as automaton_mod
from . import typedesc


@dataclass
class Coloring:
    """Node colors at one refinement round; colors are descriptor uids."""

    round: int
    colors: dict

    def partition(self):
        """Equivalence classes induced by the color map, canonically ordered."""
        classes = {}
        for node, color in self.colors.items():
            classes.setdefault(color, []).append(node)
        return tuple(
            frozenset(ns)
            for ns in sorted(sorted(c) for c in classes.values())
        )

    def class_count(self):
        return len(set(self.colors.values()))


@dataclass
class StableColoring:
    coloring: Coloring
    stable_at: int
    history: list  # Coloring per round, 0..stable_at


def initial_coloring(model, table=None):
    """Round-0 coloring: depth-0 types (atom profiles)."""
    aut = automaton_mod.type_automaton(model.vocab, table)
    config = automaton_mod.initial_configuration(aut, model)
    return Coloring(0, {w: s.uid for w, s in config.states.items()})


def refine_round(model, coloring, table=None):
    """One refinement round via the type-automaton transition.

    The new color of a node is the uid of the descriptor built from its
    previous descriptor and the per-channel multisets of successor colors;
    injectivity of the recoloring is inherited from interning.
    """
    table = typedesc.DEFAULT_TABLE if table is None else table
    aut = automaton_mod.type_automaton(model.vocab, table)
    config = automaton_mod.Configuration(
        coloring.round, {w: table.by_uid(c) for w, c in coloring.colors.items()}
    )
    nxt = automaton_mod.step(aut, model, config)
    return Coloring(nxt.round, {w: s.uid for w, s in nxt.states.items()})


def refine_to_stable(model, table=None):
    """Iterate refinement until the induced partition stops changing.

    Stops immediately when the partition is discrete; otherwise the reported
    round is the one confirming the previous round's partition.  The round
    is at most the domain size.
    """
    current = initial_coloring(model, table)
    history = [current]
    prev_partition = current.partition()
    if all(len(c) == 1 for c in prev_partition):
        return StableColoring(current, 0, history)
    while True:
        current = refine_round(model, current, table)
        history.append(current)
        partition = current.partition()
        if partition == prev_partition or all(len(c) == 1 for c in partition):
            return StableColoring(current, current.round, history)
        prev_partition = partition


@dataclass
class DistinguishResult:
    equivalent: bool
    separated_at: int = None
    union: object = None
    union_points: tuple = None


def distinguish(pm1, pm2, table=None):
    """Compare two points through the stable coloring of the disjoint union.

    Reports the first round at which the colors diverge, if any.
    """
    union, a, b = pointed_union(pm1, pm2)
    stable = refine_to_stable(union, table)
    for coloring in stable.history:
        if coloring.colors[a] != coloring.colors[b]:
            return DistinguishResult(False, coloring.round, union, (a, b))
    return DistinguishResult(True, None, union, (a, b))


def distinguishing_formula(pm1, pm2, table=None, size_cap=typedesc.DEFAULT_RENDER_CAP):
    """A formula true at pm1 and false at pm2, or None when equivalent.

    Renders the first model's full type at the separating round; by the
    color/type correspondence the result separates the pair.
    """
    result = distinguish(pm1, pm2, table)
    if result.equivalent:
        return None
    t = typedesc.full_type(pm1, result.separated_at, table)
    return typedesc.render_type(t, table, size_cap)


def classic_wl(model, table=None):
    """Classical color refinement: one channel, symmetric irreflexive edges,
    empty vocabulary.  Validates the preconditions, then delegates."""
    if model.vocab.channels != 1:
        raise VocabularyError("classic WL requires exactly one channel")
    if model.vocab.props:
        raise VocabularyError("classic WL requires an empty proposition set")
    for u in model.domain:
        for v in model.successors(u, 1):
            if u == v:
                raise ModelDomainError(f"classic WL forbids the self-loop ({u},{u})")
            if u not in model.successors(v, 1):
                raise ModelDomainError(
                    f"classic WL requires symmetry: ({u},{v}) present, ({v},{u}) missing"
                )
    return refine_to_stable(model, table)
