"""Fixed-point evaluation of the WL pair formula.

This is the second, independent oracle for WL equivalence.  Stage 0 relates
the pairs of nodes that agree on every proposition.  A pair (x, y) survives
a stage when it survived the previous stage and, on every channel and for
every z, x has as many successors related to z as y has.  The surviving
relation shrinks until it stops; the greatest fixed point relates exactly
the WL-equivalent pairs, evaluated on the disjoint union of the two models.
Models with any number of channels are supported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .kripke import pointed_union


@dataclass(frozen=True)
class PairRelation:
    """A binary relation over a model's domain at some iteration stage."""

    pairs: frozenset
    stage: int


def atom_agreement(model):
    """Stage-0 relation: the ordered pairs that carry the same propositions."""
    atoms = {w: model.atom_profile(w) for w in model.domain}
    return PairRelation(
        frozenset((x, y) for x in model.domain for y in model.domain if atoms[x] == atoms[y]),
        0,
    )


def phi_wl_step(model, relation):
    """One stage: keep (x, y) when, on every channel alpha and for every z,
    the number of alpha-successors of x related to z equals the number of
    alpha-successors of y related to z.  This is Härtig's equicardinality
    quantifier applied to the two successor sets."""
    related = {w: [] for w in model.domain}
    for v, z in relation.pairs:
        related[v].append(z)
    channels = range(1, model.vocab.channels + 1)
    counts = {
        x: tuple(Counter(z for v in model.successors(x, alpha) for z in related[v])
                 for alpha in channels)
        for x in model.domain
    }
    survivors = frozenset((x, y) for x, y in relation.pairs if counts[x] == counts[y])
    return PairRelation(survivors, relation.stage + 1)


def stage_relations(model):
    """The antitone chain of stage relations, lazily, ending at the fixed
    point: the last relation yielded is the first that one more stage leaves
    unchanged."""
    current = atom_agreement(model)
    while True:
        yield current
        nxt = phi_wl_step(model, current)
        if nxt.pairs == current.pairs:
            return
        current = nxt


def phi_wl_fixpoint(model):
    """Iterate from atom agreement until the relation stops shrinking.

    Returns ``(fixpoint, stages)`` where ``stages`` is the first stage whose
    relation equals its successor's.
    """
    for relation in stage_relations(model):
        pass
    return relation, relation.stage


def wl_equivalent_via_gfp(pm1, pm2):
    """Whether the two points are WL-equivalent, by the fixed point on the
    disjoint union."""
    union, a, b = pointed_union(pm1, pm2)
    fixpoint, _ = phi_wl_fixpoint(union)
    return (a, b) in fixpoint.pairs


def stagewise_agreement(pm1, pm2, t):
    """Whether the renamed pair survives stage t on the disjoint union.

    Past the fixed point the relation no longer changes, so large t answers
    the same as :func:`wl_equivalent_via_gfp`.
    """
    if t < 0:
        raise ValueError("stage must be non-negative")
    union, a, b = pointed_union(pm1, pm2)
    for relation in stage_relations(union):
        if relation.stage == t:
            break
    return (a, b) in relation.pairs
