"""Counting multichannel message-passing automata and their execution.

An automaton is an initializer over proposition subsets, a deterministic
transition over (one multiset of neighbor states per channel, own state),
and an accepting-state test given either as a membership predicate or as an
enumerator (for recursively enumerable accepting sets).  Execution is
synchronous: every node reads only round-t states when computing round t+1,
and messages travel against the edge direction, i.e. a node hears from its
successors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import ModelDomainError, TransitionError, VocabularyError
from .kripke import Multiset
from . import typedesc


@dataclass
class AutomatonSpec:
    """Executable automaton: callbacks plus an accepting-state test.

    ``accepting`` is a predicate over states, or None.  For recursively
    enumerable accepting sets supply ``accepting_enumerator``, a zero-argument
    factory returning a fresh iterator of accepting states on each call.
    """

    vocab: object
    initializer: object
    transition: object
    accepting: object = None
    accepting_enumerator: object = None
    name: str = "automaton"


@dataclass
class Configuration:
    """Global configuration: the state of every node at one round."""

    round: int
    states: dict


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    NOT_WITHIN_BUDGET = "not_accepted_within_budget"


@dataclass
class RunResult:
    """A point's verdict, accepting round and per-round states.

    ``enum_budget_reached`` marks a verdict other than acceptance that the
    enumeration budget cut short while the accepting stream had more items.
    """

    verdict: Verdict
    round: int = None
    trace: list = field(default_factory=list)
    enum_budget_reached: bool = False

    @property
    def accepted(self):
        return self.verdict is Verdict.ACCEPTED


def initial_configuration(automaton, model):
    """Round-0 configuration: every node through the initializer on its atoms."""
    if automaton.vocab != model.vocab:
        raise VocabularyError(
            f"automaton vocabulary {automaton.vocab.describe()} does not match "
            f"model vocabulary {model.vocab.describe()}"
        )
    init = automaton.initializer
    return Configuration(0, {w: init(model.atom_profile(w)) for w in model.domain})


def step(automaton, model, config):
    """One synchronous round: all nodes read round-t states only."""
    states = config.states
    delta = automaton.transition
    channels = range(1, model.vocab.channels + 1)
    nxt = {}
    for w in model.domain:
        multisets = tuple(
            Multiset(states[v] for v in model.successors(w, alpha))
            for alpha in channels
        )
        try:
            nxt[w] = delta(multisets, states[w])
        except TransitionError as exc:
            raise TransitionError(str(exc), node=w) from exc
    return Configuration(config.round + 1, nxt)


def run_points(automaton, model, points, max_rounds, enum_budget=10000):
    """Run once over ``model`` and return ``{point: RunResult}`` for ``points``.

    Every round steps the whole model, as the paper's configuration does,
    and each requested point keeps its own trace; stepping stops once every
    point has a verdict.  Each result equals :func:`run` at that point alone.

    With a predicate accepting set, each round's point states are tested as
    they appear.  With an enumerator, round advancement and enumeration are
    dovetailed (one of each per step) until every point accepts or both
    budgets run out; acceptance reports the earliest accepting round
    discovered.  A result that is not accepted has ``enum_budget_reached``
    set when enumeration stopped on ``enum_budget`` before the stream ended.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    config = initial_configuration(automaton, model)
    pending = {}  # point -> trace, until the point has a verdict
    for p in points:
        if p not in config.states:
            raise ModelDomainError(f"point {p} is not in the domain")
        pending[p] = [config.states[p]]
    results = {}
    accepting = automaton.accepting
    enumerator = automaton.accepting_enumerator
    enumerated, pulled = set(), 0
    stream_open = enumerator is not None
    if stream_open:
        iterator = iter(enumerator())
    while True:
        for p, trace in list(pending.items()):
            if enumerator is not None:
                hit = next((t for t, s in enumerate(trace) if s in enumerated), None)
            elif accepting is not None and accepting(trace[-1]):
                hit = config.round
            else:
                hit = None
            if hit is not None:
                results[p] = RunResult(Verdict.ACCEPTED, hit, pending.pop(p))
        if not pending:
            break
        progressed = False
        if config.round < max_rounds:
            config = step(automaton, model, config)
            for p, trace in pending.items():
                trace.append(config.states[p])
            progressed = True
        if stream_open and pulled < enum_budget:
            try:
                enumerated.add(next(iterator))
                pulled += 1
                progressed = True
            except StopIteration:
                stream_open = False
        if not progressed:
            break
    for p, trace in pending.items():
        results[p] = RunResult(Verdict.NOT_WITHIN_BUDGET, None, trace, stream_open)
    return results


def run(automaton, pm, max_rounds, enum_budget=10000):
    """Run at the pointed model; acceptance is a budget-relative semidecision.

    This is :func:`run_points` at the one point ``pm.point``.
    """
    return run_points(automaton, pm.model, (pm.point,), max_rounds, enum_budget)[pm.point]


# -- the counting multichannel type automaton ------------------------------


def type_automaton(vocab, table=None, accepting=None, accepting_enumerator=None):
    """The automaton whose states are type descriptors.

    The round-0 state of a node is its depth-0 type; the transition builds
    the depth-(n+1) descriptor from the per-channel multisets of depth-n
    descriptors (multiplicities become exact counts, multiset sizes become
    the recorded totals) and the previous state's atom profile.  Inputs with
    mismatched depths are rejected.
    """
    table = typedesc.DEFAULT_TABLE if table is None else table

    def init(atoms):
        return table.intern(vocab, 0, atoms, ())

    def delta(multisets, prev):
        if not isinstance(prev, typedesc.TypeDescriptor):
            raise TransitionError("type automaton states must be type descriptors")
        depth = prev.depth
        for ms in multisets:
            for child, _ in ms.items():
                if not isinstance(child, typedesc.TypeDescriptor) or child.depth != depth:
                    raise TransitionError(
                        f"received a state of depth {getattr(child, 'depth', '?')} "
                        f"in round with states of depth {depth}"
                    )
        profiles = [typedesc.profile_of(ms) for ms in multisets]
        return table.intern(vocab, depth + 1, prev.atoms, profiles)

    return AutomatonSpec(
        vocab,
        init,
        delta,
        accepting=accepting,
        accepting_enumerator=accepting_enumerator,
        name="type-automaton",
    )
