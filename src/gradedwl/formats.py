"""Text formats: model documents and declarative finite automata.

Both formats are line-oriented, allow ``#`` comments and blank lines, and
start with a versioned header.  Serializers emit a canonical form that
reparses identically.
"""

from __future__ import annotations

import re

from .automaton import AutomatonSpec
from .errors import InputFormatError
from .kripke import KripkeModel, Vocabulary

MODEL_HEADER = "gradedwl-model v1"
AUTOMATON_HEADER = "gradedwl-automaton v1"


def _lines(text, header):
    raw = text.splitlines()
    if not raw or raw[0].strip() != header:
        raise InputFormatError(f"missing header {header!r}", line=1)
    for no, line in enumerate(raw[1:], start=2):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            yield no, stripped


def _ints(tokens, no, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise InputFormatError(f"expected integer {what}", line=no) from None


# -- model documents -------------------------------------------------------


def parse_model(text):
    """Parse a model document into a :class:`KripkeModel`."""
    props = []
    channels = None
    nodes = None
    edges = []
    valuation = {}
    for no, line in _lines(text, MODEL_HEADER):
        tokens = line.split()
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "props":
            props = _ints(rest, no, "proposition indices")
        elif keyword == "channels":
            if len(rest) != 1:
                raise InputFormatError("channels takes one integer", line=no)
            channels = _ints(rest, no, "channel count")[0]
        elif keyword == "nodes":
            nodes = _ints(rest, no, "node ids")
        elif keyword == "edge":
            if len(rest) != 3:
                raise InputFormatError("edge takes three integers: channel u v", line=no)
            edges.append(tuple(_ints(rest, no, "edge triple")))
        elif keyword == "val":
            if not rest:
                raise InputFormatError("val takes a proposition and node ids", line=no)
            values = _ints(rest, no, "valuation entry")
            valuation.setdefault(values[0], []).extend(values[1:])
        else:
            raise InputFormatError(f"unknown keyword {keyword!r}", line=no)
    if channels is None:
        raise InputFormatError("missing 'channels' line")
    if nodes is None:
        raise InputFormatError("missing 'nodes' line")
    vocab = Vocabulary(frozenset(props), channels)
    try:
        return KripkeModel(nodes, vocab, edges, valuation)
    except Exception as exc:
        raise InputFormatError(str(exc)) from exc


def serialize_model(model):
    """Canonical model document for a model."""
    out = [MODEL_HEADER]
    if model.vocab.props:
        out.append("props " + " ".join(str(p) for p in sorted(model.vocab.props)))
    out.append(f"channels {model.vocab.channels}")
    out.append("nodes " + " ".join(str(w) for w in model.domain))
    for alpha, u, v in model.edge_triples():
        out.append(f"edge {alpha} {u} {v}")
    for p in sorted(model.vocab.props):
        ws = sorted(model.valuation(p))
        if ws:
            out.append(f"val {p} " + " ".join(str(w) for w in ws))
    return "\n".join(out) + "\n"


# -- declarative finite automata ------------------------------------------

_INIT_RE = re.compile(r"^\{([^}]*)\}$")
_GROUP_RE = re.compile(r"\[\s*(\d+)\s*:\s*([^\]]*)\]")


def _parse_pattern(text, no):
    """Channel groups ``[a: name>=k, total=m]``, at most one per channel and
    nothing else; unmentioned channels match."""
    stray = _GROUP_RE.sub(" ", text).strip()
    if stray:
        raise InputFormatError(f"unexpected text {stray!r} in pattern", line=no)
    groups = {}
    for match in _GROUP_RE.finditer(text):
        alpha = int(match.group(1))
        if alpha in groups:
            raise InputFormatError(f"pattern repeats channel {alpha}", line=no)
        at_least = []
        total = None
        body = match.group(2).strip()
        if body:
            for part in body.split(","):
                part = part.strip()
                try:
                    if part.startswith("total="):
                        total = int(part[len("total="):])
                    else:
                        name, k = part.split(">=")
                        at_least.append((name.strip(), int(k)))
                except ValueError:
                    raise InputFormatError(f"bad pattern constraint {part!r}", line=no) from None
        groups[alpha] = (tuple(at_least), total)
    return groups


class _TableAutomaton:
    """Finite automaton backed by the declarative tables."""

    def __init__(self, vocab, states, init_rows, init_default, rules, accepting):
        self.vocab = vocab
        self.states = states
        self.init_rows = init_rows
        self.init_default = init_default
        self.rules = rules  # state -> list of (pattern-or-None, target)
        self.accepting_states = accepting

    def initializer(self, atoms):
        key = frozenset(atoms)
        if key in self.init_rows:
            return self.init_rows[key]
        if self.init_default is not None:
            return self.init_default
        names = ",".join(f"p{p}" for p in sorted(key))
        raise InputFormatError(f"no init row for {{{names}}} and no default")

    def transition(self, multisets, state):
        for pattern, target in self.rules[state]:
            if pattern is None or self._matches(pattern, multisets):
                return target
        raise InputFormatError(f"no rule matched for state {state!r}")

    @staticmethod
    def _matches(pattern, multisets):
        for alpha, (at_least, total) in pattern.items():
            ms = multisets[alpha - 1]
            if total is not None and len(ms) != total:
                return False
            for name, k in at_least:
                if not ms.contains_at_least(name, k):
                    return False
        return True

    def spec(self):
        return AutomatonSpec(
            self.vocab,
            self.initializer,
            self.transition,
            accepting=lambda s: s in self.accepting_states,
            name="table-automaton",
        )


def parse_automaton(text):
    """Parse an automaton document into an executable :class:`AutomatonSpec`."""
    props = []
    channels = 1
    states = None
    init_rows = {}
    init_default = None
    rules = {}
    accepting = set()
    for no, line in _lines(text, AUTOMATON_HEADER):
        tokens = line.split(None, 1)
        keyword = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if keyword == "props":
            props = _ints(rest.split(), no, "proposition indices")
        elif keyword == "channels":
            channels = _ints([rest.strip()], no, "channel count")[0]
        elif keyword == "states":
            states = rest.split()
            if not states:
                raise InputFormatError("states line lists at least one name", line=no)
        elif keyword == "init":
            parts = rest.split()
            if len(parts) != 2:
                raise InputFormatError("init takes a subset and a state", line=no)
            subset, target = parts
            if subset == "default":
                init_default = target
            else:
                match = _INIT_RE.match(subset)
                if not match:
                    raise InputFormatError("init subset looks like {p0,p1} or {}", line=no)
                body = match.group(1).strip()
                atoms = frozenset(_ints(
                    [tok.strip().lstrip("p") for tok in body.split(",") if tok.strip()],
                    no, "proposition indices",
                ))
                init_rows[atoms] = target
        elif keyword == "rule":
            match = re.match(r"^(\S+)\s+(.*?)\s*->\s*(\S+)$", rest)
            if not match:
                raise InputFormatError("rule looks like: rule STATE PATTERN -> STATE", line=no)
            state, body, target = match.groups()
            pattern = None if body.strip() == "else" else _parse_pattern(body, no)
            rules.setdefault(state, []).append((pattern, target))
        elif keyword == "accept":
            accepting.update(rest.split())
        else:
            raise InputFormatError(f"unknown keyword {keyword!r}", line=no)
    if states is None:
        raise InputFormatError("missing 'states' line")
    known = set(states)
    for state, rows in rules.items():
        if state not in known:
            raise InputFormatError(f"rule for unknown state {state!r}")
        if not any(pattern is None for pattern, _ in rows):
            raise InputFormatError(f"state {state!r} has no else rule")
        for pattern, target in rows:
            if target not in known:
                raise InputFormatError(f"rule target {target!r} is not declared")
            for alpha, (at_least, _) in (pattern or {}).items():
                if not 1 <= alpha <= channels:
                    raise InputFormatError(
                        f"rule for {state!r} constrains channel {alpha}, not in 1..{channels}"
                    )
                for name, _ in at_least:
                    if name not in known:
                        raise InputFormatError(f"pattern state {name!r} is not declared")
    for state in known:
        if state not in rules:
            raise InputFormatError(f"state {state!r} has no rules (need at least an else)")
    for target in [*init_rows.values(), init_default]:
        if target is not None and target not in known:
            raise InputFormatError(f"init target {target!r} is not declared")
    for target in accepting:
        if target not in known:
            raise InputFormatError(f"accepting state {target!r} is not declared")
    vocab = Vocabulary(frozenset(props), channels)
    table = _TableAutomaton(vocab, states, init_rows, init_default, rules, accepting)
    return table.spec()
