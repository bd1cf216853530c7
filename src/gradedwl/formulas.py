"""Graded multimodal logic: AST, concrete syntax, depth/width, model checking.

Core connectives are top, propositions, negation, conjunction and the graded
diamond ``<a:k>`` ("at least k alpha-successors satisfy the body").  The
surface syntax additionally offers ``|``, ``->``, ``<->`` and the exact
diamond ``<a:=k>``, all of which expand to core connectives at parse time.

Formula objects are immutable and may share subterms (DAGs); the model
checker memoizes by object identity, so shared subterms are evaluated once
per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormulaSyntaxError, VocabularyError


class Formula:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    __slots__ = ()

    def __repr__(self):
        return "T"


@dataclass(frozen=True)
class Prop(Formula):
    index: int

    def __repr__(self):
        return f"p{self.index}"


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def __repr__(self):
        return f"~{self.child!r}"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True)
class Diamond(Formula):
    channel: int
    count: int
    child: Formula

    def __repr__(self):
        return f"<{self.channel}:{self.count}>{self.child!r}"


TOP = Top()


def exact_diamond(channel, count, child):
    """The ``<a:=k>`` sugar: exactly ``count`` successors satisfy the body."""
    return And(
        Diamond(channel, count, child),
        Not(Diamond(channel, count + 1, child)),
    )


def disjunction_of(left, right):
    return Not(And(Not(left), Not(right)))


def implication(left, right):
    return Not(And(left, Not(right)))


def biconditional(left, right):
    return And(implication(left, right), implication(right, left))


def conjoin_all(formulas):
    """Right-nested conjunction of a non-empty ordered list (Top if empty)."""
    formulas = list(formulas)
    if not formulas:
        return TOP
    result = formulas[-1]
    for f in reversed(formulas[:-1]):
        result = And(f, result)
    return result


# -- depth and width -------------------------------------------------------


def modal_depth(formula):
    """Number of nested diamonds."""
    stack = [(formula, 0)]
    best = 0
    while stack:
        f, d = stack.pop()
        if isinstance(f, Diamond):
            stack.append((f.child, d + 1))
        elif isinstance(f, Not):
            stack.append((f.child, d))
        elif isinstance(f, And):
            stack.append((f.left, d))
            stack.append((f.right, d))
        else:
            if d > best:
                best = d
    return best


def width(formula, channels):
    """Width vector: per modal level, the per-channel maximum diamond grade.

    Returns a tuple of length-``channels`` tuples, outermost level first; the
    empty tuple for purely propositional formulas.
    """
    if isinstance(formula, (Top, Prop)):
        return ()
    if isinstance(formula, Not):
        return width(formula.child, channels)
    if isinstance(formula, And):
        a = width(formula.left, channels)
        b = width(formula.right, channels)
        if len(a) < len(b):
            a, b = b, a
        merged = []
        for i, level in enumerate(a):
            if i < len(b):
                other = b[i]
                merged.append(tuple(max(x, y) for x, y in zip(level, other)))
            else:
                merged.append(level)
        return tuple(merged)
    if isinstance(formula, Diamond):
        head = tuple(
            formula.count if alpha == formula.channel else 0
            for alpha in range(1, channels + 1)
        )
        return (head,) + width(formula.child, channels)
    raise TypeError(f"not a formula: {formula!r}")


def validate_vocabulary(formula, vocab):
    """Raise VocabularyError unless every atom and channel fits ``vocab``."""
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Prop):
            vocab.check_prop(f.index)
        elif isinstance(f, Not):
            stack.append(f.child)
        elif isinstance(f, And):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, Diamond):
            vocab.check_channel(f.channel)
            stack.append(f.child)


# -- concrete syntax -------------------------------------------------------


class _Parser:
    """Recursive-descent parser for the LL(1) surface grammar."""

    def __init__(self, text, vocab):
        self.text = text
        self.vocab = vocab
        self.pos = 0

    def parse(self):
        f = self.formula()
        self.skip_ws()
        if self.pos != len(self.text):
            raise FormulaSyntaxError("trailing input", self.pos)
        return f

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise FormulaSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise FormulaSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def formula(self):
        ch = self.peek()
        if ch == "T":
            self.pos += 1
            return TOP
        if ch == "p":
            self.pos += 1
            start = self.pos
            index = self.integer()
            if self.vocab is not None and index not in self.vocab.props:
                raise FormulaSyntaxError(f"proposition p{index} is out of vocabulary", start)
            return Prop(index)
        if ch == "~":
            self.pos += 1
            return Not(self.formula())
        if ch == "<":
            return self.diamond()
        if ch == "(":
            return self.binary()
        raise FormulaSyntaxError("expected a formula", self.pos)

    def diamond(self):
        self.expect("<")
        start = self.pos
        alpha = self.integer()
        if self.vocab is not None and not 1 <= alpha <= self.vocab.channels:
            raise FormulaSyntaxError(f"channel {alpha} is out of vocabulary", start)
        self.expect(":")
        exact = False
        if self.peek() == "=":
            self.pos += 1
            exact = True
        k = self.integer()
        self.expect(">")
        body = self.formula()
        if exact:
            return exact_diamond(alpha, k, body)
        return Diamond(alpha, k, body)

    def binary(self):
        self.expect("(")
        left = self.formula()
        self.skip_ws()
        op = self.operator()
        right = self.formula()
        self.expect(")")
        if op == "&":
            return And(left, right)
        if op == "|":
            return disjunction_of(left, right)
        if op == "->":
            return implication(left, right)
        return biconditional(left, right)

    def operator(self):
        for op in ("<->", "->", "&", "|"):
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return op
        raise FormulaSyntaxError("expected a binary operator", self.pos)


def parse(text, vocab=None):
    """Parse surface syntax into a core AST; sugar expands during parsing."""
    return _Parser(text, vocab).parse()


def print_formula(formula):
    """Core-syntax rendering; ``parse(print_formula(f))`` equals ``f``."""
    parts = []

    def emit(f):
        if isinstance(f, Top):
            parts.append("T")
        elif isinstance(f, Prop):
            parts.append(f"p{f.index}")
        elif isinstance(f, Not):
            parts.append("~")
            emit(f.child)
        elif isinstance(f, And):
            parts.append("(")
            emit(f.left)
            parts.append(" & ")
            emit(f.right)
            parts.append(")")
        elif isinstance(f, Diamond):
            parts.append(f"<{f.channel}:{f.count}>")
            emit(f.child)
        else:
            raise TypeError(f"not a formula: {f!r}")

    emit(formula)
    return "".join(parts)


# -- model checking --------------------------------------------------------


class FormulaEvaluator:
    """Evaluates formulas over one model, memoizing satisfaction sets.

    The memo is keyed by subformula object identity, so formulas that share
    subterms (including rendered type descriptors) are evaluated once.  One
    evaluator can serve many formulas against the same model.
    """

    def __init__(self, model):
        self.model = model
        self._sets = {}
        self._pins = []  # keep formulas alive so id() keys stay unambiguous

    def nodes(self, formula):
        """The set of nodes satisfying ``formula``."""
        cached = self._sets.get(id(formula))
        if cached is not None:
            return cached
        result = self._compute(formula)
        self._sets[id(formula)] = result
        self._pins.append(formula)
        return result

    def _compute(self, f):
        model = self.model
        if isinstance(f, Top):
            return frozenset(model.domain)
        if isinstance(f, Prop):
            return model.valuation(f.index)
        if isinstance(f, Not):
            return frozenset(model.domain) - self.nodes(f.child)
        if isinstance(f, And):
            return self.nodes(f.left) & self.nodes(f.right)
        if isinstance(f, Diamond):
            if f.count == 0:
                return frozenset(model.domain)
            sat = self.nodes(f.child)
            out = []
            for w in model.domain:
                hits = 0
                for v in model.successors(w, f.channel):
                    if v in sat:
                        hits += 1
                        if hits >= f.count:
                            out.append(w)
                            break
            return frozenset(out)
        raise TypeError(f"not a formula: {f!r}")

    def holds(self, point, formula):
        return point in self.nodes(formula)


def check(pm, formula):
    """Truth of ``formula`` at the pointed model, per the semantic clauses."""
    validate_vocabulary(formula, pm.model.vocab)
    return FormulaEvaluator(pm.model).holds(pm.point, formula)


def satisfying_nodes(model, formula):
    """All nodes of ``model`` satisfying ``formula``."""
    validate_vocabulary(formula, model.vocab)
    return FormulaEvaluator(model).nodes(formula)


# -- disjunctions ----------------------------------------------------------


@dataclass(frozen=True)
class Disjunction:
    """Finite ordered, duplicate-free disjunct set, optionally extended by a
    budgeted enumerator of further disjuncts (see :mod:`gradedwl.translate`).
    """

    disjuncts: tuple = ()
    enumerator: object = None

    @classmethod
    def of(cls, formulas, enumerator=None):
        seen = []
        for f in formulas:
            if not any(f == g for g in seen):
                seen.append(f)
        return cls(tuple(seen), enumerator)

    def all_disjuncts(self, budget):
        """Finite disjuncts first, then enumerator output, up to ``budget``.

        Yields ``(formula, from_enumerator)`` pairs.
        """
        emitted = 0
        for f in self.disjuncts:
            if emitted >= budget:
                return
            emitted += 1
            yield f, False
        if self.enumerator is not None:
            for f in self.enumerator:
                if emitted >= budget:
                    return
                emitted += 1
                yield f, True


@dataclass(frozen=True)
class DisjunctionVerdict:
    holds: bool
    budget_limited: bool
    witness: Formula = None

    def __bool__(self):
        return self.holds


def check_disjunction(pm, disjunction, budget):
    """Whether some disjunct (within ``budget``) holds at the pointed model.

    A negative verdict is flagged ``budget_limited`` when an enumerator is
    attached (further unseen disjuncts could still hold).
    """
    evaluator = FormulaEvaluator(pm.model)
    truncated = False
    count = 0
    for f, _ in disjunction.all_disjuncts(budget):
        count += 1
        if evaluator.holds(pm.point, f):
            return DisjunctionVerdict(True, False, f)
    if disjunction.enumerator is not None and count >= budget:
        truncated = True
    return DisjunctionVerdict(False, truncated)


def conjoin_disjunctions(d1, d2):
    """Product disjunction equivalent to the conjunction of two finite ones."""
    if d1.enumerator is not None or d2.enumerator is not None:
        raise ValueError("conjoin_disjunctions requires finite disjunctions")
    return Disjunction.of(And(f, g) for f in d1.disjuncts for g in d2.disjuncts)
