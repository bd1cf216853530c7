"""The benchmark's workloads.

Each workload makes its inputs from the seed (``__init__`` and ``prepare``,
never timed), does the program calls made once before the first op
(``setup``, timed as part of ``setup_s``), runs one op (``run``, timed) and
checks the op's output against the references in ``reference.py``
(``check``, never timed).  ``calibrated`` says whether its op latencies are
reported at the reference speed or as wall time (see ``run.py``).

``check`` returns None for a verified op, or the cause of the failure.
Causes listed in ``KNOWN_DEFECTS`` are defects of the program that the
benchmark expects at the commit that defined it; any other cause makes the
run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import reference

KNOWN_DEFECTS = {
    "gfp-ignores-atoms": "gfp starts from the full square and never looks at propositions, "
                         "so it calls a near-twin equivalent while WL separates it",
    "gfp-refuses-channels": "gfp rejects models with several channels (exit 3)",
    "render-size-cap": "distinguish --formula exits 3 when the full type at the separating "
                       "round renders to more than 10**6 formula nodes",
}


def random_graph(rng, n, channels, min_degree, max_degree):
    """Random graph: every node gets min..max distinct successors per channel
    and carries p0 with probability 1/2."""
    edges = [
        (alpha, u, v)
        for u in range(n)
        for alpha in range(1, channels + 1)
        for v in rng.sample(range(n), rng.randint(min_degree, max_degree))
    ]
    marked = [u for u in range(n) if rng.random() < 0.5]
    return reference.Graph(n, channels, edges, marked)


# -- refine-large -----------------------------------------------------------


@dataclass
class RefineInput:
    text: str
    classes: int
    stable_at: int
    round3: list
    satisfying: frozenset


class RefineLarge:
    """A library user colouring one big two-channel graph per op."""

    name = "refine-large"
    # An op takes seconds, over which the host's speed swings many times,
    # which the calibrations at its two ends miss: over one 175-s run,
    # 10-op windows spread 0.024 in wall time and 0.093 scaled.
    calibrated = False
    # Two seeded models, each parsed afresh by every op; run.py takes each
    # at its median attempt, so each needs several attempts in a run.
    cycle = 2
    RANDOM_NODES = 4000
    OUT_DEGREE = 3
    CHAIN = 20
    SAMPLE = 300
    TYPE_DEPTH = 3
    FORMULA_TEXT = "(<1:2>(p0 & <2:1>T) | ~<2:1>~p0)"
    FORMULA = ("or",
               ("dia", 1, 2, ("and", ("p",), ("dia", 2, 1, ("T",)))),
               ("not", ("dia", 2, 1, ("not", ("p",)))))

    def __init__(self, seed, workdir):
        self.seed = seed
        n = self.RANDOM_NODES + self.CHAIN
        self.sample = list(range(0, n, n // self.SAMPLE))[: self.SAMPLE]
        self.inputs = {}

    def setup(self, prog):
        self.prog = prog
        vocab = prog.kripke.Vocabulary(frozenset({0}), 2)
        self.formula = prog.formulas.parse(self.FORMULA_TEXT, vocab)

    def graph(self, i):
        """Random part with out-degree 3 over two channels, plus a chain
        entered from a random node whose only mark is at its end."""
        rng = random.Random(self.seed * 1_000_003 + i)
        n, chain = self.RANDOM_NODES, self.CHAIN
        edges = [
            (rng.randint(1, 2), u, v)
            for u in range(n)
            for v in rng.sample(range(n), self.OUT_DEGREE)
        ]
        edges += [(1, n + j, n + j + 1) for j in range(chain - 1)]
        edges.append((1, rng.randrange(n), n))
        marked = [u for u in range(n) if rng.random() < 0.5] + [n + chain - 1]
        return reference.Graph(n + chain, 2, edges, marked)

    def prepare(self, i):
        k = i % self.cycle
        if k not in self.inputs:
            self.inputs[k] = self._reference(self.graph(k))
        return self.inputs[k]

    def _reference(self, graph):
        history, stable_at = reference.refine(graph)
        return RefineInput(
            text=graph.text(),
            classes=len(set(history[stable_at])),
            stable_at=stable_at,
            round3=[history[self.TYPE_DEPTH][w] for w in self.sample],
            satisfying=frozenset(u for u in range(graph.n)
                                 if reference.naive_holds(graph, u, self.FORMULA)),
        )

    def run(self, inp):
        prog = self.prog
        model = prog.formats.parse_model(inp.text)
        table = prog.typedesc.InternTable()
        stable = prog.wl.refine_to_stable(model, table)
        types = [prog.typedesc.full_type(prog.kripke.PointedModel(model, w), self.TYPE_DEPTH, table)
                 for w in self.sample]
        satisfying = prog.formulas.satisfying_nodes(model, self.formula)
        return table, stable, types, satisfying

    def check(self, inp, out):
        table, stable, types, satisfying = out
        if stable.coloring.class_count() != inp.classes:
            return "wrong class count"
        if stable.stable_at != inp.stable_at:
            return "wrong stable round"
        if frozenset(satisfying) != inp.satisfying:
            return "wrong satisfying nodes"
        # Two nodes share a round-3 colour exactly when they share a depth-3
        # full type, and each type's uid is that colour.
        colors = stable.history[self.TYPE_DEPTH].colors
        uid_of = {}
        for w, t, ref in zip(self.sample, types, inp.round3):
            if table.by_uid(t.uid) is not t:
                return "descriptor not from the requested table"
            if t.uid != colors[w] or uid_of.setdefault(ref, t.uid) != t.uid:
                return "type disagrees with round-3 colour"
        if len(set(uid_of.values())) != len(uid_of):
            return "type disagrees with round-3 colour"
        return None


# -- oracle-pairs -----------------------------------------------------------


@dataclass
class Pair:
    args: list
    channels: int
    equivalent: bool
    separated_at: int
    structurally_equivalent: bool


class OraclePairs:
    """The ``distinguish --oracle both --formula`` CLI command, in-process."""

    name = "oracle-pairs"
    calibrated = True
    # R random vs random, P permuted copy, N near-twin, C two-channel copy.
    KINDS = "RPNRPNRPRC"
    # Forty pairs, so that one seed's pairs cost close to another's (twenty
    # spread by 4-5% over ten seeds), while each pair still gets several
    # attempts in a run.
    cycle = 40

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.pairs = []
        for j in range(self.cycle):
            kind = self.KINDS[j % len(self.KINDS)]
            # Sizes spread evenly over 15..25, whatever the seed.
            n = 15 + (j * 7) % 11
            g1, a, g2, b = self._make(rng, kind, n, 15 + (j * 4) % 11)
            paths = []
            for side, g in (("a", g1), ("b", g2)):
                path = workdir / f"pair{j:03d}{side}.txt"
                path.write_text(g.text())
                paths.append(str(path))
            both = reference.union(g1, g2)
            sep = reference.separation_round(both, a, g1.n + b)
            blind = reference.separation_round(both, a, g1.n + b, use_atoms=False)
            self.pairs.append(Pair([paths[0], str(a), paths[1], str(b)], g1.channels,
                                   sep is None, sep, blind is None))

    @staticmethod
    def _make(rng, kind, n, n_other):
        if kind == "R":
            g1 = random_graph(rng, n, 1, 1, 3)
            g2 = random_graph(rng, n_other, 1, 1, 3)
            return g1, rng.randrange(n), g2, rng.randrange(n_other)
        channels = 2 if kind == "C" else 1
        while True:
            g = random_graph(rng, n, channels, 1, 3 if channels == 1 else 2)
            perm = list(range(n))
            rng.shuffle(perm)
            a = rng.randrange(n)
            if kind != "N":
                return g, a, g.permuted(perm), perm[a]
            # Flips 3 to 5 hops out: later separations render distinguishing
            # formulas of up to millions of nodes, whose rare ops then set
            # peak_rss_mb and the latency tail.
            far = sorted(v for v, d in g.distances(a).items() if 3 <= d <= 5)
            if far:
                return g, a, g.permuted(perm, flip={rng.choice(far)}), perm[a]

    def setup(self, prog):
        self.prog = prog

    def prepare(self, i):
        # Each op starts from the intern-table state of a fresh process.
        self.prog.typedesc.DEFAULT_TABLE = self.prog.typedesc.InternTable()
        return self.pairs[i % len(self.pairs)]

    def run(self, pair):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.prog.cli.main(["distinguish", *pair.args,
                                       "--oracle", "both", "--formula", "--json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, pair, out):
        code, stdout, stderr = out
        if code == 3 and pair.channels > 1 and "single edge relation" in stderr:
            return "gfp-refuses-channels"
        if code == 3 and not pair.equivalent and "rendered formula would have" in stderr:
            return "render-size-cap"
        if code not in (0, 1):
            return f"exit code {code}: {stderr.strip()}"
        if code != (0 if pair.equivalent else 1):
            return "exit code contradicts the pair's verdict"
        payload = json.loads(stdout)
        if payload["verdicts"]["wl"] != pair.equivalent:
            return "wrong WL verdict"
        if payload.get("separated_at") != pair.separated_at:
            return "wrong separation round"
        if not payload["oracles_agree"]:
            if payload["verdicts"]["gfp"] and pair.structurally_equivalent:
                return "gfp-ignores-atoms"
            return "oracles disagree"
        if not pair.equivalent and payload.get("formula_verified") is not True:
            return "distinguishing formula not verified"
        return None


# -- roundtrip-grid ---------------------------------------------------------


class RoundtripGrid:
    """``roundtrip --exhaustive``: every pointed model of a small grid, for
    each formula of the acceptance suite's 12-formula battery."""

    name = "roundtrip-grid"
    calibrated = True
    # (formula, props, max_nodes, max_degree).  The one-proposition depth-2
    # formula runs on the smaller (2, 2) grid: on (3, 1) one op took 3.2 s,
    # twenty times the rest.  p0 runs on (2, 2) as well, where the op is
    # nearly all of roundtrip_check's fixed cost; it also makes the cycle
    # odd, so the median latency is that of one op rather than the midpoint
    # of the gap between two.
    BATTERY = [
        ("T", 0, 3, 2),
        ("<1:1>T", 0, 3, 2),
        ("<1:=1>T", 0, 3, 2),
        ("~<1:2>T", 0, 3, 2),
        ("<1:1><1:2>T", 0, 3, 2),
        ("(<1:1>T & ~<1:1><1:1>T)", 0, 3, 2),
        ("<1:2><1:1>T", 0, 3, 2),
        ("p0", 1, 3, 1),
        ("p0", 1, 2, 2),
        ("(p0 & ~<1:1>p0)", 1, 3, 1),
        ("<1:2>p0", 1, 3, 1),
        ("<1:1>(p0 & <1:1>T)", 1, 2, 2),
        ("(<1:1>p0 | <1:2>~p0)", 1, 3, 1),
    ]
    cycle = len(BATTERY)

    def __init__(self, seed, workdir):
        self.order = list(range(len(self.BATTERY)))
        random.Random(seed).shuffle(self.order)
        self.expected = [reference.pointed_model_count(nodes, degree, 1, props)
                         for _, props, nodes, degree in self.BATTERY]

    def setup(self, prog):
        self.prog = prog
        self.ops = []
        for text, props, nodes, degree in self.BATTERY:
            spec = prog.grid.GridSpec(max_nodes=nodes, max_degree=degree, props=props,
                                      exhaustive=True)
            vocab = spec.vocabulary()
            formula = prog.formulas.parse(text, vocab)
            budgets = prog.translate.Budgets(max_degree=2,
                                             max_rounds=prog.formulas.modal_depth(formula))
            self.ops.append((formula, vocab, spec, budgets))

    def prepare(self, i):
        return self.order[i % len(self.order)]

    def run(self, k):
        prog = self.prog
        formula, vocab, spec, budgets = self.ops[k]
        pointed = (prog.kripke.PointedModel(m, w)
                   for m in prog.grid.gen_grid(spec) for w in m.domain)
        return prog.translate.roundtrip_check(formula, vocab, pointed, budgets,
                                              prog.typedesc.InternTable())

    def check(self, k, report):
        if report.models_checked != self.expected[k]:
            return "wrong models_checked"
        if not report.agreed:
            return "routes disagree"
        return None


WORKLOADS = {w.name: w for w in (RefineLarge, OraclePairs, RoundtripGrid)}
