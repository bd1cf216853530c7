"""Independent correctness references for the benchmark.

Nothing here imports gradedwl: each reference works on the plain adjacency
data the generators in ``workloads.py`` produce, so a defect in the program
cannot hide by being shared with its check.
"""

from __future__ import annotations

from collections import deque
from math import comb


class Graph:
    """Plain adjacency data: ``succ[alpha][u]`` is a sorted tuple of distinct
    successors, ``marked`` the set of nodes carrying p0."""

    def __init__(self, n, channels, edges, marked):
        self.n = n
        self.channels = channels
        succ = {alpha: [set() for _ in range(n)] for alpha in range(1, channels + 1)}
        for alpha, u, v in edges:
            succ[alpha][u].add(v)
        self.succ = {alpha: [tuple(sorted(vs)) for vs in rows] for alpha, rows in succ.items()}
        self.marked = frozenset(marked)

    def edges(self):
        return [(alpha, u, v) for alpha, rows in self.succ.items()
                for u, vs in enumerate(rows) for v in vs]

    def text(self):
        """The graph as a gradedwl model document."""
        lines = ["gradedwl-model v1", "props 0", f"channels {self.channels}",
                 "nodes " + " ".join(map(str, range(self.n)))]
        lines += [f"edge {alpha} {u} {v}" for alpha, u, v in self.edges()]
        if self.marked:
            lines.append("val 0 " + " ".join(map(str, sorted(self.marked))))
        return "\n".join(lines) + "\n"

    def permuted(self, perm, flip=()):
        """Isomorphic copy with node u renamed perm[u]; p0 toggled on ``flip``."""
        marked = {perm[u] for u in self.marked.symmetric_difference(flip)}
        return Graph(self.n, self.channels,
                     [(alpha, perm[u], perm[v]) for alpha, u, v in self.edges()], marked)

    def distances(self, source):
        """Hop distance from ``source`` over all channels, for reachable nodes."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for rows in self.succ.values():
                for v in rows[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
        return dist


def union(g1, g2):
    """Disjoint union; g2's node u becomes g1.n + u."""
    shift = g1.n
    edges = g1.edges() + [(alpha, u + shift, v + shift) for alpha, u, v in g2.edges()]
    marked = set(g1.marked) | {u + shift for u in g2.marked}
    return Graph(g1.n + g2.n, g1.channels, edges, marked)


def refine(graph, use_atoms=True):
    """Plain-dict colour refinement.

    Returns the colour history (one list per round) and the stable round by
    the same rule as ``wl.refine_to_stable``: round 0 when the first
    partition is discrete, else the first round whose class count equals the
    previous one or the domain size.  Refinement never merges classes, so
    equal counts mean equal partitions.
    """
    n = graph.n
    colors = [int(use_atoms and u in graph.marked) for u in range(n)]
    colors = _relabel(colors)
    history = [colors]
    count = len(set(colors))
    if count == n:
        return history, 0
    rows = [graph.succ[alpha] for alpha in sorted(graph.succ)]
    while True:
        # A sorted tuple of successor colours is the multiset of them.
        signatures = [
            (colors[u],) + tuple(tuple(sorted([colors[v] for v in succ[u]])) for succ in rows)
            for u in range(n)
        ]
        colors = _relabel(signatures)
        history.append(colors)
        new_count = len(set(colors))
        if new_count == count or new_count == n:
            return history, len(history) - 1
        count = new_count


def _relabel(values):
    ids = {}
    return [ids.setdefault(v, len(ids)) for v in values]


def separation_round(graph, a, b, use_atoms=True):
    """First round at which a and b get different colours, or None."""
    history, _ = refine(graph, use_atoms)
    for r, colors in enumerate(history):
        if colors[a] != colors[b]:
            return r
    return None


# A formula is a nested tuple: ("T",), ("p",), ("not", f), ("and", f, g),
# ("or", f, g) or ("dia", channel, count, f).


def naive_holds(graph, u, f):
    """Truth of ``f`` at node u by the semantic clauses, without memoisation."""
    op = f[0]
    if op == "T":
        return True
    if op == "p":
        return u in graph.marked
    if op == "not":
        return not naive_holds(graph, u, f[1])
    if op == "and":
        return naive_holds(graph, u, f[1]) and naive_holds(graph, u, f[2])
    if op == "or":
        return naive_holds(graph, u, f[1]) or naive_holds(graph, u, f[2])
    if op == "dia":
        _, alpha, k, child = f
        return sum(naive_holds(graph, v, child) for v in graph.succ[alpha][u]) >= k
    raise ValueError(f"unknown operator {op!r}")


def pointed_model_count(max_nodes, max_degree, channels, props):
    """Number of pointed models in the exhaustive grid: every n-node model
    (n = 1..max_nodes) picks, per node and channel, a successor set of size
    at most max_degree, and per node and proposition a truth value; each
    model contributes n points."""
    total = 0
    for n in range(1, max_nodes + 1):
        out_sets = sum(comb(n, j) for j in range(min(max_degree, n) + 1))
        total += n * out_sets ** (n * channels) * 2 ** (n * props)
    return total
