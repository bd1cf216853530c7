"""Command-line surface.

Exit codes: 0 success/true, 1 false/not-accepted, 2 usage error, 3 input
error, 4 budget reached without a verdict, 5 internal error (an unexpected
exception; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import gfp as gfp_mod
from . import grid as grid_mod
from . import translate as translate_mod
from . import typedesc
from . import wl as wl_mod
from .automaton import run as run_automaton
from .errors import GradedWLError
from .formats import parse_automaton, parse_model, serialize_model
from .formulas import check, parse, print_formula
from .kripke import KripkeModel, PointedModel, Vocabulary, pointed_union

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GradedWLError(f"cannot read {path}: {exc}") from exc


def _load_model(path, symmetric=False):
    """The model in ``path``, closed under reversed edges when ``symmetric``."""
    model = parse_model(_read(path))
    if not symmetric:
        return model
    edges = model.edge_triples()
    closed = set(edges) | {(a, v, u) for a, u, v in edges}
    return KripkeModel(model.domain, model.vocab, sorted(closed),
                       {p: model.valuation(p) for p in model.vocab.props})


def _load_automaton(path):
    return parse_automaton(_read(path))


def _grid_spec(args, props):
    return grid_mod.GridSpec(
        max_nodes=args.max_nodes,
        max_degree=args.max_degree,
        channels=args.channels,
        props=props,
        seed=args.seed,
        count=args.count,
        exhaustive=args.exhaustive,
    )


def _emit(args, text_lines, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands -----------------------------------------------------------


def cmd_check(args):
    model = _load_model(args.model)
    formula = parse(args.formula, model.vocab)
    verdict = check(PointedModel(model, args.point), formula)
    _emit(args, ["true" if verdict else "false"], {"verdict": verdict})
    return EXIT_TRUE if verdict else EXIT_FALSE


def _parse_width(spec, channels):
    levels = []
    for level in spec.split(";"):
        try:
            entries = [int(x) for x in level.split(",")]
        except ValueError:
            raise GradedWLError(f"width level {level!r} must list integers") from None
        if len(entries) != channels:
            raise GradedWLError(
                f"width level {level!r} needs {channels} entries"
            )
        levels.append(tuple(entries))
    return tuple(levels)


def cmd_type(args):
    model = _load_model(args.model)
    pm = PointedModel(model, args.point)
    if args.width is not None:
        t = typedesc.type_of_width(pm, _parse_width(args.width, model.vocab.channels))
    else:
        t = typedesc.full_type(pm, args.depth)
    lines = [typedesc.serialize_type(t)]
    payload = {"type": typedesc.serialize_type(t), "depth": t.depth}
    if args.render:
        rendered = print_formula(typedesc.render_type(t))
        lines.append(rendered)
        payload["formula"] = rendered
    _emit(args, lines, payload)
    return EXIT_TRUE


def cmd_refine(args):
    model = _load_model(args.model, args.symmetric)
    lines = []
    payload = {}
    if args.classic:
        stable = wl_mod.classic_wl(model)
    elif args.stable:
        stable = wl_mod.refine_to_stable(model)
    else:
        coloring = wl_mod.initial_coloring(model)
        history = [coloring]
        for _ in range(args.rounds):
            coloring = wl_mod.refine_round(model, coloring)
            history.append(coloring)
        stable = None
    if stable is not None:
        history = stable.history
        coloring = stable.coloring
    if args.trace:
        for c in history:
            lines.append(f"round: {c.round}")
            for node in model.domain:
                lines.append(f"node {node} color {c.colors[node]}")
            lines.append(f"classes: {c.class_count()}")
        payload["trace"] = [
            {"round": c.round, "colors": {str(k): v for k, v in c.colors.items()},
             "classes": c.class_count()}
            for c in history
        ]
    else:
        for node in model.domain:
            lines.append(f"node {node} color {coloring.colors[node]}")
    lines.append(f"classes: {coloring.class_count()}")
    payload["classes"] = coloring.class_count()
    payload["colors"] = {str(k): v for k, v in coloring.colors.items()}
    if stable is not None:
        lines.append(f"stable_at: {stable.stable_at}")
        payload["stable_at"] = stable.stable_at
    _emit(args, lines, payload)
    return EXIT_TRUE


def cmd_distinguish(args):
    model_a = _load_model(args.model_a, args.symmetric)
    model_b = _load_model(args.model_b, args.symmetric)
    pm1 = PointedModel(model_a, args.point_a)
    pm2 = PointedModel(model_b, args.point_b)
    lines = []
    payload = {"oracle": args.oracle}
    verdicts = {}
    separated_at = None
    # One disjoint union serves both oracles; the formula needs WL's
    # separating round even when only the gfp verdict is reported.
    if args.oracle == "gfp" and not args.formula:
        union, a, b = pointed_union(pm1, pm2)
    else:
        result = wl_mod.distinguish(pm1, pm2)
        union, (a, b) = result.union, result.union_points
        separated_at = result.separated_at
    if args.oracle in ("wl", "both"):
        verdicts["wl"] = result.equivalent
        if result.equivalent:
            lines.append("equivalent")
        else:
            lines.append(f"separated_at: {separated_at}")
            payload["separated_at"] = separated_at
    if args.oracle in ("gfp", "both"):
        relation, stages = gfp_mod.phi_wl_fixpoint(union)
        verdicts["gfp"] = (a, b) in relation.pairs
        if args.oracle == "gfp":
            lines.append("equivalent" if verdicts["gfp"] else "separated")
        lines.append(f"stages: {stages}")
        payload["stages"] = stages
    payload["verdicts"] = verdicts
    if args.oracle == "both":
        agree = verdicts["wl"] == verdicts["gfp"]
        lines.append(f"oracles_agree: {'yes' if agree else 'no'}")
        payload["oracles_agree"] = agree
    equivalent = all(verdicts.values())
    payload["equivalent"] = equivalent
    if args.formula and separated_at is not None:
        formula = typedesc.render_type(typedesc.full_type(pm1, separated_at))
        rendered = print_formula(formula)
        holds_a = check(pm1, formula)
        holds_b = check(pm2, formula)
        lines.append(f"formula: {rendered}")
        lines.append(f"verified: {'yes' if holds_a and not holds_b else 'no'}")
        payload["formula"] = rendered
        payload["formula_verified"] = holds_a and not holds_b
    _emit(args, lines, payload)
    return EXIT_TRUE if equivalent else EXIT_FALSE


def cmd_run(args):
    spec = _load_automaton(args.automaton)
    model = _load_model(args.model, args.symmetric)
    result = run_automaton(spec, PointedModel(model, args.point), args.max_rounds)
    if result.accepted:
        _emit(args, [f"accepted_at: {result.round}"],
              {"verdict": "accepted", "round": result.round})
        return EXIT_TRUE
    _emit(args, ["not_accepted_within_budget"],
          {"verdict": "not_accepted_within_budget"})
    return EXIT_FALSE


def cmd_translate(args):
    table = typedesc.InternTable()
    if args.direction == "f2a":
        vocab = Vocabulary(frozenset(args.props), args.channels)
        formula = parse(args.formula, vocab)
        stream = translate_mod.formula_to_type_disjunction(
            formula, vocab, args.max_degree, table, args.max_items
        )
    else:
        spec = _load_automaton(args.automaton)
        stream = translate_mod.automaton_to_disjunction(
            spec, spec.vocab, args.max_rounds, args.max_degree, table, args.max_items
        )
    lines = []
    types = []
    budget_reached = False
    for event in stream.events():
        if event is translate_mod.BUDGET_REACHED:
            budget_reached = True
        else:
            types.append(typedesc.serialize_type(event))
    lines.extend(types)
    if budget_reached:
        lines.append("budget_reached")
    _emit(args, lines, {"types": types, "budget_reached": budget_reached})
    return EXIT_BUDGET if budget_reached else EXIT_TRUE


def cmd_roundtrip(args):
    vocab = Vocabulary(frozenset(args.props), args.channels)
    formula = parse(args.formula, vocab)
    spec = _grid_spec(args, len(args.props))
    budgets = translate_mod.Budgets(
        max_degree=args.max_degree,
        max_items=args.max_items,
        max_rounds=args.max_rounds,
    )
    pointed = (
        PointedModel(m, w) for m in grid_mod.gen_grid(spec) for w in m.domain
    )
    report = translate_mod.roundtrip_check(formula, vocab, pointed, budgets)
    lines = [f"models: {report.models_checked}",
             f"disagreements: {len(report.disagreements)}"]
    if report.budget_reached:
        lines.append("budget_reached")
    _emit(args, lines, {
        "models": report.models_checked,
        "disagreements": len(report.disagreements),
        "budget_reached": report.budget_reached,
    })
    if report.budget_reached:
        return EXIT_BUDGET
    return EXIT_TRUE if report.agreed else EXIT_FALSE


def cmd_gen(args):
    spec = _grid_spec(args, args.props)
    documents = [serialize_model(m) for m in grid_mod.gen_grid(spec)]
    if args.json:
        print(json.dumps({"models": documents}))
    else:
        print("\n".join(documents), end="")
    return EXIT_TRUE


# -- argument wiring -------------------------------------------------------


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()] if text else []


def _natural(text):
    """argparse type for counts and bounds: an integer >= 0."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradedwl",
        description="Graded multimodal logic, counting message-passing automata, "
                    "and Weisfeiler-Leman refinement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="model-check a formula at a point")
    p.add_argument("model")
    p.add_argument("point", type=int)
    p.add_argument("formula")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("type", help="compute a graded multimodal type")
    p.add_argument("model")
    p.add_argument("point", type=int)
    p.add_argument("--depth", type=_natural, default=0)
    p.add_argument("--width", help="explicit width, e.g. '2,1;1,0'")
    p.add_argument("--render", action="store_true")
    common(p)
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("refine", help="run color refinement")
    p.add_argument("model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rounds", type=_natural)
    group.add_argument("--stable", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--classic", action="store_true")
    common(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("distinguish", help="compare two pointed models")
    p.add_argument("model_a")
    p.add_argument("point_a", type=int)
    p.add_argument("model_b")
    p.add_argument("point_b", type=int)
    p.add_argument("--oracle", choices=["wl", "gfp", "both"], default="wl")
    p.add_argument("--formula", action="store_true",
                   help="also extract and verify a distinguishing formula")
    p.add_argument("--symmetric", action="store_true")
    common(p)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("run", help="run a declarative automaton")
    p.add_argument("automaton")
    p.add_argument("model")
    p.add_argument("point", type=int)
    p.add_argument("--max-rounds", type=_natural, default=8)
    p.add_argument("--symmetric", action="store_true")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("translate", help="translate between formulas and automata")
    p.add_argument("direction", choices=["f2a", "a2f"])
    p.add_argument("--formula", help="formula text (f2a)")
    p.add_argument("--automaton", help="automaton file (a2f)")
    p.add_argument("--props", type=_int_list, default=[])
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--max-degree", type=_natural, default=2)
    p.add_argument("--max-items", type=_natural)
    p.add_argument("--max-rounds", type=_natural, default=2)
    common(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("roundtrip", help="cross-validate the three routes")
    p.add_argument("formula")
    p.add_argument("--props", type=_int_list, default=[])
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--max-nodes", type=_natural, default=3)
    p.add_argument("--max-degree", type=_natural, default=2)
    p.add_argument("--max-items", type=_natural)
    p.add_argument("--max-rounds", type=_natural, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_natural, default=50)
    p.add_argument("--exhaustive", action="store_true")
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("gen", help="generate a model grid")
    p.add_argument("--max-nodes", type=_natural, required=True)
    p.add_argument("--max-degree", type=_natural, required=True)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--props", type=_natural, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_natural, default=10)
    p.add_argument("--exhaustive", action="store_true")
    common(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "translate":
        if args.direction == "f2a" and not args.formula:
            parser.error("translate f2a requires --formula")
        if args.direction == "a2f" and not args.automaton:
            parser.error("translate a2f requires --automaton")
    try:
        return args.func(args)
    except GradedWLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
