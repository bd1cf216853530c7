import json

import pytest

from gradedwl.cli import main

MODEL_CHAIN = """gradedwl-model v1
props 0
channels 1
nodes 0 1
edge 1 0 1
val 0 1
"""

MODEL_PATH3 = """gradedwl-model v1
channels 1
nodes 0 1 2
edge 1 0 1
edge 1 1 0
edge 1 1 2
edge 1 2 1
"""

MODEL_TRIANGLE = """gradedwl-model v1
channels 1
nodes 0 1 2
edge 1 0 1
edge 1 1 2
edge 1 2 0
"""

AUTOMATON_SEES_P0 = """gradedwl-automaton v1
props 0
channels 1
states yes no ok
init {p0} yes
init default no
rule yes else -> yes
rule no [1: yes>=1] -> ok
rule no else -> no
rule ok else -> ok
accept ok yes
"""


@pytest.fixture
def chain(tmp_path):
    path = tmp_path / "chain.model"
    path.write_text(MODEL_CHAIN)
    return str(path)


@pytest.fixture
def path3(tmp_path):
    path = tmp_path / "path3.model"
    path.write_text(MODEL_PATH3)
    return str(path)


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "triangle.model"
    path.write_text(MODEL_TRIANGLE)
    return str(path)


class TestCheck:
    def test_true_exit_zero(self, chain, capsys):
        assert main(["check", chain, "0", "<1:1>p0"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_exit_one(self, chain, capsys):
        assert main(["check", chain, "1", "<1:1>p0"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_json(self, chain, capsys):
        assert main(["check", chain, "0", "p0", "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"verdict": False}

    def test_syntax_error_exit_three(self, chain, capsys):
        assert main(["check", chain, "0", "(p0 &"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_three(self, capsys):
        assert main(["check", "/nonexistent.model", "0", "T"]) == 3

    def test_bad_point_exit_three(self, chain):
        assert main(["check", chain, "9", "T"]) == 3

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check"])
        assert err.value.code == 2


class TestType:
    def test_depth_one_serialization(self, chain, capsys):
        assert main(["type", chain, "1", "--depth", "1"]) == 0
        assert capsys.readouterr().out.strip() == (
            "(type d1 (atoms p0) (ch 1 (total 0)))"
        )

    def test_explicit_width(self, chain, capsys):
        assert main(["type", chain, "0", "--width", "1"]) == 0
        out = capsys.readouterr().out
        assert "(>= 1" in out

    def test_render_satisfied_formula(self, chain, capsys):
        assert main(["type", chain, "0", "--depth", "1", "--render", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth"] == 1
        assert "formula" in payload
        # the rendered formula must hold at the very point it came from
        from gradedwl import check, parse
        from gradedwl.formats import parse_model
        from gradedwl.kripke import PointedModel

        m = parse_model(MODEL_CHAIN)
        f = parse(payload["formula"], m.vocab)
        assert check(PointedModel(m, 0), f)


class TestRefine:
    def test_stable_output(self, path3, capsys):
        assert main(["refine", path3, "--stable", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"] == 2
        assert payload["stable_at"] == 2

    def test_fixed_rounds_trace(self, path3, capsys):
        assert main(["refine", path3, "--rounds", "2", "--trace", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [t["round"] for t in payload["trace"]] == [0, 1, 2]
        assert [t["classes"] for t in payload["trace"]] == [1, 2, 2]

    def test_classic_requires_symmetry(self, chain):
        assert main(["refine", chain, "--stable", "--classic"]) == 3

    def test_symmetric_closure_flag(self, triangle, capsys):
        assert main(["refine", triangle, "--stable", "--symmetric",
                     "--classic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"] == 1


class TestDistinguish:
    def test_equivalent_cycles(self, triangle, tmp_path, capsys):
        square = tmp_path / "square.model"
        square.write_text(
            "gradedwl-model v1\nchannels 1\nnodes 0 1 2 3\n"
            "edge 1 0 1\nedge 1 1 2\nedge 1 2 3\nedge 1 3 0\n"
        )
        code = main(["distinguish", triangle, "0", str(square), "0",
                     "--oracle", "both", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert payload["oracles_agree"] is True

    def test_separated_with_formula(self, path3, capsys):
        code = main(["distinguish", path3, "0", path3, "1",
                     "--oracle", "both", "--formula", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["separated_at"] == 1
        assert payload["formula_verified"] is True
        assert payload["oracles_agree"] is True


class TestRun:
    def test_accepted(self, chain, tmp_path, capsys):
        aut = tmp_path / "a.automaton"
        aut.write_text(AUTOMATON_SEES_P0)
        assert main(["run", str(aut), chain, "0", "--max-rounds", "2"]) == 0
        assert "accepted_at: 1" in capsys.readouterr().out

    def test_not_accepted(self, tmp_path, capsys):
        aut = tmp_path / "a.automaton"
        aut.write_text(AUTOMATON_SEES_P0)
        lone = tmp_path / "lone.model"
        lone.write_text("gradedwl-model v1\nprops 0\nchannels 1\nnodes 0\n")
        assert main(["run", str(aut), str(lone), "0"]) == 1
        assert "not_accepted_within_budget" in capsys.readouterr().out

    def test_vocab_mismatch_is_input_error(self, path3, tmp_path):
        aut = tmp_path / "a.automaton"
        aut.write_text(AUTOMATON_SEES_P0)
        assert main(["run", str(aut), path3, "0"]) == 3


class TestTranslate:
    def test_f2a_types_listed(self, capsys):
        assert main(["translate", "f2a", "--formula", "<1:1>T", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["types"]) == 2
        assert payload["budget_reached"] is False

    def test_f2a_budget_exit_four(self, capsys):
        assert main(["translate", "f2a", "--formula", "T",
                     "--props", "0,1", "--max-items", "2"]) == 4
        assert "budget_reached" in capsys.readouterr().out

    def test_f2a_requires_formula(self):
        with pytest.raises(SystemExit) as err:
            main(["translate", "f2a"])
        assert err.value.code == 2

    def test_a2f(self, tmp_path, capsys):
        aut = tmp_path / "a.automaton"
        aut.write_text(AUTOMATON_SEES_P0)
        assert main(["translate", "a2f", "--automaton", str(aut),
                     "--max-rounds", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["types"]

    def test_deterministic_output(self, capsys):
        main(["translate", "f2a", "--formula", "<1:=1>T"])
        first = capsys.readouterr().out
        main(["translate", "f2a", "--formula", "<1:=1>T"])
        assert capsys.readouterr().out == first


class TestRoundtrip:
    def test_exhaustive_small(self, capsys):
        code = main(["roundtrip", "<1:1>T", "--max-nodes", "2",
                     "--max-rounds", "1", "--exhaustive", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disagreements"] == 0
        assert payload["models"] > 0


class TestGen:
    def test_exhaustive_count(self, capsys):
        assert main(["gen", "--max-nodes", "1", "--max-degree", "1",
                     "--props", "1", "--exhaustive", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["models"]) == 4

    def test_generated_models_reparse(self, capsys):
        from gradedwl.formats import parse_model

        assert main(["gen", "--max-nodes", "2", "--max-degree", "1",
                     "--count", "5", "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["models"]) == 5
        for doc in payload["models"]:
            parse_model(doc)

    def test_cap_refusal_exit_three(self, capsys):
        assert main(["gen", "--max-nodes", "6", "--max-degree", "5",
                     "--exhaustive"]) == 3


@pytest.mark.parametrize("automaton, argv", [
    (None, ["type", "{model}", "0", "--width", "1,x"]),
    (AUTOMATON_SEES_P0.replace("yes>=1", "b>=x"), ["run", "{automaton}", "{model}", "0"]),
    (AUTOMATON_SEES_P0.replace("yes>=1", "b>=1"), ["run", "{automaton}", "{model}", "0"]),
    (AUTOMATON_SEES_P0.replace("[1:", "[2:"), ["run", "{automaton}", "{model}", "0"]),
    (AUTOMATON_SEES_P0.replace("init default no", "init default zz"),
     ["run", "{automaton}", "{model}", "0"]),
    (AUTOMATON_SEES_P0.replace("[1: yes>=1]", "garbage"), ["run", "{automaton}", "{model}", "0"]),
    (AUTOMATON_SEES_P0.replace("[1: yes>=1]", "[1: yes>=1] [1: total=2]"),
     ["run", "{automaton}", "{model}", "0"]),
], ids=["width-not-integer", "pattern-count-not-integer", "pattern-state-undeclared",
        "pattern-channel-out-of-range", "init-target-undeclared", "pattern-stray-text",
        "pattern-channel-repeated"])
def test_malformed_input_exit_three(automaton, argv, chain, tmp_path, capsys):
    aut = tmp_path / "a.automaton"
    if automaton is not None:
        aut.write_text(automaton)
    assert main([arg.format(model=chain, automaton=aut) for arg in argv]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["type", "{model}", "0", "--depth", "-1"],
    ["refine", "{model}", "--rounds", "-1"],
    ["run", "{automaton}", "{model}", "0", "--max-rounds", "-1"],
    ["translate", "f2a", "--formula", "T", "--max-degree", "-1"],
    ["translate", "f2a", "--formula", "T", "--max-items", "-1"],
    ["roundtrip", "T", "--max-nodes", "-1"],
    ["gen", "--max-nodes", "1", "--max-degree", "1", "--count", "-1"],
    ["gen", "--max-nodes", "1", "--max-degree", "1", "--props", "-1", "--exhaustive"],
], ids=["depth", "rounds", "max-rounds", "max-degree", "max-items", "max-nodes", "count",
        "props"])
def test_negative_count_is_usage_error(argv, chain, tmp_path):
    aut = tmp_path / "a.automaton"
    aut.write_text(AUTOMATON_SEES_P0)
    with pytest.raises(SystemExit) as err:
        main([arg.format(model=chain, automaton=aut) for arg in argv])
    assert err.value.code == 2
