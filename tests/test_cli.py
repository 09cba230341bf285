"""Command-line subcommands and exit codes."""
import argparse
import json

import pytest

from streamcep import cli

PATTERN = "PATTERN SEQ(A a, B b) WITHIN 10 seconds"
STREAM = "A,0,1.0\nB,1,2.0\n"
CHECKPOINT = {"type": "N", "alias": "n", "position": 1, "deps": []}


def run_with_plan(tmp_path, plan_doc):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_doc))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN)
    stream = tmp_path / "stream.csv"
    stream.write_text(STREAM)
    out = tmp_path / "matches.txt"
    return cli.main(["run", str(plan), str(pattern), str(stream), "--out", str(out)])


def test_run_with_a_wellformed_plan_succeeds(tmp_path):
    doc = {"conjuncts": [{"order": ["A", "B"]}]}
    assert run_with_plan(tmp_path, doc) == cli.EXIT_OK
    assert (tmp_path / "matches.txt").read_text() == "0,1\n"


@pytest.mark.parametrize(
    "doc, member",
    [
        ([], "JSON object"),
        ({"conjuncts": {}}, "'conjuncts'"),
        ({"conjuncts": [{"kl": []}]}, "conjuncts[0]"),
        (
            {"conjuncts": [{"order": ["A", "B"], "checkpoints": [
                {"type": "N", "position": 1, "deps": []}]}]},
            "'alias'",
        ),
        ({"conjuncts": [{"tree": {"left": {"leaf": "A"}}}]}, "conjuncts[0].tree"),
        ({"conjuncts": [{"order": "AB"}]}, "conjuncts[0].order"),
        ({"conjuncts": [{"order": ["A", 2]}]}, "conjuncts[0].order"),
        ({"conjuncts": [{"order": ["A", "B"], "kl": "B"}]}, "conjuncts[0].kl"),
        ({"conjuncts": [{"order": ["A", "B"], "checkpoints": [CHECKPOINT | {"deps": "A"}]}]},
         "conjuncts[0].checkpoints[0].deps"),
        ({"conjuncts": [{"order": ["A", "B"], "checkpoints": [CHECKPOINT | {"position": "x"}]}]},
         "conjuncts[0].checkpoints[0].position"),
        ({"conjuncts": [{"order": ["A", "B"], "checkpoints": [CHECKPOINT | {"position": -1}]}]},
         "conjuncts[0].checkpoints[0].position"),
        ({"conjuncts": [{"order": ["A", "B"], "checkpoints": [CHECKPOINT | {"position": True}]}]},
         "conjuncts[0].checkpoints[0].position"),
        ({"conjuncts": [{"order": ["A", "B"], "checkpoints": [CHECKPOINT | {"alias": 1}]}]},
         "conjuncts[0].checkpoints[0].alias"),
        ({"conjuncts": [{"tree": {"left": {"leaf": "A"}, "right": {"leaf": ["B"]}}}]},
         "conjuncts[0].tree.right.leaf"),
    ],
)
def test_malformed_plan_file_is_a_data_error(tmp_path, capsys, doc, member):
    assert run_with_plan(tmp_path, doc) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: plan ") and member in err


def test_subcommands_are_optimize_run_stats_verify():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["optimize", "run", "stats", "verify"]


def test_bench_is_not_a_subcommand(capsys):
    assert cli.main(["bench"]) == cli.EXIT_USAGE
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_verify_corpus_passes_every_cell(capsys):
    assert cli.main(["verify", "--corpus"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 225
    assert all(line.startswith("PASS ") for line in lines)
