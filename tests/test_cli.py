"""Command-line subcommands and exit codes."""
import argparse
import json

import pytest

from streamcep import cli, ingest_csv, oracle_match, parse_pattern
from streamcep.plangen import bundle_from_json

from helpers import (
    GATE_ABSENT_TYPE,
    GATE_CONJUNCTION,
    GATE_PATTERN,
    GATE_STREAM,
    KLEENE_FILTER,
    plant_fault,
)

PATTERN = "PATTERN SEQ(A a, B b) WITHIN 10 seconds"
STREAM = "A,0,1.0\nB,1,2.0\n"


def run_with_plan(tmp_path, plan_doc, *options):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_doc))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN)
    stream = tmp_path / "stream.csv"
    stream.write_text(STREAM)
    out = tmp_path / "matches.txt"
    return cli.main(["run", str(plan), str(pattern), str(stream), "--out", str(out),
                     *options])


def test_run_with_a_wellformed_plan_succeeds(tmp_path):
    doc = {"conjuncts": [{"order": ["A", "B"]}]}
    assert run_with_plan(tmp_path, doc) == cli.EXIT_OK
    assert (tmp_path / "matches.txt").read_text() == "0,1\n"


def test_run_takes_no_seed(tmp_path, capsys):
    doc = {"conjuncts": [{"order": ["A", "B"]}]}
    assert run_with_plan(tmp_path, doc, "--seed", "1") == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert run_with_plan(tmp_path, doc, "--window", "5") == cli.EXIT_OK


@pytest.mark.parametrize(
    "doc, member",
    [
        ([], "JSON object"),
        ({"conjuncts": {}}, "'conjuncts'"),
        ({"conjuncts": [{"kl": []}]}, "conjuncts[0]"),
        ({"conjuncts": [{"tree": {"left": {"leaf": "A"}, "right": {"leaf": ["B"]}}}]},
         "conjuncts[0].tree.right.leaf"),
        ({"conjuncts": [{"tree": {"left": {"leaf": "A"}}}]}, "conjuncts[0].tree"),
        ({"conjuncts": [{"order": "AB"}]}, "conjuncts[0].order"),
        ({"conjuncts": [{"order": ["A", 2]}]}, "conjuncts[0].order"),
    ],
)
def test_malformed_plan_file_is_a_data_error(tmp_path, capsys, doc, member):
    assert run_with_plan(tmp_path, doc) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: plan ") and member in err


NEGATION = "PATTERN SEQ(A a, NOT(N n), B b) WITHIN 10 seconds"
KLEENE = "PATTERN SEQ(A a, KL(K k), B b) WITHIN 10 seconds"


def older_plan(order, kl=(), checkpoint_at=None):
    """A plan file as earlier versions wrote it, with the Kleene types and
    the negation checkpoints stored next to the order."""
    checkpoints = []
    if checkpoint_at is not None:
        checkpoints.append(
            {"type": "N", "alias": "n", "position": checkpoint_at, "deps": ["A", "B"]}
        )
    conjunct = {"order": list(order), "kl": list(kl), "checkpoints": checkpoints,
                "cost": 1.0, "cost_log2": 0.0, "candidates": 1, "seed": None}
    return {"algorithm": "trivial", "conjuncts": [conjunct]}


@pytest.mark.parametrize(
    "pattern_text, plan_doc, stream_text",
    [
        (NEGATION, older_plan("AB", checkpoint_at=1),
         "A,1,1\nN,2,1\nB,3,1\nA,4,1\nB,5,1\n"),
        (NEGATION, older_plan("AB", checkpoint_at=99),
         "A,1,1\nN,2,1\nB,3,1\nA,4,1\nB,5,1\n"),
        (KLEENE, older_plan("AKB", kl=()), "A,1,1\nK,2,1\nK,3,1\nB,4,1\n"),
    ],
    ids=["checkpoint-1", "checkpoint-99", "no-kl"],
)
def test_older_plan_files_run_with_derived_marks(tmp_path, pattern_text, plan_doc,
                                                  stream_text):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_doc))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(pattern_text)
    stream = tmp_path / "stream.csv"
    stream.write_text(stream_text)
    expected = sorted(
        ",".join(map(str, r.serials))
        for r in oracle_match(parse_pattern(pattern_text), ingest_csv(str(stream)).events)
    )
    assert expected
    out = tmp_path / "matches.txt"
    for engine in ("nfa", "tree"):
        argv = ["run", str(plan), str(pattern), str(stream), "--out", str(out),
                "--engine", engine]
        assert cli.main(argv) == cli.EXIT_OK
        assert sorted(out.read_text().splitlines()) == expected


@pytest.mark.parametrize("kl_cap, warned", [("1", True), ("3", False)])
def test_run_reports_kleene_truncation_on_stderr(tmp_path, capsys, kl_cap, warned):
    # three K events between A and B: a cap of 1 leaves out the larger groups
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"conjuncts": [{"order": ["A", "K", "B"]}]}))
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(KLEENE)
    stream = tmp_path / "stream.csv"
    stream.write_text("A,1,1\nK,2,1\nK,3,1\nK,4,1\nB,5,1\n")
    argv = ["run", str(plan), str(pattern), str(stream),
            "--out", str(tmp_path / "matches.txt"), "--kl-cap", kl_cap]
    # the matches and the stats line are written either way; a cut
    # enumeration is a resource limit, so it also sets the exit code
    assert cli.main(argv) == (cli.EXIT_RESOURCE if warned else cli.EXIT_OK)
    assert (tmp_path / "matches.txt").is_file()
    captured = capsys.readouterr()
    overflows = int(captured.out.splitlines()[1].split(",")[-1])
    assert (overflows > 0) == warned
    if warned:
        assert captured.err == (
            f"warning: {overflows} Kleene enumerations were cut at kl_cap=1; "
            "groups larger than the cap were not matched\n"
        )
    else:
        assert captured.err == ""


@pytest.mark.parametrize("option", ["--kl-cap", "--max-pairs", "--max-coresident"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, option, value):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN)
    stream = tmp_path / "stream.csv"
    stream.write_text(STREAM)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"conjuncts": [{"order": ["A", "B"]}]}))
    commands = {
        "--kl-cap": [["run", str(plan), str(pattern), str(stream)],
                     ["verify", str(pattern), str(stream)]],
        "--max-pairs": [["stats", str(stream), str(pattern)]],
        "--max-coresident": [["verify", str(pattern), str(stream)]],
    }
    for argv in commands[option]:
        assert cli.main(argv + [option, value]) == cli.EXIT_USAGE
        assert option in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"x"', "null"])
def test_a_selectivity_that_is_not_a_number_is_a_data_error(tmp_path, capsys, value):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN)
    stats = tmp_path / "stats.json"
    stats.write_text('{"rates": {"A": 1, "B": 1}, "selectivities": {"A,B": %s}}' % value)
    assert cli.main(["optimize", str(pattern), str(stats)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error: bad statistics value")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_timestamp_is_a_data_error(tmp_path, capsys, value):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN)
    stream = tmp_path / "stream.csv"
    stream.write_text(f"A,1,10\nB,{value},11\nA,3,12\nB,4,13\n")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"conjuncts": [{"order": ["A", "B"]}]}))
    for argv in (["run", str(plan), str(pattern), str(stream),
                  "--out", str(tmp_path / "matches.txt")],
                 ["verify", str(pattern), str(stream)]):
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"stream.csv:2: timestamp {value} is not finite" in capsys.readouterr().err


def gate_run(tmp_path, *options):
    """``run`` of the gate pattern over the gate stream in the order A, B."""
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(GATE_PATTERN)
    stream = tmp_path / "stream.csv"
    stream.write_text(GATE_STREAM)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"conjuncts": [{"order": ["A", "B"]}]}))
    return cli.main(["run", str(plan), str(pattern), str(stream),
                     "--out", str(tmp_path / "matches.txt"), *options])


def test_run_takes_a_selection_strategy(tmp_path):
    # next-match claims A#0 and B#1 first, which leaves only A#4 and B#5
    assert gate_run(tmp_path, "--strategy", "next-match") == cli.EXIT_OK
    assert (tmp_path / "matches.txt").read_text() == "0,1\n4,5\n"


def test_an_unknown_strategy_is_a_usage_error(tmp_path, capsys):
    assert gate_run(tmp_path, "--strategy", "bogus") == cli.EXIT_USAGE
    assert "unknown selection strategy 'bogus'" in capsys.readouterr().err


def test_verify_takes_every_engine_or_known_ones(tmp_path, capsys):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(GATE_PATTERN)
    stream = tmp_path / "stream.csv"
    stream.write_text(GATE_STREAM)
    verify = ["verify", str(pattern), str(stream), "--engine"]
    assert cli.main(verify + ["bogus"]) == cli.EXIT_USAGE
    assert "unknown engine 'bogus'" in capsys.readouterr().err
    assert cli.main(verify + ["all"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15 and all(line.startswith("PASS ") for line in lines)
    assert {line.rsplit("engine=", 1)[1] for line in lines} == {"nfa", "tree"}


# A#0, then twelve Bs: only B#4, B#8 and B#12 rise by more than 0.5
KLEENE_FILTER_STREAM = "".join(
    f"{line}\n" for line in ("A,0,10 B,1,10.10 B,2,10.20 B,3,10.30 B,4,11.30 B,5,11.40 "
                             "B,6,11.50 B,7,11.60 B,8,12.60 B,9,12.70 B,10,12.80 "
                             "B,11,12.90 B,12,13.90").split()
)


def test_a_filtered_kleene_position_runs_alike_on_both_engines(tmp_path, capsys):
    # both engines draw groups from the three Bs that pass, so neither
    # cuts a group at the default cap of 8 and both write the seven groups
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(KLEENE_FILTER)
    stream = tmp_path / "stream.csv"
    stream.write_text(KLEENE_FILTER_STREAM)
    stats, plan = tmp_path / "stats.json", tmp_path / "plan.json"
    assert cli.main(["stats", str(stream), str(pattern), "--out", str(stats)]) == cli.EXIT_OK
    assert cli.main(["optimize", str(pattern), str(stats), "--algorithm", "greedy",
                     "--out", str(plan)]) == cli.EXIT_OK
    written = {}
    for engine in ("nfa", "tree"):
        out = tmp_path / f"{engine}.txt"
        capsys.readouterr()
        assert cli.main(["run", str(plan), str(pattern), str(stream), "--out", str(out),
                         "--engine", engine]) == cli.EXIT_OK, engine
        assert capsys.readouterr().out.splitlines()[1].endswith(",0")
        written[engine] = out.read_text()
    assert written["nfa"] == written["tree"]
    assert sorted(written["nfa"].splitlines()) == sorted(
        ",".join(map(str, r.serials))
        for r in oracle_match(parse_pattern(KLEENE_FILTER), ingest_csv(str(stream)).events)
    )
    assert len(written["nfa"].splitlines()) == 7


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


def verify_gate_stream(tmp_path, pattern_text=GATE_PATTERN):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(pattern_text)
    stream = tmp_path / "stream.csv"
    stream.write_text(GATE_STREAM)
    return cli.main(["verify", str(pattern), str(stream)])


@pytest.mark.parametrize("fault, detail", [
    ("missing", "  missing: 0,1 4,5"),
    ("extra", "  extra: 2,3 2,5"),
    ("late", "  extra: " + " ".join(f"order/groups differ at index {i}" for i in range(3))),
    ("error", "  error: RuntimeError: planted fault"),
    # the sequence's a.ts < b.ts is tested as a.ts > b.ts too: nothing matches
    ("compiled", "  missing: 0,1 0,3 0,5 4,5"),
])
def test_verify_prints_a_planted_fault_and_exits_3(tmp_path, capsys, monkeypatch,
                                                    fault, detail):
    assert verify_gate_stream(tmp_path) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    plant_fault(monkeypatch, fault)
    assert verify_gate_stream(tmp_path) == cli.EXIT_VERIFY == 3
    lines = capsys.readouterr().out.splitlines()
    failed = [i for i, line in enumerate(lines) if line.startswith("FAIL pattern.txt ")]
    assert failed
    assert all(lines[i + 1] == detail for i in failed)
    assert len(lines) == 15 + len(failed)


def test_verify_prints_a_converse_tester_and_exits_3(tmp_path, capsys, monkeypatch):
    # the engines test a.price > b.price: they lose every match and find
    # three that the exhaustive matcher, which interprets, does not
    assert verify_gate_stream(tmp_path, GATE_CONJUNCTION) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    plant_fault(monkeypatch, "compiled")
    assert verify_gate_stream(tmp_path, GATE_CONJUNCTION) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15 * 3
    assert lines[1::3] == ["  missing: 0,1 0,3 0,5 1,4 3,4 4,5"] * 15
    assert lines[2::3] == ["  extra: 1,2 2,3 2,5"] * 15


def test_verify_plans_a_type_absent_from_the_stream(tmp_path, capsys):
    assert verify_gate_stream(tmp_path, GATE_ABSENT_TYPE) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert all(line.startswith("PASS ") for line in lines)


KLEENE_NEGATION = "PATTERN SEQ(A a, KL(K k), NOT(N n), B b) WITHIN 10 seconds"
KLEENE_NEGATION_STREAM = "".join(
    f"{t},{i},{i + 9}\n" for i, t in enumerate("AKKBAKNBAKB", start=1)
)


def verify_dp_b_plan(tmp_path, *options):
    """``optimize --algorithm dp-b`` then ``verify --plan``, as CI runs them."""
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(KLEENE_NEGATION)
    stream = tmp_path / "stream.csv"
    stream.write_text(KLEENE_NEGATION_STREAM)
    stats, plan = tmp_path / "stats.json", tmp_path / "plan.json"
    assert cli.main(["stats", str(stream), str(pattern), "--out", str(stats)]) == cli.EXIT_OK
    assert cli.main(["optimize", str(pattern), str(stats), "--algorithm", "dp-b",
                     "--out", str(plan)]) == cli.EXIT_OK
    assert "tree" in json.loads(plan.read_text())["conjuncts"][0]
    return cli.main(["verify", str(pattern), str(stream), "--plan", str(plan), *options])


def test_verify_runs_a_tree_plan_on_the_tree_engine_only(tmp_path, capsys):
    assert verify_dp_b_plan(tmp_path) == cli.EXIT_OK
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("PASS ") and line.endswith("engine=tree")


@pytest.mark.parametrize("engines", ["nfa", "nfa,tree"])
def test_verify_refuses_the_nfa_for_a_tree_plan(tmp_path, capsys, engines):
    assert verify_dp_b_plan(tmp_path, "--engine", engines) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "the chain NFA cannot execute a tree plan" in captured.err


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("algorithm", ["greedy", "dp-b"])
def test_log_space_plan_files_are_standard_json(tmp_path, algorithm):
    # K's weight 2**(200 * 10) is past the float range, so the linear cost
    # is infinite and only cost_log2 holds it
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("PATTERN SEQ(A a, KL(K k), B b) WITHIN 10 seconds\n")
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"rates": {"A": 1, "B": 1, "K": 200}}))
    plan = tmp_path / "plan.json"
    assert cli.main(["optimize", str(pattern), str(stats), "--algorithm", algorithm,
                     "--out", str(plan)]) == cli.EXIT_OK
    doc = strict_json(plan.read_text())
    (conjunct,) = doc["conjuncts"]
    assert conjunct["cost"] is None and conjunct["cost_log2"] > 1020
    (planned,) = bundle_from_json(doc).conjuncts
    assert planned.report.cost == float("inf")
    assert planned.report.cost_log2 == conjunct["cost_log2"]
    stream = tmp_path / "stream.csv"
    stream.write_text("A,0,1.0\nK,1,2.0\nB,2,3.0\n")
    out = tmp_path / "matches.txt"
    assert cli.main(["run", str(plan), str(pattern), str(stream), "--out", str(out)]) == cli.EXIT_OK
    assert out.read_text() == "0,1,2\n"
