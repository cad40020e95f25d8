"""End-to-end tests for the command-line interface."""

import json

import pytest

from closurelab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order(capsys):
    code, out, _ = run(capsys, "order", "--catalog", "A5")
    assert code == 0
    assert out == "order 60\n"


def test_order_from_generator_file(tmp_path, capsys):
    path = tmp_path / "grp.txt"
    path.write_text("degree 5\n(1 2 3 4 5)\n(1 2 3)\n")
    code, out, _ = run(capsys, "order", "--group-file", str(path))
    assert code == 0
    assert out == "order 60\n"


def test_closure_command(capsys):
    code, out, _ = run(capsys, "closure", "--catalog", "A5", "--k", "4")
    assert code == 0
    assert "order 60" in out
    assert "gen" in out


def test_closure_command_above_a_thousand_points(capsys):
    # M22 on its 1,540 3-sets: the search runs deeper than the recursion limit
    code, out, _ = run(capsys, "closure", "--catalog", "M22", "--action", "ksubsets:3", "--k", "2")
    assert code == 0
    assert "order 443520\n" in out


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--catalog", "A5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "spectrum"
    assert payload["group"] == {"name": "A5", "degree": 5, "order": 60}
    assert payload["result"]["minimal_k"] == 4
    assert [e["order"] for e in payload["result"]["entries"]] == [120, 120, 120, 60]
    assert payload["budget"]["elapsed_ms"] == 0


def test_json_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "spectrum", "--catalog", "A6", "--json")
    _, second, _ = run(capsys, "spectrum", "--catalog", "A6", "--json")
    assert first == second


def test_base_command(capsys):
    code, out, _ = run(capsys, "base", "--catalog", "M11")
    assert code == 0
    assert "size 4" in out
    assert "exhaustive yes" in out


def test_base_greedy_flag(capsys):
    code, out, _ = run(capsys, "base", "--catalog", "S6", "--greedy")
    assert code == 0
    assert "size 5" in out


def test_base_csv(capsys):
    code, out, _ = run(capsys, "base", "--catalog", "S6", "--action", "ksubsets:2", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,action,b,exhaustive,witness"
    assert lines[1].startswith("S6,ksubsets(2),4,True")


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--catalog", "D4", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,action,k,order,error"
    assert lines[1] == "D4,catalog(D4),1,24,"
    assert lines[2] == "D4,catalog(D4),2,8,"


@pytest.mark.parametrize("command", ["base", "spectrum"])
def test_csv_and_json_together_are_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--catalog", "D4", "--csv", "--json")
    assert code == 1
    assert out == ""
    assert "not allowed with" in err


def test_orbits_and_blocks(capsys):
    code, out, _ = run(capsys, "orbits", "--catalog", "A5")
    assert code == 0
    assert "1 orbit(s)" in out
    code, out, _ = run(capsys, "blocks", "--catalog", "D4")
    assert code == 0
    assert "1 maximal system(s)" in out


def test_primitive(capsys):
    code, out, _ = run(capsys, "primitive", "--catalog", "A5")
    assert (code, out) == (0, "primitive\n")
    code, out, _ = run(capsys, "primitive", "--catalog", "D4")
    assert (code, out) == (0, "imprimitive\n")


def test_action_specs(capsys):
    code, out, _ = run(capsys, "order", "--catalog", "S4", "--action", "ksubsets:2")
    assert (code, out) == (0, "order 24\n")
    code, out, _ = run(capsys, "base", "--catalog", "S6", "--action", "partitions:2x3")
    assert code == 0
    assert "size 4" in out


def test_cosets_action(tmp_path, capsys):
    grp = tmp_path / "g.txt"
    grp.write_text("degree 5\n(1 2 3 4 5)\n(1 2 3)\n")
    sub = tmp_path / "h.txt"
    sub.write_text("degree 5\n(2 3 4)\n(2 3)(4 5)\n")
    code, out, _ = run(capsys, "order", "--group-file", str(grp),
                       "--action", f"cosets:{sub}")
    assert (code, out) == (0, "order 60\n")


def test_projective_action_is_rejected(capsys):
    # natural already gives a catalog PSL its projective action
    code, out, err = run(capsys, "order", "--catalog", "PSL(3,2)", "--action", "projective")
    assert (code, out) == (1, "")
    assert "projective" in err


def test_ktrans_command(capsys):
    code, out, _ = run(capsys, "ktrans", "--catalog", "A5", "--max-degree", "12")
    assert code == 0
    assert out.splitlines()[0] == "k 4"
    assert "certified yes" in out


def test_negative_max_degree_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ktrans", "--catalog", "A5", "--max-degree", "-1")
    assert (code, out) == (1, "")
    assert "--max-degree" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "partition-bases")
    assert code == 0
    assert "suite partition-bases: pass" in out
    assert "[pass]" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "psl-bases", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    assert all(c["elapsed_ms"] == 0 for c in payload["result"]["claims"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1
    assert "unknown suite" in err


def test_verify_allow_long_is_rejected(capsys, monkeypatch):
    import closurelab.cli as cli
    from closurelab.harness import run_suite

    seen = []

    def recording(name):
        seen.append(name)
        return run_suite("psl-bases")

    monkeypatch.setattr(cli, "run_suite", recording)
    code, out, err = run(capsys, "verify", "--suite", "an-closure", "--allow-long")
    assert (code, out) == (1, "")
    assert "--allow-long" in err
    # the environment variable that once opened the gate changes nothing
    monkeypatch.setenv("CLOSURELAB_ALLOW_LONG", "1")
    assert run(capsys, "verify", "--suite", "an-closure")[0] == 0
    assert seen == ["an-closure"]


def test_formerly_long_suites_need_no_opt_in(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "m24-base")
    assert code == 0
    assert "suite m24-base: pass" in out


def test_verify_budget_nodes_is_rejected(capsys):
    code, out, err = run(capsys, "verify", "--suite", "psl-bases", "--budget-nodes", "5")
    assert (code, out) == (1, "")
    assert "--budget-nodes" in err


@pytest.mark.parametrize("command", ["order", "orbits", "blocks", "primitive"])
@pytest.mark.parametrize("flag,value", [("--budget-nodes", "5"), ("--budget-seconds", "1")])
def test_budget_flags_are_rejected_where_nothing_is_charged(capsys, command, flag, value):
    code, out, err = run(capsys, command, "--catalog", "A5", flag, value)
    assert (code, out) == (1, "")
    assert flag in err


def test_base_exact_flag_is_rejected(capsys):
    # exact is the default; --greedy is the only mode switch
    code, out, err = run(capsys, "base", "--catalog", "A5", "--exact")
    assert (code, out) == (1, "")
    assert "--exact" in err
    assert run(capsys, "base", "--catalog", "A5")[1] == "size 3\nwitness 1 2 3\nexhaustive yes\n"


@pytest.mark.parametrize("flag,value", [("--budget-nodes", "-5"), ("--budget-seconds", "-1"),
                                        ("--budget-seconds", "nan")])
def test_negative_budgets_are_usage_errors(capsys, flag, value):
    code, out, err = run(capsys, "closure", "--catalog", "PSL(2,8)", "--action", "ksubsets:2",
                         "--k", "2", flag, value)
    assert (code, out) == (1, "")
    assert flag in err
    assert "budget exceeded" not in err


@pytest.mark.parametrize("value", ["-5", "abc", "1.5", ""])
def test_invalid_budget_environment_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", value)
    code, out, err = run(capsys, "closure", "--catalog", "PSL(2,8)", "--action", "ksubsets:2",
                         "--k", "2", "--json")
    assert (code, out) == (1, "")
    assert "CLOSURELAB_BUDGET_NODES" in err
    assert repr(value) in err
    assert "budget exceeded" not in err


@pytest.mark.parametrize("value,code", [("0", 3), ("51", 3), ("52", 0)])
def test_budget_environment_is_honoured_like_the_flag(capsys, monkeypatch, value, code):
    # the PSL(2,8) pairs closure takes 52 nodes
    argv = ["closure", "--catalog", "PSL(2,8)", "--action", "ksubsets:2", "--k", "2"]
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", value)
    got, _, err = run(capsys, *argv)
    assert got == code
    assert ("budget exceeded" in err) == (code == 3)
    monkeypatch.delenv("CLOSURELAB_BUDGET_NODES")
    assert run(capsys, *argv, "--budget-nodes", value)[0] == code


def test_spectrum_budget_is_per_invocation(capsys):
    # k = 2 takes 19 nodes and k = 3 takes 12: each step fits in 25, the two do not
    code, out, err = run(capsys, "spectrum", "--catalog", "A5", "--action", "ksubsets:2",
                         "--budget-nodes", "25")
    assert code == 3
    assert out == "k 1: order 3628800\nk 2: order 120\n"
    assert "budget exceeded" in err


def test_base_prints_its_best_base_when_the_budget_runs_out(capsys):
    # greedy gives 4 points and the information bound only 3, so the search
    # must run to prove 4 minimal, and one node does not let it
    code, out, err = run(capsys, "base", "--catalog", "S6", "--action", "ksubsets:2",
                         "--budget-nodes", "1")
    assert code == 3
    assert out == "size 4\nwitness {1,2} {1,3} {1,4} {1,5}\nexhaustive no\n"
    assert "budget exceeded" in err


@pytest.mark.parametrize("suite", ["halasi-bases", "partition-bases", "base-reduction"])
def test_a_suite_whose_search_runs_out_exits_three(capsys, monkeypatch, suite):
    # a base search that runs out is neither a pass on an upper bound nor a
    # failed claim
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", "0")
    code, _, err = run(capsys, "verify", "--suite", suite)
    assert code == 3
    assert "budget exceeded" in err


def test_verify_names_the_stopped_claim_when_the_first_search_runs_out(capsys, monkeypatch):
    # the first claim's closure chain needs 5 nodes, so nothing finished
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", "0")
    code, out, err = run(capsys, "verify", "--suite", "eq1-monotone")
    assert (code, out) == (3, "")
    assert "budget exceeded: claim monotone-A4 stopped" in err


def test_verify_prints_the_finished_claims_when_a_search_runs_out(capsys, monkeypatch):
    # each claim's walk has its own budget: the first five need at most 8
    # nodes, the S4 pairs walk 17
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", "10")
    code, out, err = run(capsys, "verify", "--suite", "eq1-monotone")
    assert code == 3
    assert [line.split(":")[0] for line in out.splitlines()[::2]] == [
        f"[pass] monotone-{name}" for name in ("A4", "S4", "A5", "A6", "C8")
    ]
    assert "suite eq1-monotone" not in out
    assert "claim monotone-S4-on-2-subsets stopped" in err
    code, out, _ = run(capsys, "verify", "--suite", "eq1-monotone", "--json")
    assert code == 3
    result = json.loads(out)["result"]
    # a partial suite has no verdict
    assert result["passed"] is None
    assert [c["id"] for c in result["claims"]] == [
        f"monotone-{name}" for name in ("A4", "S4", "A5", "A6", "C8")
    ]


def test_ktrans_honours_budget_seconds(capsys):
    code, out, err = run(capsys, "ktrans", "--catalog", "A5", "--max-degree", "12",
                         "--budget-seconds", "0.000001")
    # the natural action's walk is settled by the symmetric shortcut and
    # charges no node; the degree-6 walk's first node is past the cap, and
    # the bounds above the degree bound come only after every walk
    assert code == 3
    assert out == "  degree 5: exact 4\n"
    assert "budget exceeded" in err


def test_ktrans_prints_the_finished_actions_when_the_budget_runs_out(capsys):
    # the walks run narrowest first: degrees 5, 6 and 10 take 0, 10 and 18
    # nodes, and the degree-12 one would take 22 more; no wider class is
    # walked by need, so a partial holds the finished walks and no bound
    argv = ["ktrans", "--catalog", "A5", "--max-degree", "12", "--budget-nodes", "30"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "  degree 5: exact 4\n  degree 6: exact 3\n  degree 10: exact 3\n"
    assert "budget exceeded" in err
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 3
    result = json.loads(out)["result"]
    assert result["k"] is None
    assert result["certified"] is False
    assert [(e["degree"], e["kind"], e["value"], e["source"]) for e in result["entries"]] == [
        (5, "exact", 4, "own"), (6, "exact", 3, "own"), (10, "exact", 3, "own"),
    ]


def test_budget_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "closure", "--catalog", "A5", "--k", "4",
                       "--budget-nodes", "2")
    assert code == 3
    assert "budget exceeded" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "order", "--bogus")[0] == 1
    assert run(capsys, "order")[0] == 1
    assert run(capsys, "order", "--catalog", "A5", "--catalog2")[0] == 1


def test_missing_group_reports_error(capsys):
    code, _, err = run(capsys, "closure", "--k", "2")
    assert code == 1
    assert "group is required" in err


def test_both_group_sources_rejected(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("degree 3\n(1 2 3)\n")
    code, _, err = run(capsys, "order", "--catalog", "A5", "--group-file", str(path))
    assert code == 1
    assert "only one" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "closure", "--help")[0] == 0


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "--list")
    assert code == 0
    assert "M11 M12 M22 M23 M24" in out
    assert "an-closure" in out
    code, out, _ = run(capsys, "catalog", "--list", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "catalog"
    assert "M11 M12 M22 M23 M24   Mathieu groups" in payload["result"]["groups"]
    assert "an-closure" in payload["result"]["suites"]


def test_workers_flag_is_rejected(capsys):
    code, out, err = run(capsys, "order", "--catalog", "A5", "--workers", "4")
    assert (code, out) == (1, "")
    assert "--workers" in err


def test_unknown_action_spec(capsys):
    code, _, err = run(capsys, "order", "--catalog", "A5", "--action", "mystery")
    assert code == 1
    assert "mystery" in err


def test_ktrans_subgroup_enumeration_bound_is_a_size_limit(capsys):
    # M11 has order 7920, above the enumeration bound; no budget ran out
    code, out, err = run(capsys, "ktrans", "--catalog", "M11", "--max-degree", "12")
    assert (code, out) == (1, "")
    assert "budget" not in err
    assert "3000" in err


def test_ktrans_degree_above_256_is_a_size_limit(tmp_path, capsys):
    # order 257 is within the enumeration bound, but the enumeration holds
    # elements as bytes, so a 257-cycle is refused by its degree
    path = tmp_path / "c257.txt"
    path.write_text("degree 257\n(" + " ".join(str(p) for p in range(1, 258)) + ")\n")
    code, out, err = run(capsys, "ktrans", "--group-file", str(path), "--max-degree", "12")
    assert (code, out) == (1, "")
    assert "budget" not in err
    assert "256" in err
