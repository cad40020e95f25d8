"""End-to-end tests for the command-line interface."""

import json
from itertools import count
from types import SimpleNamespace

import pytest

from closurelab import budget as budget_module
from closurelab.budget import Budget
from closurelab.cli import main

from test_actions import _forbid_listing


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
    assert lines[0] == "group,action,k,order"
    assert lines[1] == "D4,catalog(D4),1,24"
    assert lines[2] == "D4,catalog(D4),2,8"


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


def test_verify_names_the_set_up_when_it_runs_out_before_the_first_claim(capsys, monkeypatch):
    # base-reduction enumerates A5's subgroups before its first claim
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", "0")
    code, out, err = run(capsys, "verify", "--suite", "base-reduction")
    assert (code, out) == (3, "")
    assert "budget exceeded: the set-up before the first claim stopped" in err


def test_verify_names_the_set_up_after_the_last_finished_claim(capsys, monkeypatch):
    # each enumeration and claim has its own budget: A5's enumeration takes
    # 735 nodes and its claims fewer, but A6's enumeration takes 7,219, so
    # the run stops between claims, and no claim is named as stopped
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", "1000")
    code, out, err = run(capsys, "verify", "--suite", "base-reduction", "--json")
    assert code == 3
    ids = [c["id"] for c in json.loads(out)["result"]["claims"]]
    assert len(ids) == 10 and all(i.startswith("reduction-A5-") for i in ids)
    assert ids[-1] == "reduction-A5-deg12-to-6"
    assert "budget exceeded: the set-up after claim reduction-A5-deg12-to-6 stopped" in err


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


def test_ktrans_honours_budget_seconds(capsys, monkeypatch):
    argv = ["ktrans", "--catalog", "A5", "--max-degree", "12", "--budget-seconds"]
    # the subgroup enumeration's first charge is past the cap
    code, out, err = run(capsys, *argv, "0.000001")
    assert (code, out) == (3, "")
    assert "budget exceeded: the subgroup enumeration stopped" in err
    # under a clock that steps one second per read, the cap runs out at
    # charge 86: the enumeration takes 735 nodes in 85 charges, the natural
    # action's walk is settled by the symmetric shortcut and charges no
    # node, the degree-6 walk's first node is past the cap, and the bounds
    # above the degree bound come only after every walk
    ticks = count()
    monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    code, out, err = run(capsys, *argv, "85.5")
    assert code == 3
    assert out == "  degree 5: exact 4\n"
    assert "budget exceeded" in err


def test_ktrans_prints_the_finished_actions_when_the_budget_runs_out(capsys):
    # the subgroup enumeration takes 735 nodes; then the walks run
    # narrowest first: degrees 5, 6 and 10 take 0, 10 and 18 nodes, and the
    # degree-12 one would take 22 more; no wider class is walked by need,
    # so a partial holds the finished walks and no bound
    argv = ["ktrans", "--catalog", "A5", "--max-degree", "12", "--budget-nodes", "765"]
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


@pytest.mark.parametrize("spec", ["partitions:5:2", "ksubsets:x"])
def test_malformed_action_spec_names_the_accepted_forms(capsys, spec):
    code, out, err = run(capsys, "base", "--catalog", "S10", "--action", spec)
    assert (code, out) == (1, "")
    assert f"malformed action spec {spec!r}" in err
    assert "ksubsets:K" in err and "partitions:AxB" in err
    assert "int()" not in err


def test_ktrans_subgroup_enumeration_is_capped_by_the_budget(capsys, monkeypatch):
    # M11 has order 7920 and certifies on the default budget
    code, out, _ = run(capsys, "ktrans", "--catalog", "M11", "--max-degree", "12")
    assert code == 0
    assert out.startswith("k 5\ncertified yes\n")
    # M24 has order 244823040, past any node cap: the enumeration's first
    # charge, its six tables beside the listing for M24's three generators
    # in one call, stops it before any element is listed, and exits 3
    monkeypatch.setenv("CLOSURELAB_BUDGET_NODES", "100000")
    _forbid_listing(monkeypatch, "elements listed before the budget was charged")
    code, out, err = run(capsys, "ktrans", "--catalog", "M24", "--max-degree", "24")
    assert (code, out) == (3, "")
    assert "budget exceeded: the subgroup enumeration stopped" in err
    assert f"{6 * 244823040} > 100000" in err


def test_ktrans_refuses_m24_on_the_default_cap_in_a_few_charges(capsys, monkeypatch):
    # the tables of M24's size are charged in bulk, so the default cap
    # refuses it at once, not after 20,000,001 charges of one node each
    monkeypatch.delenv("CLOSURELAB_BUDGET_NODES", raising=False)
    _forbid_listing(monkeypatch, "elements listed before the budget was charged")
    calls = count(1)
    charge = Budget.charge

    def few(self, n=1, partial=None):
        assert next(calls) < 1000, "a thousand charges before the refusal"
        charge(self, n, partial)

    monkeypatch.setattr(Budget, "charge", few)
    code, out, err = run(capsys, "ktrans", "--catalog", "M24", "--max-degree", "24")
    assert (code, out) == (3, "")
    assert err == (
        "budget exceeded: the subgroup enumeration stopped: "
        f"node budget exhausted ({6 * 244823040} > 20000000)\n"
    )


def test_ktrans_degree_above_256_is_a_size_limit(tmp_path, capsys):
    # order 257 is well within the default budget, but the enumeration
    # holds elements as bytes, so a 257-cycle is refused by its degree
    path = tmp_path / "c257.txt"
    path.write_text("degree 257\n(" + " ".join(str(p) for p in range(1, 258)) + ")\n")
    code, out, err = run(capsys, "ktrans", "--group-file", str(path), "--max-degree", "12")
    assert (code, out) == (1, "")
    assert "budget" not in err
    assert "256" in err
