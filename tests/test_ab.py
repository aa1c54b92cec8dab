"""tools/ab.py alternates the sides of each pair, runs an A/A control and summarizes, with a stub runner."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def stub_runner(values, calls):
    """A runner returning values[side][seed - 1] as op_ms_p50, recording (checkout, workload, seed)."""
    def run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        side = {"p": "parent", "c": "change"}[checkout.name[0]] if checkout.name != "ctl" else "control"
        ms = values[side][seed - 1]
        return {"metrics": {"op_ms_p50": ms, "throughput_per_s": 1e3 / ms}, "correct": True, "env": {}}
    return run


CHECKOUTS = {"parent": Path("p"), "change": Path("c"), "control": Path("ctl")}


def test_pairs_alternate_which_side_runs_first_and_control_runs_the_parent():
    tool = load_tool()
    calls = []
    values = {"parent": [100, 100, 100], "change": [80, 80, 80], "control": [101, 99, 100]}
    rounds = tool.run_pairs(CHECKOUTS, "predict_paper", 3, 7, stub_runner(values, calls))
    assert [c[2] for c in calls] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert {c[1] for c in calls} == {"predict_paper"} and {c[3] for c in calls} == {7}
    assert [c[0].name for c in calls[:6]] == ["p", "c", "ctl", "ctl", "c", "p"]
    assert [r["order"] for r in rounds] == [["parent", "change", "control"],
                                            ["control", "change", "parent"],
                                            ["parent", "change", "control"]]
    assert [r["change"]["metrics"]["op_ms_p50"] for r in rounds] == [80, 80, 80]
    assert [r["control"]["metrics"]["op_ms_p50"] for r in rounds] == [101, 99, 100]


def summary_of(tool, parent, change, control):
    rounds = tool.run_pairs(CHECKOUTS, "w", len(parent), 1,
                            stub_runner({"parent": parent, "change": change, "control": control}, []))
    return tool.summarize(rounds, {"op_ms_p50": "lower", "throughput_per_s": "higher"})


def test_a_clear_gain_is_resolved_and_meets_the_claim_rule():
    tool = load_tool()
    parent = [100, 104, 98, 102, 100, 101, 99, 103, 97, 100]
    s = summary_of(tool, parent, [0.6 * p for p in parent], [p + 1 for p in parent])
    ms, tp = s["op_ms_p50"], s["throughput_per_s"]
    assert ms["parent_median"] == 100 and ms["change_median"] == pytest.approx(60)
    assert ms["parent_q1"] <= ms["parent_median"] <= ms["parent_q3"]
    assert ms["parent_iqr"] == pytest.approx(ms["parent_q3"] - ms["parent_q1"])
    assert ms["change_over_parent"] == pytest.approx([0.6] * 10)
    assert ms["change_wins"] == 10 and tp["change_wins"] == 10  # lower ms and higher throughput both win
    assert ms["aa_spread"] == pytest.approx(1 / 97)
    assert ms["resolved"] and ms["meets_claim_rule"] and tp["meets_claim_rule"]


def test_a_difference_inside_the_aa_spread_is_unresolved():
    tool = load_tool()
    parent = [100.0] * 10
    s = summary_of(tool, parent, [95.0] * 10, [100.0] * 9 + [108.0])
    ms = s["op_ms_p50"]
    assert ms["change_wins"] == 10 and ms["change_over_parent_median"] == pytest.approx(0.95)
    assert ms["aa_spread"] == pytest.approx(0.08)
    assert not ms["resolved"]


def test_eight_wins_in_ten_miss_the_claim_rule_and_ties_count_for_neither():
    tool = load_tool()
    parent = [100.0] * 10
    s = summary_of(tool, parent, [50.0] * 8 + [100.0, 150.0], [100.0] * 10)
    assert s["op_ms_p50"]["change_wins"] == 8
    assert s["throughput_per_s"]["change_wins"] == 8
    assert s["op_ms_p50"]["resolved"] and not s["op_ms_p50"]["meets_claim_rule"]


def test_main_exports_the_parent_and_merges_workloads_into_the_report(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    exported, calls, seconds = [], [], set()
    monkeypatch.setattr(tool, "export", lambda rev, dest: exported.append((rev, dest)) or "abc123")

    def run(checkout, workload, seed, run_seconds):
        calls.append((checkout, workload))
        seconds.add(run_seconds)
        ms = 50.0 if checkout == tool.ROOT else 100.0
        metrics = {"setup_s": 1.0, "op_ms_p50": ms, "throughput_per_s": 1e3 / ms, "peak_rss_mb": 300.0,
                   "success_rate": 1.0}
        return {"metrics": metrics, "correct": True, "env": {}}

    monkeypatch.setattr(tool, "run_perfbench", run)
    out = tmp_path / "ab.json"
    assert tool.main(["HEAD~1", "--workload", "train_small", "--pairs", "2", "--out", str(out)]) == 0
    assert tool.main(["HEAD~1", "--workload", "stack_volumetry", "--pairs", "1", "--out", str(out)]) == 0
    assert [rev for rev, _ in exported] == ["HEAD~1", "HEAD~1"]
    assert all(dest != tool.ROOT for _, dest in exported)
    assert sum(checkout == tool.ROOT for checkout, _ in calls) == 3  # one change run per pair
    report = json.loads(out.read_text())
    assert sorted(report["workloads"]) == ["stack_volumetry", "train_small"]
    train = report["workloads"]["train_small"]
    run_seconds = json.loads((tool.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert train["parent_commit"] == "abc123" and train["seconds"] == run_seconds and len(train["pairs"]) == 2
    assert seconds == {run_seconds}
    assert set(train["summary"]) == {"setup_s", "op_ms_p50", "throughput_per_s", "peak_rss_mb", "success_rate"}
    assert train["summary"]["op_ms_p50"]["change_over_parent_median"] == 0.5
    assert "train_small op_ms_p50: parent 100 change 50 ratio 0.500 wins 2/2" in capsys.readouterr().out
