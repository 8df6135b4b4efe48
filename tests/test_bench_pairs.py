"""``tools/bench_pairs.py`` summary on hand-written runs."""

import importlib.util
import json
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "round_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "work_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25}]


def run(workload, seed, round_s, failed=0, correct=True, rounds=30):
    return {"workload": workload, "seed": seed, "env": {}, "correct": correct,
            "attempted": 3, "failed": failed, "rounds": rounds,
            "metrics": {"round_s": round_s, "work_per_s": 1.0 / round_s}}


def test_summary_of_hand_written_runs():
    # Listed out of seed order, as alternating pairs leave them.
    parent = [run("w", s, t) for s, t in
              [(3, 1.0), (1, 2.0), (2, 3.0), (4, 5.0)]]
    change = [run("w", s, t) for s, t in
              [(1, 1.0), (3, 1.0), (2, 4.0), (4, 2.0)]]
    doc = bench_pairs.summarize({"parent": parent, "change": change}, METRICS)
    w = doc["w"]
    assert w["pairs"] == 4 and w["seeds"] == [1, 2, 3, 4]
    rs = w["metrics"]["round_s"]
    assert rs["parent"]["runs"] == [2.0, 3.0, 1.0, 5.0]
    # Inclusive quartiles: positions 0.75, 1.5 and 2.25 of the sorted runs.
    assert (rs["parent"]["q1"], rs["parent"]["median"],
            rs["parent"]["q3"]) == (1.75, 2.5, 3.5)
    assert (rs["change"]["q1"], rs["change"]["median"],
            rs["change"]["q3"]) == (1.0, 1.5, 2.5)
    # Seeds 1 and 4 won, seed 2 lost, seed 3 tied.
    assert rs["change_better_in_pairs"] == 2
    assert rs["change_over_parent_median"] == pytest.approx(0.6)
    # Higher is better for work_per_s: the same pairs win.
    assert w["metrics"]["work_per_s"]["change_better_in_pairs"] == 2
    assert w["failed"] == {"parent": ["0/3"], "change": ["0/3"]}
    assert w["correct_in_every_run"]
    # The parent's spread, 1.75 around 2.5, is wider than the 0.25 bound.
    assert rs["parent_iqr_over_median"] == pytest.approx(0.7)
    assert not rs["resolved"]
    assert not rs["claim_rule_met"] and not rs["worse_beyond_bound"]


# Ten parent runs with quartiles 0.9825, 1.0 and 1.0175.
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def verdicts(change, metric="round_s"):
    """The verdicts on ``metric`` for ten pairs, the parent's round_s from
    PARENT and the change's from ``change``."""
    runs = {"parent": [run("w", s, t) for s, t in enumerate(PARENT)],
            "change": [run("w", s, t) for s, t in enumerate(change)]}
    entry = bench_pairs.summarize(runs, METRICS)["w"]["metrics"][metric]
    return {k: entry[k] for k in ("parent_iqr_over_median", "resolved",
                                  "change_better_in_every_run",
                                  "worse_beyond_bound", "claim_rule_met")}


@pytest.mark.parametrize("metric", ["round_s", "work_per_s"])
def test_claim_rule(metric):
    faster = [0.9 * t for t in PARENT]
    got = verdicts([1.05] + faster[1:], metric)
    assert got["parent_iqr_over_median"] == pytest.approx(0.035, rel=1e-3)
    assert got["resolved"] and not got["worse_beyond_bound"]
    # Nine wins of ten and a median gap of about 0.1, above the 0.035 range.
    assert got["claim_rule_met"]
    # The losing run, 1.05, is slower than the parent's best, 0.97.
    assert not got["change_better_in_every_run"]
    assert verdicts(faster, metric)["change_better_in_every_run"]
    # Eight wins are too few.
    assert not verdicts([1.05, 1.05] + faster[2:], metric)["claim_rule_met"]
    # Ten wins, but the medians differ by 0.01, inside the parent's range.
    assert not verdicts([t - 0.01 for t in PARENT], metric)["claim_rule_met"]


@pytest.mark.parametrize("metric", ["round_s", "work_per_s"])
def test_better_in_every_run_resolves_a_wide_parent(metric):
    # Parent runs 1..10: quartiles 3.25, 5.5 and 7.75, a spread of 0.82
    # of the median, far above the 0.25 bound.
    wide = [1.0 + s for s in range(10)]
    runs = {"parent": [run("w", s, t) for s, t in enumerate(wide)]}
    entry = {}
    for name, change in [("apart", [0.5 + 0.04 * s for s in range(10)]),
                         ("touching", [0.5] * 9 + [1.0]),
                         ("overlapping", [0.5] * 9 + [1.5])]:
        runs["change"] = [run("w", s, t) for s, t in enumerate(change)]
        entry[name] = bench_pairs.summarize(runs, METRICS)["w"]["metrics"][
            metric]
    assert not any(e["resolved"] for e in entry.values())
    # The slowest change run, 0.86 s, beats the fastest parent run, 1 s;
    # for work_per_s the same runs are the higher-better extremes.
    assert entry["apart"]["change_better_in_every_run"]
    # A tie with the parent's best run, or a run past it, is not better.
    assert not entry["touching"]["change_better_in_every_run"]
    assert not entry["overlapping"]["change_better_in_every_run"]


def test_worse_beyond_bound():
    # Against the 0.25 bound, relative to the parent's median.
    assert verdicts([1.3 * t for t in PARENT])["worse_beyond_bound"]
    assert not verdicts([1.2 * t for t in PARENT])["worse_beyond_bound"]
    # work_per_s is higher-better: 30% less work per second is worse.
    slower = [t / 0.7 for t in PARENT]
    assert verdicts(slower, "work_per_s")["worse_beyond_bound"]
    assert not verdicts(slower[:1] + PARENT[1:], "work_per_s")[
        "worse_beyond_bound"]


def test_failures_and_incorrect_runs_reported():
    parent = [run("w", 1, 1.0), run("w", 2, 1.0)]
    change = [run("w", 1, 1.0, failed=1), run("w", 2, 1.0, correct=False)]
    w = bench_pairs.summarize({"parent": parent, "change": change},
                              METRICS)["w"]
    assert w["failed"]["change"] == ["0/3", "1/3"]
    assert not w["correct_in_every_run"]


def test_workloads_kept_apart():
    parent = [run("a", 1, 1.0), run("b", 1, 2.0)]
    change = [run("b", 1, 1.0), run("a", 1, 3.0)]
    doc = bench_pairs.summarize({"parent": parent, "change": change}, METRICS)
    assert list(doc) == ["a", "b"]
    assert doc["a"]["metrics"]["round_s"]["change_better_in_pairs"] == 0
    assert doc["b"]["metrics"]["round_s"]["change_better_in_pairs"] == 1


def test_rounds_reported_in_seed_order():
    # A faster side fits more rounds in its time, and keeps them all.
    parent = [run("w", s, 1.0, rounds=r) for s, r in [(2, 29), (1, 30)]]
    change = [run("w", s, 0.5, rounds=r) for s, r in [(1, 60), (2, 58)]]
    w = bench_pairs.summarize({"parent": parent, "change": change},
                              METRICS)["w"]
    assert w["rounds"] == {"parent": [30, 29], "change": [60, 58]}


def test_run_once_counts_the_rounds(monkeypatch):
    info = {"env": {"nproc": 2}, "round_times": [0.5, 0.4, 0.6]}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"round_s": {"value": 0.5, "unit": "s"}}}
    stdout = "setup\n" + json.dumps(info) + "\n" + json.dumps(result) + "\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: (
        subprocess.CompletedProcess(a, 0, stdout=stdout, stderr="")))
    got = bench_pairs.run_once(".", "w", 7, 30)
    assert got["rounds"] == 3 and got["metrics"] == {"round_s": 0.5}
    assert got["env"] == {"nproc": 2}


def test_different_seeds_rejected():
    with pytest.raises(ValueError, match="different seeds"):
        bench_pairs.summarize({"parent": [run("w", 1, 1.0)],
                               "change": [run("w", 2, 1.0)]}, METRICS)
