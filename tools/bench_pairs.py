"""Run alternating parent/change pairs of ``perfbench/run.py`` and summarize
them in the layout of the committed ``BENCH_*.json`` files.

Each pair runs one workload with one seed once in each of two checkouts,
each run a fresh process: the parent first in even pairs, the change first
in odd ones, and pair i uses seed SEED + i.  The summary holds, per
workload and end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles over the pairs and every run in seed order, the number of
pairs the change won (ties count for neither side) and the ratio of the
medians; per workload also each side's failed shares, each side's round
counts in seed order (a run keeps every round's outputs, so its
``peak_rss_mb`` grows with the rounds it fits in its time) and whether
every run was correct.  Per metric it also reads off these verdicts, all but
one against the metric's ``bound``:

- ``resolved``: the parent's interquartile range, over its median
  (``parent_iqr_over_median``), is within the bound, so a change of the
  bound's size would stand out from the parent's own spread;
- ``change_better_in_every_run``: every run of the change is better than
  every run of the parent, which tells the two apart however wide the
  parent's spread;
- ``worse_beyond_bound``: the change's median is worse than the
  parent's by more than the bound, relative to the parent's median;
- ``claim_rule_met``: the change won at least 9 of every 10 pairs and its
  median is better than the parent's by more than the parent's
  interquartile range.

Run from the repository root, with the parent commit checked out in
another directory:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload propagate-long --pairs 10 --seed 4101 --out BENCH_x.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload W --seed S --seconds {} "
           "--trace 0")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in ``checkout``: its result line and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    info, result = map(json.loads, proc.stdout.splitlines()[-2:])
    return {"workload": workload, "seed": seed, "env": info["env"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "rounds": len(info["round_times"]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def describe(checkout):
    """The checkout's commit, marked when its working tree differs, or
    None outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always",
                           "--dirty", "--abbrev=40"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _round(x):
    return float(f"{x:.6g}")


def summarize(runs, metrics):
    """Per-workload summary of ``runs``, a mapping from side to the list of
    that side's runs (as :func:`run_once` returns them).  ``metrics`` is
    the ``end_to_end`` list of ``BENCHMARK.json``."""
    out = {}
    workloads = dict.fromkeys(r["workload"] for r in runs["parent"])
    for w in workloads:
        mine = {side: sorted((r for r in runs[side] if r["workload"] == w),
                             key=lambda r: r["seed"]) for side in SIDES}
        seeds = [r["seed"] for r in mine["parent"]]
        if [r["seed"] for r in mine["change"]] != seeds:
            raise ValueError(f"{w}: the sides ran different seeds")
        summary = {}
        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            vals = {side: [r["metrics"][name] for r in mine[side]]
                    for side in SIDES}
            entry = {"unit": m["unit"], "better": m["better"]}
            quartiles = {}
            for side in SIDES:
                q1, med, q3 = quartiles[side] = np.percentile(
                    vals[side], [25, 50, 75])
                entry[side] = {"median": _round(med), "q1": _round(q1),
                               "q3": _round(q3),
                               "runs": [_round(v) for v in vals[side]]}
            wins = sum(sign * (c - p) < 0
                       for p, c in zip(vals["parent"], vals["change"]))
            q1, med, q3 = quartiles["parent"]
            changed = quartiles["change"][1]
            gain = sign * (med - changed)
            spread = (q3 - q1) / med
            entry["change_better_in_pairs"] = wins
            entry["change_over_parent_median"] = _round(changed / med)
            entry["parent_iqr_over_median"] = _round(spread)
            entry["resolved"] = bool(spread <= m["bound"])
            entry["change_better_in_every_run"] = bool(
                max(sign * v for v in vals["change"])
                < min(sign * v for v in vals["parent"]))
            entry["worse_beyond_bound"] = bool(-gain / med > m["bound"])
            entry["claim_rule_met"] = bool(10 * wins >= 9 * len(seeds)
                                           and gain > q3 - q1)
            summary[name] = entry
        out[w] = {
            "pairs": len(seeds), "seeds": seeds, "metrics": summary,
            "failed": {side: sorted({f"{r['failed']}/{r['attempted']}"
                                     for r in mine[side]}) for side in SIDES},
            "rounds": {side: [r["rounds"] for r in mine[side]]
                       for side in SIDES},
            "correct_in_every_run": all(r["correct"] for side in SIDES
                                        for r in mine[side])}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", default=ROOT, type=Path,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair")
    parser.add_argument("--out", type=Path,
                        help="write the summary here instead of stdout")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for w in args.workload:
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(checkouts[side], w, args.seed + i,
                               bench["run_seconds"])
                runs[side].append(run)
                print(f"{w} seed {args.seed + i} {side}: rounds "
                      f"{run['rounds']}, " + ", ".join(
                          f"{k} {v:.4g}" for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
    doc = {
        "what": "perfbench end-to-end metrics at the parent commit and with "
                "the change, alternating which side runs first in each pair; "
                "medians and quartiles over the pairs, every run listed in "
                "seed order",
        "command": COMMAND.format(bench["run_seconds"]),
        "parent_commit": describe(args.parent),
        "change_commit": describe(args.change),
        "machine": runs["parent"][0]["env"],
        "workloads": summarize(runs, bench["end_to_end"]),
    }
    for w, summary in doc["workloads"].items():
        rounds = summary["rounds"]
        print(f"{w} rounds: " + "; ".join(
            f"{side} {min(rounds[side])}-{max(rounds[side])}"
            for side in SIDES), file=sys.stderr)
        for name, e in summary["metrics"].items():
            print(f"{w} {name}: change/parent median "
                  f"{e['change_over_parent_median']:.4g}"
                  + ("" if e["resolved"] or e["change_better_in_every_run"]
                     else ", unresolved"),
                  file=sys.stderr)
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
