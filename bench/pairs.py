"""Alternating parent/change pairs of the perfbench benchmark.

Usage: python3 bench/pairs.py --parent DIR --change DIR --workload W
       [--seeds 1,7] [--pairs 10]

DIR is the root of a checkout (each holds its own perfbench/run.py).  For
each seed, pair k runs ``python3 perfbench/run.py --workload W --seed S``
once in each tree, one process at a time, at run.py's own run length: the
parent first in even pairs, the change first in odd ones, so a drift of the
host's load falls on both sides alike.  Each run's result is the last JSON
line of its stdout; a run is good when it exits 0 with ``"correct": true``.
The script prints every run, then for each end-to-end metric (lower is
better) each side's median and quartiles over its good runs and the change's
wins over all pairs run: a pair is a win when both runs are good and the
change's value is lower, so a failed run and a tie count for neither side.
A gain holds when the change wins at least nine tenths of all pairs, the
medians differ by more than the parent's interquartile range, and the change
has no more bad runs and no larger total ``fail_share`` than the parent.
The last line of stdout is one JSON object with every run.  The exit status
is 1 if a run is not good.  Nothing is written under either tree but what
perfbench/run.py itself writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb", "fail_share")
SIDES = ("parent", "change")


def run(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``: its exit code, correctness and metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "correct": False, "metrics": {},
                "stderr": proc.stderr[-500:]}
    doc = json.loads(lines[-1])
    return {"exit": 0, "correct": doc["correct"],
            "metrics": {k: m["value"] for k, m in doc["metrics"].items()
                        if k in METRICS}}


def good(r: dict) -> bool:
    return r["exit"] == 0 and r["correct"] is True


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,7")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        for k in range(args.pairs):
            pair = {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                pair[side] = r = run(trees[side], args.workload, seed)
                shown = " ".join(f"{m}={v:.6g}" for m, v in r["metrics"].items())
                print(f"seed {seed} pair {k} {side:6} exit {r['exit']} "
                      f"correct {r['correct']} {shown}", flush=True)
            runs.append({"seed": seed, "pair": k, "first": SIDES[k % 2], **pair})
    bad = {side: sum(not good(p[side]) for p in runs) for side in SIDES}
    shares = {side: sum(p[side]["metrics"]["fail_share"] for p in runs if good(p[side]))
              for side in SIDES}
    no_worse = bad["change"] <= bad["parent"] and shares["change"] <= shares["parent"]
    print(f"bad runs: parent {bad['parent']}, change {bad['change']}")
    summary, verdicts = {}, {}
    for metric in METRICS:
        for side in SIDES:
            values = [p[side]["metrics"][metric] for p in runs if good(p[side])]
            if values:
                summary[f"{side}.{metric}"] = q = spread(values)
                print(f"{side:6} {metric:12} median {q[1]:.6g}  "
                      f"quartiles {q[0]:.6g}-{q[2]:.6g}  ({len(values)} runs)")
        wins = sum(good(p["parent"]) and good(p["change"])
                   and p["change"]["metrics"][metric] < p["parent"]["metrics"][metric]
                   for p in runs)
        holds = False
        if all(f"{s}.{metric}" in summary for s in SIDES):
            (p1, p2, p3), (_, c2, _) = (summary[f"{s}.{metric}"] for s in SIDES)
            holds = wins >= 0.9 * len(runs) and p2 - c2 > p3 - p1 and no_worse
            change = f"{(c2 - p2) / p2:+.1%}" if p2 else "n/a"
            print(f"{metric}: change wins {wins}/{len(runs)} pairs; medians "
                  f"{p2:.6g} -> {c2:.6g} ({change}); parent IQR {p3 - p1:.6g}; "
                  f"gain {'holds' if holds else 'not shown'}")
        verdicts[metric] = {"wins": wins, "gain": holds}
    print(json.dumps({"workload": args.workload, "pairs": len(runs), "bad": bad,
                      "verdicts": verdicts, "summary": summary, "runs": runs}))
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
