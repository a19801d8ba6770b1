"""bench/pairs.py's gain rule: wins over all pairs run, good runs only.

The script is loaded by path and its ``run`` replaced by a scripted one, so
no benchmark runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, exit=0, correct=True, fail_share=0.0):
    if exit:
        return {"exit": exit, "correct": False, "metrics": {}}
    return {"exit": 0, "correct": correct,
            "metrics": {"wall_s": wall, "setup_s": 0.15, "peak_rss_mb": 35.0,
                        "fail_share": fail_share}}


def run_main(monkeypatch, capsys, change_runs, parent_bad=()):
    """main() on one seed, with the change's k-th run given by change_runs[k]
    and the parent's failing at the pairs in parent_bad; returns (exit
    status, last JSON line, the order the sides ran in)."""
    pairs = load_pairs()
    order, count = [], {"parent": 0, "change": 0}

    def fake_run(tree, workload, seed):
        side = tree.name
        order.append(side)
        count[side] += 1
        if side == "parent":
            k = count[side] - 1
            return result(None, exit=1) if k in parent_bad else result(0.0047 + 1e-5 * (k % 3))
        return change_runs[count[side] - 1]

    monkeypatch.setattr(pairs, "run", fake_run)
    status = pairs.main(["--parent", "/x/parent", "--change", "/x/change",
                         "--workload", "ragged-blocks", "--seeds", "1",
                         "--pairs", str(len(change_runs))])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1]), order


def test_clear_gain_holds_and_sides_alternate(monkeypatch, capsys):
    status, doc, order = run_main(monkeypatch, capsys, [result(0.0039)] * 10)
    assert status == 0 and doc["pairs"] == 10
    assert doc["verdicts"]["wall_s"] == {"wins": 10, "gain": True}
    assert doc["verdicts"]["fail_share"] == {"wins": 0, "gain": False}
    assert order[:4] == ["parent", "change", "change", "parent"]


@pytest.mark.parametrize("bad", [
    result(None, exit=1),                 # run.py failed: no metrics
    result(0.0039, correct=False),        # a wrong verdict, though faster
], ids=["failed", "incorrect"])
def test_bad_change_runs_count_as_losses_and_void_the_gain(monkeypatch, capsys, bad):
    runs = [result(0.0039)] * 8 + [bad] * 2
    status, doc, _ = run_main(monkeypatch, capsys, runs)
    assert status == 1
    assert doc["bad"] == {"parent": 0, "change": 2}
    assert doc["verdicts"]["wall_s"] == {"wins": 8, "gain": False}


def test_one_bad_run_voids_a_gain_the_wins_alone_would_carry(monkeypatch, capsys):
    runs = [result(0.0039)] * 19 + [result(None, exit=1)]
    status, doc, _ = run_main(monkeypatch, capsys, runs)
    assert doc["verdicts"]["wall_s"] == {"wins": 19, "gain": False}


def test_pairs_lost_to_failures_on_both_sides_still_count(monkeypatch, capsys):
    runs = [result(0.0039), result(None, exit=1)] + [result(0.0039)] * 8
    status, doc, _ = run_main(monkeypatch, capsys, runs, parent_bad={0})
    assert doc["bad"] == {"parent": 1, "change": 1}
    assert doc["verdicts"]["wall_s"] == {"wins": 8, "gain": False}


def test_more_failed_operations_void_the_gain(monkeypatch, capsys):
    runs = [result(0.0039)] * 9 + [result(0.0039, fail_share=0.01)]
    _, doc, _ = run_main(monkeypatch, capsys, runs)
    assert doc["verdicts"]["wall_s"] == {"wins": 10, "gain": False}


def test_run_reads_the_last_json_line_at_run_pys_own_length(monkeypatch):
    pairs = load_pairs()
    seen = []
    last = {"correct": True, "metrics": {"wall_s": {"value": 0.004},
                                         "fail_share": {"value": 0.0},
                                         "stage.pair.s": {"value": 0.001}}}
    stdout = "\n".join(["{\"partial\": 1}", "progress", json.dumps(last)])

    def fake(cmd, cwd, capture_output, text):
        seen.append(cmd)
        return type("Proc", (), {"returncode": 0, "stdout": stdout, "stderr": ""})

    monkeypatch.setattr(pairs.subprocess, "run", fake)
    r = pairs.run(Path("."), "flow", 7)
    assert r == {"exit": 0, "correct": True,
                 "metrics": {"wall_s": 0.004, "fail_share": 0.0}}
    assert seen[0][1:] == ["perfbench/run.py", "--workload", "flow", "--seed", "7"]
