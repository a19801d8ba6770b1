"""fellkit benchmark: ``fellkit report`` time, set-up, memory and verdicts.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads are listed in BENCHMARK.json; perfbench/README.md says what each
one stresses and which layer metric should move which end-to-end metric.

With --trace 0 the run times passes, each a fresh process that imports
fellkit and calls ``fellkit report --input MODEL`` on every load model,
until another pass would end after --seconds (at least three passes, whose
report bytes must agree), and reports:

* wall_s       median over passes of the time for every load report;
* setup_s      median time from a fresh interpreter to ``import fellkit``;
               both scaled by REFERENCE_S / (median time of a fixed
               reference loop, perfbench/reference.py, run before each
               pass), so a shared host's swings mostly cancel;
* peak_rss_mb  median ru_maxrss of those processes;
* fail_share   wrong verdicts, crashed or silent report calls and report
               bytes that differ between two runs, over checks attempted,
               on the load and the control models.

With --trace 1 it runs the load once untraced and once with span wrappers
installed (perfbench/tracing.py), and reports per-layer totals, self times,
call counts and the tracing overhead.  Either way every load verdict and
report digest is checked; the last line of stdout is one JSON object.
BLAS is pinned to one thread and one process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from inputs import REPORT_CHECKS, WORKLOADS, InputError, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_WORKLOADS = ("flow", "ragged-blocks")
SETUP_PROBES = 2  # before each pass, so they spread over the run
MIN_PASSES = 3
# The reference loop's time on a quiet host of the kind in README.md; it
# fixes the unit of the scaled times and is never to be changed.
REFERENCE_S = 0.4
CHILD_TIMEOUT_S = 170
MB = 1024 * 1024

# (metric, span, field, unit); the span names are set in tracing.TRACED.
LAYER_METRICS = (
    ("subalgebra.classify_pair.s", "subalgebra.classify_pair", "s", "s"),
    ("subalgebra.is_normalizer.calls", "subalgebra.is_normalizer", "calls", "count"),
    ("subalgebra.is_normalizer.self_s", "subalgebra.is_normalizer", "self_s", "s"),
    ("subalgebra.normalizer_support.s", "subalgebra.normalizer_support", "s", "s"),
    ("dynamics.a_dynamical_generation_check.s",
     "dynamics.a_dynamical_generation_check", "s", "s"),
    ("dynamics.check_unitary_normalizer_theorem.s",
     "dynamics.check_unitary_normalizer_theorem", "s", "s"),
    ("linalg.orthonormal_span_basis.self_s", "linalg.orthonormal_span_basis",
     "self_s", "s"),
    ("cocycle.extract_cocycle.s", "cocycle.extract_cocycle", "s", "s"),
    ("cocycle.cocycle_identity_residual.s", "cocycle.cocycle_identity_residual",
     "s", "s"),
    ("embedding.bridge_round_trip.s", "embedding.bridge_round_trip", "s", "s"),
    ("embedding.read_off_pair.s", "embedding.read_off_pair", "s", "s"),
    ("groupoid.compose.calls", "groupoid.PairGroupoid.compose", "calls", "count"),
    ("fellbundle.check_fell_axioms.s", "fellbundle.check_fell_axioms", "s", "s"),
    ("fellbundle.multiply.calls", "fellbundle.FellBundleModel.multiply", "calls",
     "count"),
    ("fellbundle.ConditionalExpectation.verify.s",
     "fellbundle.ConditionalExpectation.verify", "s", "s"),
    ("fellbundle.is_saturated.s", "fellbundle.is_saturated", "s", "s"),
    ("linalg.operator_norm.calls", "linalg.operator_norm", "calls", "count"),
    ("linalg.operator_norm.self_s", "linalg.operator_norm", "self_s", "s"),
    ("linalg.span_dimension.self_s", "linalg.span_dimension", "self_s", "s"),
    ("algebra.contains.calls", "algebra.FiniteCStarAlgebra.contains", "calls",
     "count"),
    ("serialize.model_from_json.s", "serialize.model_from_json", "s", "s"),
    ("cli.run_report.s", "cli.run_report", "s", "s"),
)
# Layers a workload may bypass entirely; their traced calls are summed.
BYPASSABLE = ("dynamics", "cocycle", "embedding")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FELLKIT_EPS", None)  # the default tolerance decides the verdicts
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, str]:
    """Start a Python child; return (seconds until it printed 'ready', rest
    of its stdout).  Its stderr goes to ``log``."""
    with open(log, "a") as err:
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=err,
                              text=True) as proc:
            ready = proc.stdout.readline()
            ready_s = perf_counter() - t0
            try:
                rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{argv[0]} timed out") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"{argv[0]} failed (exit {proc.returncode}):\n{tail}")
    return ready_s, rest


def time_setup(env: dict, log: Path) -> list[float]:
    """Fresh-interpreter-to-``import fellkit`` times."""
    probe = ["-c", "import fellkit; print('ready', flush=True)"]
    return [spawn(probe, env, log)[0] for _ in range(SETUP_PROBES)]


def time_reference(env: dict, log: Path) -> float:
    """Seconds of one reference loop in a fresh process without fellkit."""
    return float(spawn([str(HERE / "reference.py")], env, log)[1])


def run_worker(models: list[Path], trace: bool, work: Path, env: dict,
               tag: str) -> dict:
    out_dir = work / tag
    out_dir.mkdir()
    job = out_dir / "job.json"
    job.write_text(json.dumps({"models": [str(m) for m in models],
                               "out_dir": str(out_dir), "trace": trace}))
    _, out = spawn([str(HERE / "worker.py"), str(job)], env, work / "stderr.log")
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = sum(c["seconds"] for c in result["calls"])
    return result


def digest_mismatches(runs: list[dict]) -> list[int]:
    """Per model: how many later runs wrote other bytes (or exit) than the first."""
    first = runs[0]["calls"]
    return [
        sum((r["calls"][i]["sha256"], r["calls"][i]["exit"])
            != (first[i]["sha256"], first[i]["exit"]) for r in runs[1:])
        for i in range(len(first))
    ]


def score(runs: list[dict], expects) -> tuple[int, int, list[int]]:
    """(failures, checks attempted, failing-model flags) over runs of one
    model list; verdicts are taken from the first run, and a model whose
    bytes differ between runs fails once more."""
    mismatched = digest_mismatches(runs)
    per_model = [e.failures(c) + int(m > 0) for e, c, m
                 in zip(expects, runs[0]["calls"], mismatched)]
    return sum(per_model), sum(e.attempted for e in expects), per_model


def failed_calls(runs: list[dict], expects) -> int:
    """Load report calls with a wrong verdict or other bytes than run 0."""
    first = runs[0]["calls"]
    return sum(
        e.failures(c) > 0 or (c["sha256"], c["exit"]) != (f["sha256"], f["exit"])
        for r in runs for e, c, f in zip(expects, r["calls"], first))


def describe(name: str, expect, call: dict, failures: int) -> str:
    if call["crash"] is not None:
        got = f"crash {call['crash']}"
    elif call["verdicts"] is None:
        got = f"exit {call['exit']}, no report"
    else:
        got = f"exit {call['exit']}, " + " ".join(
            f"{c}={'PASS' if p else 'FAIL'}" for c, p in call["verdicts"])
    status = "ok" if failures == 0 else f"{failures} WRONG"
    digest = (call["sha256"] or "-")[:16]
    return f"  {name:<20} {status:<8} sha256 {digest:<16} {got}"


def layer_metrics(traced: dict, plain: dict) -> dict:
    spans = traced["spans"]

    def span(name, field="s"):
        return spans.get(name, {}).get(field, 0)

    out = {metric: (span(name, field), unit)
           for metric, name, field, unit in LAYER_METRICS}
    out["linalg.span_stack_mb"] = (traced["stack_bytes"] / MB, "MB-computed")
    for layer in BYPASSABLE:
        calls = sum(v["calls"] for k, v in spans.items()
                    if k.startswith(layer + "."))
        out[f"{layer}.calls"] = (calls, "count")
    stage_total = 0.0
    for stage in REPORT_CHECKS:
        out[f"stage.{stage}.s"] = (span(f"stage.{stage}"), "s")
        stage_total += span(f"stage.{stage}")
    report_s = span("cli.run_report")
    out["stage_coverage"] = (100 * stage_total / report_s if report_s else 0.0, "%")
    out["trace_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "fellkit" / "__init__.py").is_file():
        raise BenchError(f"no fellkit sources under {ROOT / 'src'}")
    env = child_env()
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        log = work / "stderr.log"
        # generating the inputs also compiles fellkit's bytecode, so no
        # set-up probe below pays for that
        load, controls = write_inputs(ROOT, env, workload, seed, work)
        load_models = [p for p, _ in load]
        load_expects = [e for _, e in load]

        setup: list[float] = []
        reference: list[float] = []
        if trace:
            runs = [run_worker(load_models, False, work, env, "plain"),
                    run_worker(load_models, True, work, env, "traced")]
        else:
            runs = []
            t0 = perf_counter()
            while True:
                pass_start = perf_counter()
                setup += time_setup(env, log)
                reference.append(time_reference(env, log))
                runs.append(run_worker(load_models, False, work, env,
                                       f"load-{len(runs)}"))
                # stop when a pass like the last one would overrun --seconds
                now = perf_counter()
                if (len(runs) >= MIN_PASSES
                        and (now - t0) + (now - pass_start) > seconds):
                    break
        control_runs = [run_worker([p for p, _ in controls], False, work, env,
                                   "controls")]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    load_fail, load_checks, load_flags = score(runs, load_expects)
    ctl_fail, ctl_checks, ctl_flags = score(control_runs, [e for _, e in controls])

    print(f"{workload} seed {seed}: load runs took "
          + ", ".join(f"{r['wall_s']:.3f}" for r in runs)
          + " s")
    for (path, expect), call, flag in zip(load + controls,
                                          runs[0]["calls"] + control_runs[0]["calls"],
                                          load_flags + ctl_flags):
        print(describe(path.stem, expect, call, flag))

    if trace:
        metrics = layer_metrics(runs[1], runs[0])
    else:
        wall = statistics.median(r["wall_s"] for r in runs)
        ref = statistics.median(reference)
        print(f"unscaled medians: wall {wall:.4f} s, setup "
              f"{statistics.median(setup):.4f} s, reference {ref:.4f} s "
              f"over {len(reference)} loops")
        scale = REFERENCE_S / ref
        metrics = {
            "wall_s": (wall * scale, "s"),
            "setup_s": (statistics.median(setup) * scale, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
            "fail_share": ((load_fail + ctl_fail) / (load_checks + ctl_checks),
                           "share"),
        }
    failed = failed_calls(runs, load_expects)
    return {
        "correct": failed == 0,
        "attempted": len(load_models) * len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except (BenchError, InputError, OSError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"  {name:<18} {metric:<44} {m['value']:>14.6g} {m['unit']}")
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
