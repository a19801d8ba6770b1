"""Quick check of the benchmark harness itself, on the ``fourpoint`` preset.

Usage (from the repository root): python3 perfbench/selfcheck.py

Runs perfbench/run.py untraced and traced on the small fourpoint model and
checks that the result line has the agreed shape, that every metric named in
BENCHMARK.json is printed with its unit, that load verdicts and report bytes
pass, that every control model is scored, and that the stage spans cover the
traced report.  Last, it runs the benchmark in a directory
holding only BENCHMARK.json and perfbench/, where it must fail without
printing a result.  Takes about fifteen seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SelfCheckError(AssertionError):
    pass


def require(ok: bool, detail) -> None:
    if not ok:
        raise SelfCheckError(detail)


def run(cwd: Path, trace: int) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fourpoint",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def check_result(lines: list[str], spec: list[dict]) -> dict:
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
    require(result["correct"] is True and result["failed"] == 0, result)
    require(isinstance(result["attempted"], int) and result["attempted"] >= 2,
            result)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    require(got == {m["name"]: m["unit"] for m in spec}, got)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    code, lines = run(ROOT, 0)
    require(code == 0, lines)
    e2e = check_result(lines, spec["end_to_end"])
    require(all(e2e[k] > 0 for k in ("wall_s", "setup_s", "peak_rss_mb")), e2e)
    require(0 <= e2e["fail_share"] <= 1, e2e)
    for control in ("twisted-8", "semidirect-4x2", "non-unitary-frame"):
        require(any(ln.split()[:1] == [control] for ln in lines), control)

    code, lines = run(ROOT, 1)
    require(code == 0, lines)
    layers = check_result(lines, spec["per_layer"])
    require(layers["stage_coverage"] >= 90, layers["stage_coverage"])
    require(layers["subalgebra.is_normalizer.calls"] > 0, layers)

    bare = HERE / ".work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, lines = run(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(code != 0 and not any(ln.startswith("{") for ln in lines),
            (code, lines))

    print("perfbench self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
