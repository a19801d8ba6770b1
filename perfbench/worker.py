"""One fresh fellkit process: run ``fellkit report`` on each model file.

Usage: python3 worker.py JOB_JSON

JOB_JSON names the model files, an output directory and whether to trace.
The worker prints ``ready`` once ``import fellkit`` has finished, then calls
the CLI entry point once per model, exactly as
``fellkit report --input MODEL --out REPORT`` would, and prints one JSON line
with per-call timings, exit codes, report digests and verdicts, its peak RSS
and, when tracing, the span summary.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def verdicts(body: bytes) -> list | None:
    """[[check, pass], ...] of a report body; None if it is not a report."""
    try:
        return [[c["check"], c["pass"]] for c in json.loads(body)["checks"]]
    except (ValueError, KeyError, TypeError):
        return None


def run_one(cli_main, model: str, out: Path) -> dict:
    """One report call; a raised exception is a crash, not an exit code."""
    if out.exists():
        out.unlink()
    crash = None
    t0 = perf_counter()
    try:
        code = cli_main(["report", "--input", model, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the run goes on, to report the crash
        code, crash = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    body = out.read_bytes() if out.exists() else None
    return {
        "seconds": seconds,
        "exit": code,
        "crash": crash,
        "sha256": None if body is None else hashlib.sha256(body).hexdigest(),
        "verdicts": None if body is None else verdicts(body),
    }


def run_job(job_path: str) -> dict:
    job = json.loads(Path(job_path).read_text())
    from fellkit.cli import main as cli_main

    tracer = None
    if job["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        missing = install(tracer)
        if missing:
            print(f"not traced (name not found): {missing}", file=sys.stderr)
    out_dir = Path(job["out_dir"])
    result = {"calls": [run_one(cli_main, m, out_dir / f"report-{i}.json")
                        for i, m in enumerate(job["models"])]}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["stack_bytes"] = tracer.stack_bytes
    return result


if __name__ == "__main__":
    import fellkit  # noqa: F401  (set-up ends here)

    print("ready", flush=True)
    print(json.dumps(run_job(sys.argv[1])))
