"""The report size ladder: `fellkit report` on presets up to ambient dim 96.

Usage: python3 bench/ladder.py --label LABEL [--src DIR]

Each configuration runs ``fellkit report`` REPEATS times, each in a fresh
interpreter with one BLAS thread, on the package under ``--src`` (default:
this checkout's ``src``).  It records the wall seconds of each whole process
(interpreter start included) as ``wall_runs`` and their median as
``wall_s``, the median peak RSS (``ru_maxrss`` from ``wait4``), the report's
sha256 and its verdicts, and writes them to ``BENCH_<label>.json`` next to
this script with ``src_lines``, the line count of ``<src>/fellkit/*.py``,
and ``cli_import_ms``, the median over REPEATS fresh
``python -X importtime -c "import fellkit; import fellkit.cli"`` runs of the
cumulative time on the ``fellkit.cli`` line: the CLI's own import past
``import fellkit``, which a process's wall time includes but no config
isolates.  (Alone, ``import fellkit.cli`` counts the package, numpy
included, on that line.)
The exit status is 1 if a report fails to run, or if a configuration's runs
differ in exit code or sha256.  Two ladders of the same configurations are
compared by their digests: equal digests are byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# name → (ambient dim N, preset arguments)
CONFIGS = {
    **{f"flow-{n}x{d}": (n * d, ["--preset", "flow", "--points", str(n), "--dim", str(d)])
       for n, d in ((6, 4), (8, 4), (16, 2), (24, 1), (6, 8), (12, 4), (48, 1),
                    (96, 1))},
    "imprimitivity-1..9": (45, ["--preset", "imprimitivity",
                                "--dims", ",".join(str(k) for k in range(1, 10))]),
    "imprimitivity-1..13": (91, ["--preset", "imprimitivity",
                                 "--dims", ",".join(str(k) for k in range(1, 14))]),
    "diag-masa-48": (48, ["--preset", "diag-masa", "--n", "48"]),
    "diag-masa-96": (96, ["--preset", "diag-masa", "--n", "96"]),
    "semidirect-24x2": (48, ["--preset", "semidirect", "--points", "24", "--dim", "2"]),
}
# the first run of a session is often the slowest, so one run is not a time
REPEATS = 3
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def run(src: Path, args: list[str], out: Path) -> dict:
    """One report in a fresh process: wall s, peak RSS MB, exit code,
    report sha256 and verdicts."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    env.pop("FELLKIT_EPS", None)
    cmd = [sys.executable, "-m", "fellkit.cli", "report", *args, "--out", str(out)]
    with open(out.with_suffix(".err"), "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    body = out.read_bytes() if out.exists() else None
    verdicts = None
    if body is not None:
        verdicts = [[c["check"], c["pass"]] for c in json.loads(body)["checks"]]
    return {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": proc.returncode,
        "stderr": stderr[-500:],
        "sha256": None if body is None else hashlib.sha256(body).hexdigest(),
        "report_bytes": None if body is None else len(body),
        "verdicts": verdicts,
    }


def cli_import_ms(src: Path) -> float:
    """The median cumulative milliseconds ``-X importtime`` reports for
    ``fellkit.cli``, after ``fellkit``, over REPEATS fresh interpreters."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-X", "importtime", "-c", "import fellkit; import fellkit.cli"]
    runs = []
    for _ in range(REPEATS):
        err = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             check=True).stderr
        # "import time: <self us> | <cumulative us> | <indented module name>"
        rows = (line.split("|") for line in err.splitlines())
        runs.append(next(int(row[1]) for row in rows
                         if len(row) == 3 and row[2].strip() == "fellkit.cli") / 1000)
    return statistics.median(runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="the directory that holds the fellkit package")
    args = parser.parse_args(argv)
    rows, unsteady = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (dim, preset) in CONFIGS.items():
            runs = [run(args.src.resolve(), preset, Path(tmp) / f"{name}-{k}.json")
                    for k in range(REPEATS)]
            if len({(r["exit"], r["sha256"]) for r in runs}) > 1:
                unsteady.append(name)
            row = {"name": name, "N": dim, "args": preset, **runs[0],
                   "wall_runs": [r["wall_s"] for r in runs],
                   "wall_s": statistics.median(r["wall_s"] for r in runs),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
            rows.append(row)
            print(f"{name:20} N={dim:3} {row['wall_s']:8.2f} s "
                  f"{row['peak_rss_mb']:7.1f} MB exit {row['exit']}", flush=True)
    import numpy  # this interpreter's numpy, which the runs import too

    doc = {
        "label": args.label,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "blas_threads": 1},
        "configs": rows,
        "src_lines": sum(path.read_bytes().count(b"\n")
                         for path in (args.src / "fellkit").glob("*.py")),
        "cli_import_ms": cli_import_ms(args.src.resolve()),
    }
    (HERE / f"BENCH_{args.label}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name in unsteady:
        print(f"{name}: exit code or sha256 differs between runs", file=sys.stderr)
    return 0 if not unsteady and all(r["exit"] in (0, 1) for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
