"""Benchmark inputs: model files made from the workload seed, and the
verdicts each model's construction implies.

Load models are the timed work.  Control models carry known defects; they
feed ``fail_share`` only and are never timed, so fixing a defect can not
count as a slowdown.  Every file is written with ``fellkit generate`` or, for
the twisted control, directly in the documented model JSON format.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

REPORT_CHECKS = ("axioms", "pair", "cocycle", "theorem-3.13", "generation",
                 "phi-roundtrip")
ALL_PASS = dict.fromkeys(REPORT_CHECKS, True)


@dataclass(frozen=True)
class Expect:
    """What a report call on a model must give.

    ``checks`` maps check name to verdict; None means the call must be
    rejected with ``exit`` and write no report.
    """

    exit: int
    checks: dict[str, bool] | None

    @property
    def attempted(self) -> int:
        return 1 if self.checks is None else len(self.checks)

    def failures(self, call: dict) -> int:
        """Wrong or missing verdicts; a crash or a missing report counts once."""
        if call["crash"] is not None:
            return 1
        if self.checks is None:
            return int(call["exit"] != self.exit or call["sha256"] is not None)
        if call["verdicts"] is None:
            return 1
        got = dict(call["verdicts"])
        return sum(got.get(name) != want for name, want in self.checks.items())


def _ragged_dims(seed: int) -> str:
    # Block order is drawn from the seed; N = 10 and the block sizes stay fixed.
    dims = [1, 2, 3, 4]
    random.Random(seed).shuffle(dims)
    return ",".join(map(str, dims))


def _flow(points: int, dim: int):
    return lambda seed: ["--preset", "flow", "--points", str(points),
                         "--dim", str(dim)]


# name -> load models, each (file stem, preset arguments from the seed,
# expected verdicts).  A pass reports on every load model of its workload.
WORKLOADS = {
    # N = 8 twice: wide blocks on few points, then scalar fibres on many.
    "flow": (
        ("flow-wide-fibre", _flow(4, 2), Expect(0, ALL_PASS)),
        ("flow-many-points", _flow(8, 1), Expect(0, ALL_PASS)),
    ),
    "ragged-blocks": (
        ("ragged-blocks",
         lambda seed: ["--preset", "imprimitivity", "--dims", _ragged_dims(seed)],
         Expect(0, {"axioms": True, "pair": True})),
    ),
    # Small enough for the harness self-check; not a benchmark workload.
    "fourpoint": (
        ("fourpoint", lambda seed: ["--preset", "fourpoint"], Expect(0, ALL_PASS)),
    ),
}

# Twisted control: an admissible twist on 8 points whose value on one
# composable pair (and, as admissibility demands, on its mirror) breaks the
# cocycle identity.  The bundle is then not associative, so axioms, pair and
# cocycle must FAIL; generation and the Φ round trip read only the (identity)
# frame and must PASS.  The pair is fixed, 1-indexed ((1,2),(2,5)): with the
# report's default seed the 200-sample axiom suite draws no triple through
# it, so today's sampled suite wrongly passes axioms and pair.  The phase is
# drawn from the workload seed.
TWIST_POINTS = 8
TWIST_PAIR = ((1, 2), (2, 5))

CONTROLS = {
    "twisted-8": Expect(1, {**ALL_PASS, "axioms": False, "pair": False,
                            "cocycle": False}),
    # A random unitary frame is a valid bundle, but its holonomy round the
    # generator's cycle leaves no diagonal twist: cocycle and the Φ round
    # trip must FAIL, every other suite must still report and PASS.
    "semidirect-4x2": Expect(1, {**ALL_PASS, "cocycle": False,
                                 "phi-roundtrip": False}),
    # Well-formed JSON whose frame breaks a mathematical contract.
    "non-unitary-frame": Expect(1, None),
}


class InputError(RuntimeError):
    pass


def generate(root: Path, env: dict, args: list[str], seed: int, out: Path) -> None:
    cmd = [sys.executable, "-m", "fellkit.cli", "generate", *args,
           "--seed", str(seed), "--out", str(out)]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise InputError(f"{' '.join(cmd[2:])} exited {done.returncode}: "
                         f"{done.stderr.strip()}")


def _arrow(g) -> str:
    return f"({g[0]},{g[1]})"


def twisted_model(seed: int) -> dict:
    n = TWIST_POINTS
    theta = random.Random(seed).uniform(0.5, 2.5)
    g, h = TWIST_PAIR
    mirror = ((h[1], h[0]), (g[1], g[0]))
    return {
        "points": n,
        "fibre_dims": [1] * n,
        "twist": {
            f"({_arrow(g)},{_arrow(h)})": [math.cos(theta), math.sin(theta)],
            f"({_arrow(mirror[0])},{_arrow(mirror[1])})":
                [math.cos(theta), -math.sin(theta)],
        },
        "generator": [x % n + 1 for x in range(1, n + 1)],
    }


def write_inputs(root: Path, env: dict, workload: str, seed: int, out: Path):
    """Write the load models and the controls; return (load, controls) where
    each is a list of (path, Expect)."""
    load = []
    for stem, preset_args, expect in WORKLOADS[workload]:
        path = out / f"{stem}.json"
        generate(root, env, preset_args(seed), seed, path)
        load.append((path, expect))

    twisted = out / "twisted-8.json"
    twisted.write_text(json.dumps(twisted_model(seed)))
    semidirect = out / "semidirect-4x2.json"
    generate(root, env, ["--preset", "semidirect", "--points", "4", "--dim", "2"],
             seed, semidirect)
    bad = out / "non-unitary-frame.json"
    generate(root, env, ["--preset", "flow", "--points", "4", "--dim", "2"],
             seed, bad)
    doc = json.loads(bad.read_text())
    doc["frame"]["(1,2)"] = [[[2 * re, 2 * im] for re, im in row]
                             for row in doc["frame"]["(1,2)"]]
    bad.write_text(json.dumps(doc))

    controls = [(out / f"{name}.json", CONTROLS[name]) for name in CONTROLS]
    return load, controls
