"""Report bytes are pinned: a refactor must not move a single bit.

Each case runs the command line in-process and compares the sha256 of the
document it writes with a digest recorded under numpy 2.4.6.  The `phi`
digest dates from the implementation that stored the frame and the twist as
per-arrow and per-pair dicts.  The `report` digests were recorded when the
norm axioms 4, 9 and 10 began to be decided from the frame and twist
arrays, which changed only those three residuals and the top residual of
the axioms entry, and made that entry the same for every seed on one model.
The reports print residuals and the extracted twist to the last bit, so a
changed product order or summation order shows here.  A numpy or BLAS
build that rounds differently can move these digests without any change to
fellkit; re-record them then, from a commit whose reports are trusted.
"""

import hashlib
import json

import pytest

from fellkit.cli import main

# its report fails axioms, pair and cocycle; the rest pass
from helpers import TWISTED_5

CASES = {
    "report-fourpoint": (
        ["report", "--preset", "fourpoint"], 0,
        "8b761260d596cbec87ab81084be6b279e366fc2ec62c311ad48486e1033a4aeb"),
    "report-flow-4x2": (
        ["report", "--preset", "flow", "--points", "4", "--dim", "2"], 0,
        "25d92ddb56f4576486a2f7e9ce15e1df4f413866b2b2b3999d7f200087db1a49"),
    "report-semidirect": (
        ["report", "--preset", "semidirect"], 1,
        "c28225487e84b2043ff5da8444bf9ccb2ddacc8c74562d977c712a89677c678c"),
    "report-imprimitivity-3,1,4,2": (
        ["report", "--preset", "imprimitivity", "--dims", "3,1,4,2"], 0,
        "78ebf8e722e1bdc3656c04f10e1ec75a3017d7589d01b2d9a204dfea022ccb9f"),
    "report-twisted-5": (
        ["report", "--input", "TWISTED_5"], 1,
        "a510649169e5cd05c7aa9058e0edd0546fe2b66646687f0109d7fa32da962225"),
    "report-flow-8x1": (
        ["report", "--preset", "flow", "--points", "8", "--dim", "1"], 0,
        "5f84b2daf697897812df7a063a8b31780946f66a31d818eeb80e6e9b387332fe"),
    "report-diag-masa-8": (
        ["report", "--preset", "diag-masa", "--n", "8"], 0,
        "b0a878f19e0c469e23ea7d2e0a3ae1557c6c0d651354ef820e4c66e344117fd7"),
    # the read-off fails: the random frame has holonomy round the 4-cycle
    "phi-readoff-semidirect": (
        ["phi", "readoff", "--preset", "semidirect"], 1,
        "6a52f7b772d92c9c1a77d1fb3842d77fd7e81a521ae621eb4be6a6cd2dafc03f"),
}


@pytest.mark.parametrize("name", CASES)
def test_report_bytes_are_unchanged(name, tmp_path):
    args, exit_code, digest = CASES[name]
    model = tmp_path / "twisted-5.json"
    model.write_text(json.dumps(TWISTED_5))
    out = tmp_path / "out.json"
    args = [str(model) if a == "TWISTED_5" else a for a in args]
    assert main([*args, "--out", str(out)]) == exit_code
    body = out.read_bytes()
    if name.endswith("semidirect"):
        assert b"assignment violates u_(g*) = u_g* at (0, 1)" in body
    assert hashlib.sha256(body).hexdigest() == digest
