"""Report bytes are pinned: a refactor must not move a single bit.

Each case runs the command line in-process and compares the sha256 of the
document it writes with a digest recorded under numpy 2.4.6.  The `phi`
digest dates from the implementation that stored the frame and the twist as
per-arrow and per-pair dicts, and the imprimitivity `report` digest from
when the norm axioms 4, 9 and 10 began to be decided from the frame and
twist arrays.  The other `report` digests were recorded when theorem-3.13
began to be decided on the cycle powers and an angle grid of two-block
mixers, which changed only the `details` of its entry.
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
        "74a636432c4165359bfa3b55425d28cac8f97ca65f1b78e2ff1c5eafeabc11db"),
    "report-flow-4x2": (
        ["report", "--preset", "flow", "--points", "4", "--dim", "2"], 0,
        "532ff3f5b92ea2aea0fabd8e52b11f0480587c2c732be5c891a8fe1fa554a6f9"),
    "report-semidirect": (
        ["report", "--preset", "semidirect"], 1,
        "ad94537c493188630524551d431663b2e67ece3d42040f9244b979ba4dd6994e"),
    "report-imprimitivity-3,1,4,2": (
        ["report", "--preset", "imprimitivity", "--dims", "3,1,4,2"], 0,
        "78ebf8e722e1bdc3656c04f10e1ec75a3017d7589d01b2d9a204dfea022ccb9f"),
    "report-twisted-5": (
        ["report", "--input", "TWISTED_5"], 1,
        "fe752974e4cbd29d619cb655c2187208e88e93530191194c42737dd367506825"),
    "report-flow-8x1": (
        ["report", "--preset", "flow", "--points", "8", "--dim", "1"], 0,
        "9f1cbb3830b560cf778bbe7f16fc493517d26225fae2fbd328102f47363a69c8"),
    "report-diag-masa-8": (
        ["report", "--preset", "diag-masa", "--n", "8"], 0,
        "f2ddd80fb28facd6453afd347545491a6ded46e37d6370d472052c7edee317e5"),
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
