"""Report bytes are pinned: a refactor must not move a single bit.

Each case runs the command line in-process and compares the sha256 of the
document it writes with a digest recorded under numpy 2.4.6.  The `phi`
digest dates from the implementation that stored the frame and the twist as
per-arrow and per-pair dicts; `report-twisted-5` (whose pair stage fails
on the axioms) dates from when the axiom suite began to decide axioms 1–3
and 5–8 exactly.  The other `report` digests were recorded when the
expectation contract began to be decided from P on the matrix units, which
changed only the expectation residuals of the pair entry (faithful to 1.0,
positive to the rounding of the Choi spectrum) and made that entry the same
for every seed.  The reports print residuals
and the extracted twist to the last bit, so a changed product order or
summation order shows here.  A numpy or BLAS
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
        "ce36ede24c5f5d866a2b3e602238a039853a4fbe94fca5f96a6fbe3d0e09188d"),
    "report-flow-4x2": (
        ["report", "--preset", "flow", "--points", "4", "--dim", "2"], 0,
        "60c94568d518e05d5fc83821758d245c232eb14dd161b75138f9380eec3ac9cb"),
    "report-semidirect": (
        ["report", "--preset", "semidirect"], 1,
        "c3463c0688630eab31fcbf4d62f365a3632f5c7e27fd8023f5bd5622a312874f"),
    "report-imprimitivity-3,1,4,2": (
        ["report", "--preset", "imprimitivity", "--dims", "3,1,4,2"], 0,
        "cea2bc87cded4b0d951df2c1d93b5466dc3a0d6d8529e7e00d5f027c0aa69221"),
    "report-twisted-5": (
        ["report", "--input", "TWISTED_5"], 1,
        "6520d84ab107f7f4823d94aba32a0706ac7714f6a4a8a20018a3139ec196a507"),
    "report-flow-8x1": (
        ["report", "--preset", "flow", "--points", "8", "--dim", "1"], 0,
        "bafa65f28416f9ddc37521c6d6b43a318165d4de4d5a4e7f7962894ac062d043"),
    "report-diag-masa-8": (
        ["report", "--preset", "diag-masa", "--n", "8"], 0,
        "256aff79a208c7ce856d5de603ac20ecaa6fcd6271ea48244e3151286b0d126f"),
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
