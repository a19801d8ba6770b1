"""Report bytes are pinned: a refactor must not move a single bit.

Each case runs the command line in-process and compares the sha256 of the
document it writes with a digest recorded under numpy 2.4.6.  The `phi`
digest dates from the implementation that stored the frame and the twist as
per-arrow and per-pair dicts; the `report` digests were recorded when the
axiom suite began to decide axioms 1–3 and 5–8 exactly, which changed the
axioms entry and, through the rng the pair stage inherits, the expectation
residuals of the pair entry, and nothing else.  The two scalar-fibre cases
(flow 8×1 and diag-masa 8, where the norm kernel skips LAPACK on zero and 1×1
blocks) were recorded before that skip existed.  The reports print residuals
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
        "f984fec7c5cc8fa3efcc92a115245cffcde1a89edd0db987ca7a74627fa12c55"),
    "report-flow-4x2": (
        ["report", "--preset", "flow", "--points", "4", "--dim", "2"], 0,
        "9719272ca2d7c4c058ab4576ed5a161e06d11f43e5a074db4dcc2f2128555bc7"),
    "report-semidirect": (
        ["report", "--preset", "semidirect"], 1,
        "943985d1119dc3fee5806b349466169428f9d7e3169f0232272954a1d91b4d55"),
    "report-imprimitivity-3,1,4,2": (
        ["report", "--preset", "imprimitivity", "--dims", "3,1,4,2"], 0,
        "a28cd740f52e05f1693658309157a6a07a89f847925d2a02c9eeb5de6794212f"),
    "report-twisted-5": (
        ["report", "--input", "TWISTED_5"], 1,
        "6520d84ab107f7f4823d94aba32a0706ac7714f6a4a8a20018a3139ec196a507"),
    "report-flow-8x1": (
        ["report", "--preset", "flow", "--points", "8", "--dim", "1"], 0,
        "db2ab2b53a10f19f1cc952543ded0bfbcf9510a06752248a9ffa82fd895965f5"),
    "report-diag-masa-8": (
        ["report", "--preset", "diag-masa", "--n", "8"], 0,
        "e727b8ffd61d37f2cbb461aa754b8edd97db8382a0bafe155c9c373342af2455"),
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
