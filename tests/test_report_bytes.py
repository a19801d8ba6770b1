"""Report bytes are pinned: a refactor must not move a single bit.

Each case runs the command line in-process and compares the sha256 of the
document it writes with a digest recorded under numpy 2.4.6.  The `phi`
digest dates from the implementation that stored the frame and the twist as
per-arrow and per-pair dicts, and the imprimitivity `report` digest from
when the norm axioms 4, 9 and 10 began to be decided from the frame and
twist arrays.  The semidirect and twisted-5 `report` digests were recorded
when theorem-3.13 began to be decided on the cycle powers and an angle grid
of two-block mixers, which changed only the `details` of its entry.  The
fourpoint, flow 4×2, flow 8×1 and diag-masa 8 `report` digests were
recorded when the cocycle entry's `omega_sha256` began to hash ω's
(n, n, n, d, d) array, its shape then its little-endian complex128 bytes
(`serialize.cocycle_sha256`), in place of ω's compact JSON; nothing else in
them moved.  The other four documents print no extracted ω and kept their
bytes.
The `check` and `phi` subcommands on flow 4×2, the fourpoint report in text and
`phi build` on a non-minimal generator were recorded when the suites became
one table of entry functions in `cli`, from the commit before that change.
The `phi` subcommands on fourpoint, flow 8×1, diag-masa 6, semidirect and the
rotation flow ROT90_4X2, and ROT90_4X2's report, were recorded when Φ came to
be held as its blocks, from the commit before that change; ROT90_4X2's frame
holds −0.0, which Φ must not print.
The 21 documents that print the read-off's holonomy were re-recorded when it
came to decide the read-off, the cocycle entry on a read-off ω and the round
trip: `phi readoff`, that cocycle entry and `phi roundtrip` gained the
holonomy as their residual and its point as their `witness`, the round
trip's details gained `holonomy_residual` and lost its four recovered-side
stages, and a refused read-off's error names the holonomy; every
`omega_sha256` kept its bytes.  The four passing round trips no longer share
one digest: flow 4×2 and 8×1 have a holonomy of rounding size.
The twisted-5 `report` digest was re-recorded when model twists became
𝕋-valued and the cocycle entry on a model twist came to read axiom 3's
residual: its details lost `"admissible": true`, which the builder had
already made certain; nothing else in it moved.
The imprimitivity 3,1,4,2 `report` digest was re-recorded when the
expectation's Choi spectrum came to be read off the block dims: the pair
entry's `positive` residual went from eigvalsh's 5.660001591138239e-16 to
an exact 0.0; nothing else in it moved.
The reports print residuals, and ω's digest pins the twist, to the last
bit, so a changed product order or summation order shows here.  A numpy or BLAS
build that rounds differently can move these digests without any change to
fellkit; re-record them then, from a commit whose reports are trusted.
"""

import hashlib
import json
import re

import pytest

from fellkit.cli import main

# its report fails axioms, pair and cocycle; the rest pass
from helpers import ROT90_4X2, TWISTED_5

# (2,1,4,3) swaps two pairs of points: its orbits miss 8 of the 16 arrows
NON_MINIMAL_4 = {"points": 4, "fibre_dims": [1] * 4, "generator": [2, 1, 4, 3]}
MODELS = {"TWISTED_5": TWISTED_5, "NON_MINIMAL_4": NON_MINIMAL_4, "ROT90_4X2": ROT90_4X2}
FLOW_4X2 = ["--preset", "flow", "--points", "4", "--dim", "2"]
FOURPOINT = ["--preset", "fourpoint"]
FLOW_8X1 = ["--preset", "flow", "--points", "8", "--dim", "1"]
DIAG_MASA_6 = ["--preset", "diag-masa", "--n", "6"]
# the round trip of a flow whose σⁿ is exactly I: holonomy 0.0 at point 1
ROUND_TRIP = "ad3d49e2876769e00134dbb49018eafe239da7bf5f0c7b64bdccdcb4a8057488"

CASES = {
    "report-fourpoint": (
        ["report", "--preset", "fourpoint"], 0,
        "e45b5f4b1b6af41cccf20ec8b1096900fcc27e981d47129a072ee7b4d91d5151"),
    "report-flow-4x2": (
        ["report", "--preset", "flow", "--points", "4", "--dim", "2"], 0,
        "98ff4c5b5203e2e83d8ddd80199cfb2353a23e71064056d0000142a11dd54882"),
    "report-semidirect": (
        ["report", "--preset", "semidirect"], 1,
        "eea3da948158fe5afc4e7217dfc44febe569e7af1c335d33f76f521c6cb451b8"),
    "report-imprimitivity-3,1,4,2": (
        ["report", "--preset", "imprimitivity", "--dims", "3,1,4,2"], 0,
        "30000c89b9a6e4a775ee458f4a9b795d8f8a9eccf2da3dcf53826f01c13eeb23"),
    "report-twisted-5": (
        ["report", "--input", "TWISTED_5"], 1,
        "2e9aee18def3c9eed35595116234fe1d2761aa12f38dce6e4867cc7df9468274"),
    "report-flow-8x1": (
        ["report", "--preset", "flow", "--points", "8", "--dim", "1"], 0,
        "1a4cbe853be5192b6d15303ad66ab5590518c0d0084fef257d79ffb6b71531f6"),
    "report-diag-masa-8": (
        ["report", "--preset", "diag-masa", "--n", "8"], 0,
        "688992b7d62bb1ecfe6e2cd39881c3a20c7c4872924642d4cc2cfe9da1426717"),
    # the read-off fails: the random frame has holonomy round the 4-cycle,
    # which the error names with the point that attains it
    "phi-readoff-semidirect": (
        ["phi", "readoff", "--preset", "semidirect"], 1,
        "654b27a4b4388a404a75447564033904e9196543be0c12fa747983335488ad31"),
    "check-axioms-flow-4x2": (
        ["check", "axioms", *FLOW_4X2], 0,
        "a092db4a4924b5a34bbdb9357bfb4a6ff558875f47dc40b90d6937f2d34b3d53"),
    "check-pair-flow-4x2": (
        ["check", "pair", *FLOW_4X2], 0,
        "7ba1c43d91aa7b9a3bad1e91551c3c788b21c7de43109d749e6dc02e10d6779d"),
    "check-cocycle-flow-4x2": (
        ["check", "cocycle", *FLOW_4X2], 0,
        "8e6c1d163f3382cddda932704073670a39852b56f5debd3b88525c413808313a"),
    "check-theorem-3.13-flow-4x2": (
        ["check", "theorem-3.13", *FLOW_4X2], 0,
        "e2889f9fc9c4849fae6c93a3f18a3a243e5aa9b872aa6c886e0a87c8e8bb0d8a"),
    "check-generation-flow-4x2": (
        ["check", "generation", *FLOW_4X2], 0,
        "3a5651cbd6b318b6b702e128b1824b38b7bfa6b0d0bbdf7be6b74374959a4ecc"),
    "phi-build-flow-4x2": (
        ["phi", "build", *FLOW_4X2], 0,
        "f4c029cda2afcdd2d0ceb94286f255a9df5fce7f70365b21a99eb9a2a8761b8f"),
    "phi-readoff-flow-4x2": (
        ["phi", "readoff", *FLOW_4X2], 0,
        "98dc80e2c23b3c76d77d3f8ec972987790559c5cafa05e0493cab3c2aa74dc16"),
    "phi-roundtrip-flow-4x2": (
        ["phi", "roundtrip", *FLOW_4X2], 0,
        "a6972b26e4563da68bced5d55d6f3b7315f8a52ae11b2ecba0a39443000cebd8"),
    "report-fourpoint-text": (
        ["report", "--preset", "fourpoint", "--format", "text"], 0,
        "0f811bdb75038b584fe232343ba3121f55a03dbd10285d82095e9856c2bf60ab"),
    # the entry names the missing pairs in place of Φ
    "phi-build-non-minimal-4": (
        ["phi", "build", "--input", "NON_MINIMAL_4"], 1,
        "56dd9a260d4d03b7867bf1d47ad43e2decac784746983a25fadb35cfe03e76b3"),
    "phi-build-fourpoint": (
        ["phi", "build", *FOURPOINT], 0,
        "49258722dc709a30df4e97053a53c49e3c1d165ec198b0929dca6477ee224208"),
    "phi-readoff-fourpoint": (
        ["phi", "readoff", *FOURPOINT], 0,
        "193beb4e46538bd35da08fb4a65c2f9273f891b6c4ff4c32bcf07540d7382c1b"),
    "phi-roundtrip-fourpoint": (["phi", "roundtrip", *FOURPOINT], 0, ROUND_TRIP),
    "phi-build-flow-8x1": (
        ["phi", "build", *FLOW_8X1], 0,
        "e74c53f71a3f67fb13ca04cf440d0f489582ef99b53a5a1dd2c0557ac804f00d"),
    "phi-readoff-flow-8x1": (
        ["phi", "readoff", *FLOW_8X1], 0,
        "5294da8a90ad22a447c7d54ed6da3c20bf0b1ad00c97c6def763063200b9f3fd"),
    "phi-roundtrip-flow-8x1": (
        ["phi", "roundtrip", *FLOW_8X1], 0,
        "c2716d06b8931950f09e94a75312a8564ba1f9645f2db9391e38adc8c0968921"),
    "phi-build-diag-masa-6": (
        ["phi", "build", *DIAG_MASA_6], 0,
        "1d14504387380048bf7d8c5bc86a7c92605478f39808dcdce45b4961b7b7ba98"),
    "phi-readoff-diag-masa-6": (
        ["phi", "readoff", *DIAG_MASA_6], 0,
        "362401b9e91707171baab388c8d058897f75e05ec052e61d4edbc8e0954434ce"),
    "phi-roundtrip-diag-masa-6": (["phi", "roundtrip", *DIAG_MASA_6], 0, ROUND_TRIP),
    "phi-build-semidirect": (
        ["phi", "build", "--preset", "semidirect"], 0,
        "d54e62e3f577d4982906da3def219f9af8dea7e8a9786d8ee7102b4e3ed8ca7a"),
    # the read-off fails, as in phi-readoff-semidirect
    "phi-roundtrip-semidirect": (
        ["phi", "roundtrip", "--preset", "semidirect"], 1,
        "307077646b76b3840ab016576a139c292e5c1fa307905c189b8f991b37bc3996"),
    # the model file holds −0.0; the printed Φ holds none
    "phi-build-rot90-4x2": (
        ["phi", "build", "--input", "ROT90_4X2"], 0,
        "f473aa6f734359dbdaa1bb14308694f74d7101125ad39fa6aaf9d9f0be83581d"),
    "phi-readoff-rot90-4x2": (
        ["phi", "readoff", "--input", "ROT90_4X2"], 0,
        "908457b085ed2c332c56e59ec921c76a9dbae1cbd9ad8fd22e3dd25e38527338"),
    "phi-roundtrip-rot90-4x2": (["phi", "roundtrip", "--input", "ROT90_4X2"], 0,
                                ROUND_TRIP),
    "report-rot90-4x2": (
        ["report", "--input", "ROT90_4X2"], 0,
        "828fab72e3e5d5697755d5aaf5d4e1094065416f6e5da684b027e825d1bc3c9f"),
}


@pytest.mark.parametrize("name", CASES)
def test_report_bytes_are_unchanged(name, tmp_path):
    args, exit_code, digest = CASES[name]
    paths = {}
    for key, doc in MODELS.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    args = [str(paths[a]) if a in paths else a for a in args]
    assert main([*args, "--out", str(out)]) == exit_code
    body = out.read_bytes()
    if name.endswith("semidirect") and name != "phi-build-semidirect":
        assert "holonomy 1.751e+00 at point 1".encode() in body
    if name == "phi-build-rot90-4x2":
        assert b"-0.0" in paths["ROT90_4X2"].read_bytes()
        assert not re.search(rb"-0\.0\b", body)
    assert hashlib.sha256(body).hexdigest() == digest
