"""The read-off, its cocycle entry and the round trip decided the long way:
the oracle of the holonomy rule in ``fellkit.embedding``.

* ``oracle_read_off`` gates the read-off on ``extract_cocycle``'s frame and
  ⊕𝕋 checks of Φ's assignment.
* ``oracle_cocycle_residual`` is the n⁴ cocycle identity on its ω.
* ``oracle_round_trip`` rebuilds the bundle from the read-off, runs a second
  group, Φ and read-off on it, and compares each recovered piece with the
  original: ω, the expectation (by block dims), σ and Φ.

The holonomy rule must give the verdicts of these three outside
(eps/2, eps], and the recovered residuals that they measure.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from fellkit.cocycle import cocycle_identity_residual, extract_cocycle
from fellkit.dynamics import covariance_group_from_frame
from fellkit.embedding import is_orientable, phi_from_covariance_group
from fellkit.fellbundle import CStarBundle, build_semidirect_bundle
from fellkit.linalg import operator_norm, operator_norms

# the oracle's residuals, as its report's ``<name>_residual`` keys
ORACLE_RESIDUALS = ("omega", "expectation", "sigma", "phi")


def oracle_read_off(phi, eps=1e-9):
    """A, the assignment (Φ's blocks, I on the diagonal) and ω from
    ``extract_cocycle``, which raises unless the assignment is a frame with
    ⊕𝕋-valued defects; constant block dims only."""
    if not is_orientable(phi, eps):
        raise ValueError("Φ is not orientable; read-off undefined")
    n, m = len(phi.block_dims), phi.blocks.shape[-1]
    assignment = phi.blocks.copy()
    assignment[range(n), range(n)] = np.eye(m)
    return SimpleNamespace(A=phi.algebra, assignment=assignment,
                           omega=extract_cocycle(assignment, eps))


def oracle_cocycle_residual(phi, eps=1e-9):
    """The n⁴ cocycle-identity residual of the oracle read-off's ω."""
    return cocycle_identity_residual(oracle_read_off(phi, eps).omega)


def oracle_round_trip(Gs, eps=1e-9):
    """Covariance group → Φ → (A, ω) → bundle → covariance group → Φ′ →
    (A′, ω′), each stage labelled as ``bridge_round_trip`` labels its own."""
    report = {"stages": []}

    def stage(name, fn):
        try:
            out = fn()
        except Exception as exc:
            raise RuntimeError(f"round trip failed at stage '{name}': {exc}") from exc
        report["stages"].append(name)
        return out

    phi = stage("phi", lambda: phi_from_covariance_group(Gs, eps))
    readoff = stage("read-off", lambda: oracle_read_off(phi, eps))
    rebuilt = stage("rebuild-bundle", lambda: build_semidirect_bundle(
        CStarBundle(readoff.A.block_dims), frame=readoff.assignment,
        twist=readoff.omega, eps=eps))
    recovered = stage("recover-covariance-group",
                      lambda: covariance_group_from_frame(Gs.flow.generator, rebuilt, eps))
    phi2 = stage("phi-recovered", lambda: phi_from_covariance_group(recovered, eps))
    readoff2 = stage("read-off-recovered", lambda: oracle_read_off(phi2, eps))

    delta = readoff.omega.values - readoff2.omega.values
    report.update({
        "block_dims_match": readoff2.A.block_dims == Gs.fibre_dims,
        "omega_residual": float(operator_norms(delta.reshape(-1, *delta.shape[-2:])).max()),
        "expectation_residual": float(readoff.A.block_dims != readoff2.A.block_dims),
        "sigma_residual": float(operator_norms(recovered.sigma.fibre_maps
                                               - Gs.sigma.fibre_maps).max()),
        "phi_residual": operator_norm(replace(phi, blocks=phi2.blocks - phi.blocks).matrix()),
    })
    report["pass"] = report["block_dims_match"] and all(
        report[f"{r}_residual"] <= eps for r in ORACLE_RESIDUALS)
    report["recovered"] = SimpleNamespace(group=recovered, phi=phi2, readoff=readoff2)
    return report


def oracle_verdicts(model, generator, eps=1e-9):
    """The oracle's `phi-readoff`, `cocycle` and `phi-roundtrip` verdicts on
    a framed model without a twist, failing where a stage raises as the
    report's entries do."""
    Gs = covariance_group_from_frame(generator, model, eps)
    phi = phi_from_covariance_group(Gs, eps)
    try:
        oracle_read_off(phi, eps)
        readoff, cocycle = True, oracle_cocycle_residual(phi, eps) <= eps
    except ValueError:
        readoff = cocycle = False
    try:
        round_trip = oracle_round_trip(Gs, eps)["pass"]
    except RuntimeError:
        round_trip = False
    return {"phi-readoff": readoff, "cocycle": cocycle, "phi-roundtrip": round_trip}
