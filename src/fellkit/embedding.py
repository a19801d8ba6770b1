"""The embedding invariant Φ and the round trips built on it.

Φ is a single element of the ambient algebra whose blocks are partial
isometries, one per pair of block indices.  It can be assembled directly from
block units, or generated from a covariance group as the sum of partial
products of the single generator; from an orientable Φ one reads off the
diagonal algebra, the ambient algebra, the canonical expectation, a normalizer
sample and the twist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteCStarAlgebra
from .cocycle import Cocycle2, extract_cocycle
from .dynamics import CovarianceGroup, covariance_group_from_frame
from .fellbundle import (
    AxiomReport,
    CStarBundle,
    ConditionalExpectation,
    FellBundleModel,
    build_semidirect_bundle,
    check_fell_axioms,
    diagonal_algebra,
    enveloping_algebra,
    restriction_expectation,
)
from .groupoid import Arrow, is_minimal_flow, orbit_pairs
from .linalg import (
    DEFAULT_EPS,
    as_matrix,
    is_partial_isometry,
    operator_norm,
    random_matrix,
    rank,
)
from .subalgebra import PairCandidate, PairClassification, classify_pair


class IncompleteSupportError(ValueError):
    """The generating flow misses part of X×X; Φ cannot have full support."""

    def __init__(self, missing: list[Arrow]):
        self.missing = missing
        super().__init__(
            f"flow is not minimal; Φ would miss block pairs {sorted(missing)}"
        )


@dataclass(frozen=True)
class EmbeddingInvariant:
    """Φ together with the block structure it is read against."""

    phi: np.ndarray
    block_dims: tuple[int, ...]

    @property
    def algebra(self) -> FiniteCStarAlgebra:
        return FiniteCStarAlgebra(self.block_dims)

    def block(self, i: int, j: int) -> np.ndarray:
        return self.algebra.block(self.phi, i, j)

    def block_support(self, eps: float = DEFAULT_EPS) -> set[tuple[int, int]]:
        support = self.algebra.block_norms(self.phi) > eps
        return {(int(i), int(j)) for i, j in np.argwhere(support)}


def phi_from_block_units(
    units: dict[tuple[int, int], np.ndarray],
    algebra: FiniteCStarAlgebra,
    subset: set[int] | None = None,
    eps: float = DEFAULT_EPS,
) -> EmbeddingInvariant:
    """Assemble Φ = Σ_{(i,j) ∈ Y×Y} u_(i,j) from ambient block units.

    Each u_(i,j) must be supported exactly on block (i, j) and be a partial
    isometry there; Y defaults to the full index set.
    """
    A = algebra
    if subset is None:
        subset = set(range(A.n_blocks))
    phi = np.zeros((A.ambient_dim, A.ambient_dim), dtype=complex)
    for (i, j), u in units.items():
        m = as_matrix(u)
        stray = A.block_norms(m) > eps
        stray[i, j] = False
        if stray.any():
            k, l = np.argwhere(stray)[0]
            raise ValueError(f"unit for ({i},{j}) has support on block ({k},{l})")
        if not is_partial_isometry(A.block(m, i, j), eps):
            raise ValueError(f"block ({i},{j}) is not a partial isometry")
        if i in subset and j in subset:
            phi += m
    return EmbeddingInvariant(phi=phi, block_dims=A.block_dims)


def phi_from_covariance_group(
    Gs: CovarianceGroup, eps: float = DEFAULT_EPS
) -> EmbeddingInvariant:
    """Φ = Σ_{m=1}^{n} σ^m for a minimal cyclic flow on n points.

    The orbit pairs {(g^m(x), x)} then enumerate every block pair exactly
    once, so Φ has full block support.
    """
    n = Gs.n_points
    if not is_minimal_flow(Gs.flow.generator):
        full = {(x, y) for x in range(n) for y in range(n)}
        missing = sorted(full - orbit_pairs(Gs.flow.generator))
        raise IncompleteSupportError(missing)
    dims = Gs.fibre_dims
    if len(set(dims)) != 1:
        raise ValueError("Φ from a covariance group needs constant fibre dims")
    N = sum(dims)
    phi = np.zeros((N, N), dtype=complex)
    for element in Gs.elements:
        phi += element.U
    return EmbeddingInvariant(phi=phi, block_dims=dims)


def is_orientable(phi: EmbeddingInvariant, eps: float = DEFAULT_EPS) -> bool:
    """Every block has full rank min(nᵢ, nⱼ) — no vanishing section."""
    A = phi.algebra
    if not np.all(A.block_norms(phi.phi) > eps):
        return False
    return all(
        rank(phi.block(i, j), eps) == min(A.block_dims[i], A.block_dims[j])
        for i in range(A.n_blocks)
        for j in range(A.n_blocks)
    )


@dataclass
class ReadOff:
    """Everything read directly off an orientable Φ."""

    A: FiniteCStarAlgebra
    B: FiniteCStarAlgebra
    P: ConditionalExpectation
    normalizer_sample: list[np.ndarray]
    assignment: dict[Arrow, np.ndarray] | None
    omega: Cocycle2 | None
    note: str = ""


def read_off_pair(phi: EmbeddingInvariant, eps: float = DEFAULT_EPS) -> ReadOff:
    """(A, B, P, normalizer sample, ω) from an orientable Φ.

    Raises for non-orientable Φ (a vanishing block means Φ fails to be a
    nowhere-vanishing section and the read-off is undefined).
    """
    if not is_orientable(phi, eps):
        raise ValueError("Φ is not orientable; read-off undefined")
    A = phi.algebra
    B = FiniteCStarAlgebra((A.ambient_dim,))
    P = ConditionalExpectation(range_algebra=A)
    sample = [
        A.embed_block(i, j, phi.block(i, j))
        for i in range(A.n_blocks)
        for j in range(A.n_blocks)
    ]
    assignment = None
    omega = None
    note = ""
    if len(set(A.block_dims)) == 1:
        assignment = {}
        dim = A.block_dims[0]
        for i in range(A.n_blocks):
            for j in range(A.n_blocks):
                if i == j:
                    assignment[(i, j)] = np.eye(dim, dtype=complex)
                else:
                    assignment[(i, j)] = phi.block(i, j)
        omega = extract_cocycle(assignment, eps)
    else:
        note = (
            "varying block ranks: off-diagonal blocks are partial isometries, "
            "no ⊕𝕋-valued twist is defined"
        )
    return ReadOff(
        A=A, B=B, P=P, normalizer_sample=sample, assignment=assignment,
        omega=omega, note=note,
    )


def cartan_from_fell_bundle(
    E: FellBundleModel,
    eps: float = DEFAULT_EPS,
    samples: int = 200,
    rng: np.random.Generator | None = None,
    axioms: AxiomReport | None = None,
) -> tuple[PairCandidate, PairClassification, AxiomReport]:
    """The pair (A, B, P) of a bundle with its classification evidence.

    The normalizer sample is the bundle's fibre bases over the off-diagonal
    arrows, embedded in B.  Raises if the bundle fails the axiom suite, which
    runs on rng unless its report is passed as ``axioms``.
    """
    if axioms is None:
        axioms = check_fell_axioms(E, sample_count=samples, eps=eps, rng=rng)
    if not axioms.all_passed:
        raise ValueError(f"bundle fails axioms {axioms.failed_axioms()}")
    pair = PairCandidate(
        A=diagonal_algebra(E), B=enveloping_algebra(E), P=restriction_expectation(E)
    )
    sample = [E.embed(g, e) for g in E.groupoid.arrows() if g[0] != g[1]
              for e in E.fibre_basis(g)]
    classification = classify_pair(pair, sample, eps, rng=rng)
    return pair, classification, axioms


def bridge_round_trip(Gs: CovarianceGroup, eps: float = DEFAULT_EPS) -> dict:
    """Covariance group → Φ → (A,B,P,ω) → bundle → covariance group, compared.

    Verifies the recovered block dims, twist, expectation, generator and Φ
    against the originals; any stage error propagates with its label.
    """
    report: dict = {"stages": []}

    def stage(name, fn):
        try:
            out = fn()
        except Exception as exc:
            raise RuntimeError(f"round trip failed at stage '{name}': {exc}") from exc
        report["stages"].append(name)
        return out

    phi = stage("phi", lambda: phi_from_covariance_group(Gs, eps))
    readoff = stage("read-off", lambda: read_off_pair(phi, eps))
    rebuilt = stage(
        "rebuild-bundle",
        lambda: build_semidirect_bundle(
            CStarBundle(readoff.A.block_dims),
            frame=readoff.assignment,
            twist=readoff.omega,
            eps=eps,
        ),
    )
    recovered = stage(
        "recover-covariance-group",
        lambda: covariance_group_from_frame(Gs.flow.generator, rebuilt),
    )
    phi2 = stage("phi-recovered", lambda: phi_from_covariance_group(recovered, eps))
    readoff2 = stage("read-off-recovered", lambda: read_off_pair(phi2, eps))

    dims_match = readoff2.A.block_dims == Gs.fibre_dims
    omega_residual = 0.0
    if readoff.omega is not None and readoff2.omega is not None:
        for pair_key, v in readoff.omega.values.items():
            omega_residual = max(
                omega_residual,
                operator_norm(v - readoff2.omega.value(*pair_key)),
            )
    rng = np.random.default_rng(0)
    d = readoff.A.ambient_dim
    p_residual = 0.0
    for _ in range(20):
        b = random_matrix((d, d), rng)
        p_residual = max(p_residual, operator_norm(readoff.P(b) - readoff2.P(b)))
    sigma_residual = operator_norm(recovered.sigma.U - Gs.sigma.U)
    phi_residual = operator_norm(phi2.phi - phi.phi)

    report.update(
        {
            "block_dims_match": dims_match,
            "omega_residual": omega_residual,
            "expectation_residual": p_residual,
            "sigma_residual": sigma_residual,
            "phi_residual": phi_residual,
            "pass": bool(
                dims_match
                and omega_residual <= eps
                and p_residual <= eps
                and sigma_residual <= eps
                and phi_residual <= eps
            ),
        }
    )
    return report
