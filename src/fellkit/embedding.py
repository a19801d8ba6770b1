"""The embedding invariant Φ and the round trips built on it.

Φ = Σ_m σ^m, summed over the powers of a covariance group's generator σ, is
held as its blocks: on a minimal flow block (x, y) is the fibre map of the
one power σ^m with f^m(y) = x, a partial isometry.  From an orientable Φ one
reads off the diagonal algebra, the ambient algebra, the canonical
expectation, a normalizer sample (Φ's blocks) and the twist.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .algebra import BlockSample, FiniteCStarAlgebra
from .cocycle import Cocycle2, extract_cocycle
from .dynamics import CovarianceGroup, covariance_group_from_frame
from .fellbundle import (
    AxiomReport,
    CStarBundle,
    ConditionalExpectation,
    FellBundleModel,
    _zero_fibre_mask,
    build_semidirect_bundle,
    check_fell_axioms,
    diagonal_algebra,
    enveloping_algebra,
    restriction_expectation,
)
from .groupoid import Arrow, is_minimal_flow, orbit_pairs
from .linalg import DEFAULT_EPS, operator_norm, operator_norms, ranks, singular_values
from .subalgebra import PairCandidate, PairClassification, SpanValues, classify_pair


# the round trip's residuals, as its report's ``<name>_residual`` keys
ROUND_TRIP_RESIDUALS = ("omega", "expectation", "sigma", "phi")


class IncompleteSupportError(ValueError):
    """The generating flow misses part of X×X; Φ cannot have full support."""

    def __init__(self, missing: list[Arrow]):
        self.missing = missing
        super().__init__(
            f"flow is not minimal; Φ would miss block pairs {sorted(missing)}"
        )


@dataclass(frozen=True)
class EmbeddingInvariant:
    """Φ as its blocks p_i Φ p_j, zero-padded as ``FiniteCStarAlgebra.blocks`` pads."""

    blocks: np.ndarray  # (n, n, m, m)
    block_dims: tuple[int, ...]

    @property
    def algebra(self) -> FiniteCStarAlgebra:
        return FiniteCStarAlgebra(self.block_dims)

    def block_support(self, eps: float = DEFAULT_EPS) -> set[tuple[int, int]]:
        m = self.blocks.shape[-1]
        live = operator_norms(self.blocks.reshape(-1, m, m)) > eps
        return {divmod(int(t), len(self.block_dims)) for t in np.flatnonzero(live)}

    def matrix(self) -> np.ndarray:
        """The N × N Φ, assembled from its blocks by one embed_blocks call."""
        i, j = np.indices(self.blocks.shape[:2])[:, None]
        return self.algebra.embed_blocks(i, j, self.blocks[None])[0]


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
    # σ's powers can hold −0.0 (w² = −I for a rotation w); + 0.0 makes it
    # +0.0, as summing σ's N×N powers did, so printed bytes keep their signs
    return EmbeddingInvariant(blocks=Gs.blocks + 0.0, block_dims=dims)


def is_orientable(phi: EmbeddingInvariant, eps: float = DEFAULT_EPS) -> bool:
    """Every block has full rank min(nᵢ, nⱼ) — no vanishing section."""
    dims, m = phi.block_dims, phi.blocks.shape[-1]
    full = np.minimum.outer(dims, dims).ravel()
    return (len(phi.block_support(eps)) == len(full)
            and bool(np.all(ranks(phi.blocks.reshape(-1, m, m), eps) == full)))


@dataclass
class ReadOff:
    """Everything read directly off an orientable Φ."""

    A: FiniteCStarAlgebra
    B: FiniteCStarAlgebra
    P: ConditionalExpectation
    normalizer_sample: BlockSample  # Φ's n² blocks
    assignment: np.ndarray | None  # (n, n, d, d), as FellBundleModel.frame
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
    n, m, blocks = A.n_blocks, max(A.block_dims), phi.blocks
    sample = BlockSample(*np.divmod(np.arange(n * n), n), blocks.reshape(-1, m, m))
    assignment, omega, note = None, None, ""
    if len(set(A.block_dims)) == 1:
        # assignment[i, j] is the (i, j) block of Φ, the identity on the diagonal
        assignment = blocks.copy()  # the sample keeps Φ's diagonal blocks
        assignment[range(n), range(n)] = np.eye(m)
        omega = extract_cocycle(assignment, eps)
    else:
        note = (
            "varying block ranks: off-diagonal blocks are partial isometries, "
            "no ⊕𝕋-valued twist is defined"
        )
    return ReadOff(A=A, B=B, P=P, normalizer_sample=sample, assignment=assignment,
                   omega=omega, note=note)


class Pipeline:
    """One command's shared stage inputs: the axiom report of ``model``, the
    covariance group that ``group()`` builds, its Φ and Φ's read-off, each a
    callable that builds on first call and keeps the result.  A build that
    raises is not kept, so it raises again at each call: every stage that
    shares one pipeline and meets the error reports it in its own entry."""

    def __init__(self, model: FellBundleModel | None,
                 group: Callable[[], CovarianceGroup], eps: float):
        self.model, self.eps = model, eps
        self.axioms = functools.cache(lambda: check_fell_axioms(model, eps=eps))
        self.group = group = functools.cache(group)
        self.phi = phi = functools.cache(lambda: phi_from_covariance_group(group(), eps))
        self.readoff = functools.cache(lambda: read_off_pair(phi(), eps))


def cartan_from_fell_bundle(
    E: FellBundleModel,
    eps: float = DEFAULT_EPS,
    axioms: AxiomReport | None = None,
) -> tuple[PairCandidate, PairClassification, AxiomReport]:
    """The pair (A, B, P) of a bundle with its classification evidence.

    The normalizer family, the fibre bases over the off-diagonal arrows with
    nonzero fibres, is passed as its span's singular values, with no sample or
    grouped SVD: at (x, y), n_x·n_y values 1.0 (units E_rc), or u_(x,y)'s each
    d times (E_rc·u_(x,y) in coefficient form).  Raises if the bundle fails
    the axiom suite, which runs unless its report is passed as ``axioms``.
    """
    if axioms is None:
        axioms = check_fell_axioms(E, eps=eps)
    if not axioms.all_passed:
        raise ValueError(f"bundle fails axioms {axioms.failed_axioms()}")
    A = diagonal_algebra(E)
    pair = PairCandidate(A=A, B=enveloping_algebra(E), P=restriction_expectation(E))
    x, y = np.nonzero(~np.eye(A.n_blocks, dtype=bool) & ~_zero_fibre_mask(E))
    dims = np.array(A.block_dims)
    sv = (np.repeat(singular_values(E.frame[x, y]), dims[0]) if E.coefficient_form
          else np.ones(int((dims[x] * dims[y]).sum())))
    return pair, classify_pair(pair, SpanValues(sv), eps), axioms


def bridge_round_trip(
    Gs: CovarianceGroup, eps: float = DEFAULT_EPS, built: Pipeline | None = None
) -> dict:
    """Covariance group → Φ → (A,B,P,ω) → bundle → covariance group, compared.

    Verifies the recovered block dims, twist, expectation, generator and Φ
    against the originals; any stage error propagates with its label.  The
    original side is ``built``, the pipeline of Gs that a report shares
    with its other stages, else one of its own; the recovered side is a
    second pipeline, on the rebuilt bundle.  It passes if the block dims match
    and each ``ROUND_TRIP_RESIDUALS`` entry is at most eps.  An expectation is
    fixed by A's block dims, so its residual is 1.0 if they differ, else 0.0.
    Both σ are block permutations over one f0: ‖U − U′‖ = max ‖w_x − w′_x‖;
    ‖Φ′ − Φ‖ is one SVD of the assembled difference, the one N×N SVD."""
    report: dict = {"stages": []}

    def stage(name, fn):
        try:
            out = fn()
        except Exception as exc:
            raise RuntimeError(f"round trip failed at stage '{name}': {exc}") from exc
        report["stages"].append(name)
        return out

    built = built or Pipeline(None, lambda: Gs, eps)
    phi = stage("phi", built.phi)
    readoff = stage("read-off", built.readoff)
    rebuilt = stage(
        "rebuild-bundle",
        lambda: build_semidirect_bundle(
            CStarBundle(readoff.A.block_dims),
            frame=readoff.assignment,
            twist=readoff.omega,
            eps=eps,
        ),
    )
    again = Pipeline(
        rebuilt, lambda: covariance_group_from_frame(Gs.flow.generator, rebuilt, eps), eps)
    recovered = stage("recover-covariance-group", again.group)
    phi2 = stage("phi-recovered", again.phi)
    readoff2 = stage("read-off-recovered", again.readoff)

    delta = readoff.omega.values - readoff2.omega.values
    report.update(
        {
            "block_dims_match": readoff2.A.block_dims == Gs.fibre_dims,
            "omega_residual": float(operator_norms(delta.reshape(-1, *delta.shape[-2:])).max()),
            "expectation_residual": float(readoff.A.block_dims != readoff2.A.block_dims),
            "sigma_residual": float(operator_norms(recovered.sigma.fibre_maps
                                                   - Gs.sigma.fibre_maps).max()),
            "phi_residual": operator_norm(
                replace(phi, blocks=phi2.blocks - phi.blocks).matrix()),
        }
    )
    report["pass"] = report["block_dims_match"] and all(
        report[f"{r}_residual"] <= eps for r in ROUND_TRIP_RESIDUALS)
    return report
