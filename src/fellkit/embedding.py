"""The embedding invariant Φ and the round trips built on it.

Φ = Σ_m σ^m, summed over the powers of a covariance group's generator σ, is
held as its blocks: on a minimal flow f on n points block (x, y) is the fibre
map of the one power σ^m with f^m(y) = x, a partial isometry.  From an
orientable Φ one reads off the diagonal algebra, the ambient algebra, the
canonical expectation, a normalizer sample (Φ's blocks) and the twist.

The holonomy decides the read-off, its twist and the round trip.  Write
W_m(y) for σ^m's fibre map at y (W_0 = I), H_z = W_n(z) for σⁿ's, which is
``CovarianceGroup.maps[-1][z]`` and Φ's diagonal block (z, z), and
h = max_z ‖H_z − I‖.  The read-off assignment is a(x, y) = W_m(y) with
0 ≤ m < n and f^m(y) = x, Φ's block off the diagonal and I on it, and its
twist is ω = δa.  For unitary fibre maps:

* a(y, x)·a(x, y) = H_y for x ≠ y, as the two powers sum to n.  So the
  involution defect a(y, x) − a(x, y)* = (H_y − I)·a(x, y)* has norm
  ‖H_y − I‖: the frame check of ``cocycle.extract_cocycle`` reads exactly
  h.
* ω(x, y, z) = a(x, y)·a(y, z)·a(x, z)* is I when the powers of a(x, y)
  and a(y, z) sum below n, and a(x, z)·H_z·a(x, z)* otherwise; at n > 1
  every z has such a triple (x = z ≠ y).  So max ‖ω − I‖ = h, and h ≤ eps
  keeps every ω within eps of I off its diagonal and in modulus:
  ``extract_cocycle``'s ⊕𝕋 check passes.
* ω = δa satisfies the cocycle identity, twisted by α_g = Ad a(g),
  identically: its residual measures rounding only.
* The bundle rebuilt from the read-off has frame a, so its generator's maps
  a(f(x), x) = W_1(x) are σ's own at n > 1, and the recovered σ′, Φ′ and ω′
  equal σ, Φ and ω bit for bit.  At n = 1, a = I, so σ′ = Φ′ = I and
  ‖σ′ − σ‖ = ‖Φ′ − Φ‖ = h.

So one threshold, h ≤ eps, decides the read-off (``read_off_pair`` raises
iff h > eps), the cocycle entry on a read-off ω and the round trip
(``bridge_round_trip``).  h is n stacked d × d norms.  The path these
identities replace, the read-off gated by ``extract_cocycle``'s checks, the
n⁴ identity on its ω, the bundle rebuilt from it and a second pipeline on
that bundle, is kept in ``tests/`` as their oracle.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .algebra import BlockSample, FiniteCStarAlgebra
from .cocycle import Cocycle2, coboundary
from .dynamics import CovarianceGroup
from .fellbundle import (
    AxiomReport,
    ConditionalExpectation,
    FellBundleModel,
    _zero_fibre_mask,
    check_fell_axioms,
    diagonal_algebra,
    enveloping_algebra,
    restriction_expectation,
)
from .groupoid import Arrow, is_minimal_flow, orbit_pairs
from .linalg import DEFAULT_EPS, _numerical_rank, operator_norms, singular_values
from .subalgebra import PairCandidate, PairClassification, SpanValues, classify_pair


# the round trip's residuals, as its report's ``<name>_residual`` keys
ROUND_TRIP_RESIDUALS = ("holonomy", "omega", "expectation", "sigma", "phi")


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
    """Every block has norm > eps and full rank min(nᵢ, nⱼ) — no vanishing
    section — read off one stacked SVD of the blocks."""
    dims, m = phi.block_dims, phi.blocks.shape[-1]
    sv = singular_values(phi.blocks.reshape(-1, m, m))
    full = np.minimum.outer(dims, dims).ravel()
    return bool(np.all(sv[:, 0] > eps) and np.all(_numerical_rank(sv, eps) == full))


@dataclass
class ReadOff:
    """Everything read directly off an orientable Φ; on constant block dims
    also its holonomy h = max_z ‖Φ_zz − I‖ and the point z that attains it."""

    A: FiniteCStarAlgebra
    B: FiniteCStarAlgebra
    P: ConditionalExpectation
    normalizer_sample: BlockSample  # Φ's n² blocks
    assignment: np.ndarray | None  # (n, n, d, d), as FellBundleModel.frame
    omega: Cocycle2 | None
    holonomy: float | None
    witness: int | None  # z, 0-indexed
    note: str = ""


def read_off_pair(phi: EmbeddingInvariant, eps: float = DEFAULT_EPS) -> ReadOff:
    """(A, B, P, normalizer sample, ω) from an orientable Φ.

    Raises for non-orientable Φ (a vanishing block means Φ fails to be a
    nowhere-vanishing section and the read-off is undefined).  On constant
    block dims it raises iff the holonomy h exceeds eps, naming h and the
    point z, numbered from 1 as a report numbers points.  Else the
    assignment is Φ's blocks with I on the diagonal and ω is its coboundary,
    with the assignment attached as its frame: by the module docstring's
    identities, h ≤ eps is what ``extract_cocycle``'s frame and ⊕𝕋 checks
    decide, so they do not run.
    """
    if not is_orientable(phi, eps):
        raise ValueError("Φ is not orientable; read-off undefined")
    A = phi.algebra
    B = FiniteCStarAlgebra((A.ambient_dim,))
    P = ConditionalExpectation(range_algebra=A)
    n, m, blocks = A.n_blocks, max(A.block_dims), phi.blocks
    sample = BlockSample(*np.divmod(np.arange(n * n), n), blocks.reshape(-1, m, m))
    assignment = omega = holonomy = witness = None
    note = ""
    if len(set(A.block_dims)) == 1:
        defects = operator_norms(blocks[range(n), range(n)] - np.eye(m))
        witness = int(defects.argmax())
        holonomy = float(defects[witness])
        if holonomy > eps:
            raise ValueError(
                f"holonomy {holonomy:.3e} at point {witness + 1} exceeds eps")
        # assignment[i, j] is the (i, j) block of Φ, the identity on the diagonal
        assignment = blocks.copy()  # the sample keeps Φ's diagonal blocks
        assignment[range(n), range(n)] = np.eye(m)
        omega = Cocycle2(values=coboundary(assignment), frame=assignment)
    else:
        note = (
            "varying block ranks: off-diagonal blocks are partial isometries, "
            "no ⊕𝕋-valued twist is defined"
        )
    return ReadOff(A=A, B=B, P=P, normalizer_sample=sample, assignment=assignment,
                   omega=omega, holonomy=holonomy, witness=witness, note=note)


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
    sv = (np.repeat(E.audit.values[x, y], dims[0]) if E.coefficient_form
          else np.ones(int((dims[x] * dims[y]).sum())))
    return pair, classify_pair(pair, SpanValues(sv), eps), axioms


def bridge_round_trip(
    Gs: CovarianceGroup, eps: float = DEFAULT_EPS, built: Pipeline | None = None
) -> dict:
    """Covariance group → Φ → (A,B,P,ω) → bundle → covariance group, decided
    by the holonomy h (module docstring).

    The stages that run are Φ and its read-off, of ``built``, the pipeline
    of Gs that a report shares with its other stages, else one of its own;
    a stage error propagates with its label, and the read-off raises iff
    h > eps.  The recovered side is not built: each of its residuals is the
    value the identities give.  ω's is 0.0, and so is the expectation's, as
    the rebuilt bundle's A has the read-off's block dims; σ's and Φ's are
    0.0 at n > 1 and h at n = 1.  It passes if the read-off's block dims are
    σ's fibre dims and each ``ROUND_TRIP_RESIDUALS`` entry is at most eps."""
    report: dict = {"stages": []}

    def stage(name, fn):
        try:
            out = fn()
        except Exception as exc:
            raise RuntimeError(f"round trip failed at stage '{name}': {exc}") from exc
        report["stages"].append(name)
        return out

    built = built or Pipeline(None, lambda: Gs, eps)
    stage("phi", built.phi)
    readoff = stage("read-off", built.readoff)
    h = readoff.holonomy
    one_point = h if Gs.n_points == 1 else 0.0
    report.update({"block_dims_match": readoff.A.block_dims == Gs.fibre_dims,
                   "holonomy_residual": h, "omega_residual": 0.0,
                   "expectation_residual": 0.0, "sigma_residual": one_point,
                   "phi_residual": one_point})
    report["pass"] = report["block_dims_match"] and all(
        report[f"{r}_residual"] <= eps for r in ROUND_TRIP_RESIDUALS)
    return report
