"""Normalizers, regularity, Cartan/diagonal-pair classification and slices.

A subalgebra A ⊂ B is probed through its normalizing set
N(A) = {b : b*Ab ⊆ A, bAb* ⊆ A}; b is free when additionally b² = 0.
For A = ⊕M_{n_i}, b ∈ N(A) exactly when its block support is a partial
bijection, which is read off the table ``FiniteCStarAlgebra.block_norms(b)``.
The classification of a candidate pair runs the unit/regularity/expectation
checks and then asks whether the free normalizers inside ker P span ker P,
as in Kumjian's "On C*-diagonals" (1986) and Exel's "Noncommutative Cartan
sub-algebras of C*-algebras" (2011).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteCStarAlgebra
from .fellbundle import ConditionalExpectation
from .linalg import (
    DEFAULT_EPS,
    as_matrix,
    is_in_span,
    operator_norm,
    span_dimension,
)


def _columns_meet_one_block(t: np.ndarray, eps: float) -> bool:
    """In every column of the block-norm table t, the two largest entries
    multiply to at most eps (a zero row gives each column a second entry)."""
    cols = np.sort(np.pad(t, ((0, 1), (0, 0))), axis=0)
    return bool(np.all(cols[-1] * cols[-2] <= eps))


def is_normalizer(b, A: FiniteCStarAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """b*Ab ⊆ A and bAb* ⊆ A, decided on the block-norm table of b.

    For A = ⊕M_{n_k}, b normalizes A exactly when its block support is a
    partial bijection: each block row and each block column of b meets at
    most one block.  With b_kj = p_k b p_j and a a unit-norm element of block
    k, the worst case of ∥p_j b*ab p_l∥ (j ≠ l) is ∥b_kj∥·∥b_kl∥, and that of
    ∥p_j bab* p_l∥ is ∥b_jk∥·∥b_lk∥.  So b passes iff, in every row and every
    column of the table, the two largest entries multiply to at most eps: the
    same absolute tolerance the definition applies to b*ab and bab*.
    """
    t = A.block_norms(b)
    return _columns_meet_one_block(t, eps) and _columns_meet_one_block(t.T, eps)


def is_free_normalizer(b, A: FiniteCStarAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """A normalizer with b² = 0."""
    m = as_matrix(b)
    return operator_norm(m @ m) <= eps and is_normalizer(m, A, eps)


@dataclass(frozen=True)
class PairCandidate:
    """A candidate (A, B, P): block subalgebra, single-block ambient, expectation."""

    A: FiniteCStarAlgebra
    B: FiniteCStarAlgebra
    P: ConditionalExpectation

    def __post_init__(self):
        if self.B.n_blocks != 1:
            raise ValueError("ambient algebra must be a single full matrix block")
        if self.A.ambient_dim != self.B.ambient_dim:
            raise ValueError("A and B must share the ambient representation")


def is_regular(
    pair: PairCandidate,
    normalizer_sample: list[np.ndarray],
    eps: float = DEFAULT_EPS,
) -> bool:
    """ls N(A) = B at sample scale: the sample plus basis(A) spans B.

    Raises if the sample contains a non-normalizer (contract violation).
    """
    for i, b in enumerate(normalizer_sample):
        if not is_normalizer(b, pair.A, eps):
            raise ValueError(f"sample element {i} is not a normalizer of A")
    family = list(normalizer_sample) + pair.A.basis()
    return span_dimension(family, eps) == pair.B.dim()


@dataclass
class PairClassification:
    verdict: str  # "diagonal" | "cartan" | "neither"
    evidence: dict

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, **self.evidence}


def classify_pair(
    pair: PairCandidate,
    normalizer_sample: list[np.ndarray],
    eps: float = DEFAULT_EPS,
    rng: np.random.Generator | None = None,
) -> PairClassification:
    """Diagonal / Cartan / neither, with per-check evidence.

    diagonal: unit in A, regular, P valid and faithful, and the sample's free
    normalizers in ker P span ker P, of dimension dim B − dim A (Kumjian
    1986; Exel 2011); cartan: all but the kernel identity; neither: anything
    earlier fails.  Equal dimensions mean equal spans, as one contains the other.
    """
    unit_in_A = pair.A.contains(pair.B.unit(), eps)
    regular = is_regular(pair, normalizer_sample, eps)
    p_report = pair.P.verify(eps=eps, rng=rng)
    p_ok = all(v[0] for k, v in p_report.items() if isinstance(v, tuple))

    kernel_dim = pair.B.dim() - pair.A.dim()
    in_kernel = [b for b in normalizer_sample if operator_norm(pair.P(b)) <= eps]
    free = [b for b in in_kernel if is_free_normalizer(b, pair.A, eps)]
    free_dim = span_dimension(free, eps)

    evidence = {
        "unit_in_A": unit_in_A,
        "regular": regular,
        "expectation": {
            k: (v if not isinstance(v, tuple) else {"pass": v[0], "residual": v[1]})
            for k, v in p_report.items()
        },
        "kernel_dim": kernel_dim,
        "free_normalizer_span_dim": free_dim,
    }
    if not (unit_in_A and regular and p_ok):
        return PairClassification("neither", evidence)
    if kernel_dim == free_dim:
        return PairClassification("diagonal", evidence)
    return PairClassification("cartan", evidence)


def extension_property_span(
    basis_A: list[np.ndarray],
    basis_B: list[np.ndarray],
    eps: float = DEFAULT_EPS,
) -> bool:
    """B = A + span[B, A], stated on explicit bases."""
    commutators = [b @ a - a @ b for b in basis_B for a in basis_A]
    target = span_dimension(basis_B, eps)
    return span_dimension(list(basis_A) + commutators, eps) == target


def extension_property_check(pair: PairCandidate, eps: float = DEFAULT_EPS) -> bool:
    """B = A + span[B, A] for a candidate pair."""
    return extension_property_span(pair.A.basis(), pair.B.basis(), eps)


@dataclass(frozen=True)
class Slice:
    """A linear subspace of normalizers, given by a spanning family in B."""

    basis: tuple[np.ndarray, ...]


def slice_check(
    M: Slice, A: FiniteCStarAlgebra, eps: float = DEFAULT_EPS
) -> dict:
    """Bimodule and Hilbert-bimodule verdicts for a slice.

    bimodule: A·M ⊆ M and M·A ⊆ M on basis pairs;
    hilbert: M*M and MM* both span exactly A inside A.
    """
    mats = [as_matrix(m) for m in M.basis]
    a_basis = A.basis()
    bimodule = True
    for a in a_basis:
        for m in mats:
            if not is_in_span(a @ m, mats, eps) or not is_in_span(m @ a, mats, eps):
                bimodule = False
                break
        if not bimodule:
            break

    star_left = [m1.conj().T @ m2 for m1 in mats for m2 in mats]
    star_right = [m1 @ m2.conj().T for m1 in mats for m2 in mats]
    in_A = all(A.contains(p, eps) for p in star_left + star_right)
    hilbert = (
        in_A
        and span_dimension(star_left, eps) == A.dim()
        and span_dimension(star_right, eps) == A.dim()
    )
    return {"bimodule": bimodule, "hilbert": hilbert}


@dataclass
class SupportReport:
    pairs: list[tuple[int, int]]
    is_partial_bijection: bool


def normalizer_support(
    b, A: FiniteCStarAlgebra, eps: float = DEFAULT_EPS
) -> SupportReport:
    """Block support {(x,y) : ∥p_x b p_y∥ > eps} of a normalizer.

    For a genuine normalizer the support is a partial bijection of the block
    index set; a violation signals b was not a normalizer within tolerance.
    """
    support = A.block_norms(b) > eps
    pairs = [(int(i), int(j)) for i, j in np.argwhere(support)]
    ok = support.sum(axis=0).max() <= 1 and support.sum(axis=1).max() <= 1
    return SupportReport(pairs=pairs, is_partial_bijection=bool(ok))
