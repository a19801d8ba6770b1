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

from .algebra import BlockSample, FiniteCStarAlgebra
from .fellbundle import ConditionalExpectation
from .linalg import DEFAULT_EPS, is_unitary, operator_norms, span_dimension, values_rank


def _columns_meet_one_block(t: np.ndarray, eps: float) -> np.ndarray:
    """In every column of the block-norm table t (of each table of a
    (k, n, n) stack), the two largest entries multiply to at most eps (a
    one-row table has no second entry)."""
    if t.shape[-2] == 1:
        return np.ones(t.shape[:-2], dtype=bool)
    cols = np.sort(t, axis=-2)
    return np.all(cols[..., -1, :] * cols[..., -2, :] <= eps, axis=-1)


def normalizes_by_table(t: np.ndarray, eps: float) -> np.ndarray:
    """The rule of ``is_normalizer`` on a block-norm table, or on each table
    of a (k, n, n) stack: its rows and its columns meet one block each."""
    return (_columns_meet_one_block(t, eps)
            & _columns_meet_one_block(np.swapaxes(t, -1, -2), eps))


def is_partial_bijection(support: np.ndarray) -> np.ndarray:
    """Whether a boolean block support, or each of a (k, n, n) stack, has at
    most one entry in every row and every column."""
    return ((support.sum(axis=-2).max(axis=-1) <= 1)
            & (support.sum(axis=-1).max(axis=-1) <= 1))


def is_normalizer(
    b, A: FiniteCStarAlgebra, eps: float = DEFAULT_EPS
) -> bool | np.ndarray:
    """b*Ab ⊆ A and bAb* ⊆ A, decided on the block-norm table of b (for a
    (k, N, N) stack, a (k,) boolean array from one stack of tables).

    For A = ⊕M_{n_k}, b normalizes A exactly when its block support is a
    partial bijection: each block row and each block column of b meets at
    most one block.  With b_kj = p_k b p_j and a a unit-norm element of block
    k, the worst case of ∥p_j b*ab p_l∥ (j ≠ l) is ∥b_kj∥·∥b_kl∥, and that of
    ∥p_j bab* p_l∥ is ∥b_jk∥·∥b_lk∥.  So b passes iff, in every row and every
    column of the table, the two largest entries multiply to at most eps: the
    same absolute tolerance the definition applies to b*ab and bab*.
    """
    ok = normalizes_by_table(A.block_norms(b), eps)
    return ok if ok.ndim else bool(ok)


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
        if self.P.range_algebra != self.A:
            raise ValueError(f"P maps onto block dims {self.P.range_algebra.block_dims},"
                             f" not onto A's {self.A.block_dims}")


@dataclass
class PairClassification:
    verdict: str  # "diagonal" | "cartan" | "neither"
    evidence: dict

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, **self.evidence}


@dataclass(frozen=True)
class SpanValues:
    """A free family at off-diagonal block pairs, by its span's singular values."""
    values: np.ndarray


def classify_pair(
    pair: PairCandidate,
    normalizer_sample: BlockSample | list[np.ndarray] | SpanValues,
    eps: float = DEFAULT_EPS,
) -> PairClassification:
    """Diagonal / Cartan / neither, with per-check evidence.

    diagonal: unit in A, regular, P valid and faithful, and the sample's free
    normalizers in ker P span ker P, of dimension dim B − dim A (Kumjian
    1986; Exel 2011); cartan: all but the kernel identity; neither: anything
    earlier fails.  Equal dimensions mean equal spans, as one contains the other.

    Regular: the sample and A's units span B.  Each sample element lies in
    one block pair, so it normalizes A (a dense family goes through
    ``A.block_sample``, which raises on two blocks); as P keeps diagonal
    blocks and off-diagonal ones square to 0, it is free in ker P iff
    off-diagonal or its block and its square are ≤ eps.  A sample is ranked
    per block pair by ``span_dimension``'s grouped SVD; ``SpanValues`` (a
    bundle's own family, off its structure) by the same rule, A's units as 1.0s.
    """
    A, n = pair.A, pair.A.n_blocks
    # PairCandidate makes B one block of A's ambient dim N, so B's unit I_N
    # lies in A: ‖I − P(I)‖ is the norm of an exact zero
    unit_in_A = 0.0 <= eps
    if isinstance(normalizer_sample, SpanValues):
        sv = normalizer_sample.values
        regular_dim = values_rank(np.concatenate([sv, np.ones(A.dim())]), eps)
        free_dim = values_rank(sv, eps)
    else:
        s = (normalizer_sample if isinstance(normalizer_sample, BlockSample)
             else A.block_sample(normalizer_sample))
        units = A.unit_blocks()
        on_A = units.i == units.j  # A's matrix units
        family = np.concatenate([s.small, units.small[on_A]])
        labels = np.concatenate([s.i * n + s.j, (units.i * n + units.j)[on_A]])
        regular_dim = span_dimension(family, eps, labels)
        free = s.i != s.j
        diag = s.small[~free]
        free[~free] = (operator_norms(diag) <= eps) & (operator_norms(diag @ diag) <= eps)
        free_dim = span_dimension(s.small[free], eps, (s.i * n + s.j)[free])
    regular = regular_dim == pair.B.dim()
    p_report = pair.P.verify(eps=eps)
    p_ok = all(v[0] for k, v in p_report.items() if isinstance(v, tuple))
    kernel_dim = pair.B.dim() - A.dim()

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


@dataclass(frozen=True)
class Slice:
    """The slice A·u of B, given by its unitary generator u."""

    u: np.ndarray


def slice_check(
    M: Slice, A: FiniteCStarAlgebra, eps: float = DEFAULT_EPS
) -> dict:
    """Bimodule and Hilbert-bimodule verdicts for a slice M = A·u.

    bimodule: A·M ⊆ M and M·A ⊆ M; hilbert: M*M and MM* both equal A.
    For unitary u, A·M = A·u = M and MM* = A·uu*·A = A always hold, while
    M·A = A·(uAu*)·u lies in M iff uAu* ⊆ A, and M*M = u*Au equals A iff
    u*Au = A.  Conjugation by u preserves dimension, so either inclusion is
    an equality and both verdicts are "u normalizes A" (Exel 2011).

    Raises ValueError for a non-unitary generator.
    """
    if not is_unitary(M.u, eps):
        raise ValueError("slice generator is not unitary")
    normalizes = is_normalizer(M.u, A, eps)
    return {"bimodule": normalizes, "hilbert": normalizes}


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
    return SupportReport(pairs=pairs,
                         is_partial_bijection=bool(is_partial_bijection(support)))
