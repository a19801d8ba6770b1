import itertools

import numpy as np
import pytest

from fellkit.algebra import make_algebra
from fellkit.dynamics import random_spatial_automorphism
from fellkit.fellbundle import (
    ConditionalExpectation,
    build_imprimitivity_bundle,
    restriction_expectation,
)
from fellkit.groupoid import Bisection, identity_bisection
from fellkit.linalg import haar_unitary, operator_norm, random_matrix, span_dimension
from fellkit.subalgebra import (
    PairCandidate,
    Slice,
    classify_pair,
    extension_property_check,
    extension_property_span,
    is_free_normalizer,
    is_normalizer,
    is_regular,
    normalizer_support,
    slice_check,
)


def kernel_basis(A):
    """The matrix units outside the blocks of A: a basis of ker P."""
    return [e for e in make_algebra([A.ambient_dim]).basis() if not A.contains(e)]


def unit_matrix(n, r, c):
    e = np.zeros((n, n), dtype=complex)
    e[r, c] = 1.0
    return e


def test_normalizers_of_masa_exhaustive_01_oracle():
    """For the diagonal masa, a 0/1 matrix normalizes iff its support is a
    partial bijection.  Checked exhaustively against the definition, n ≤ 3."""
    for n in (2, 3):
        A = make_algebra([1] * n)
        positions = [(r, c) for r in range(n) for c in range(n)]
        for k in range(len(positions) + 1):
            for chosen in itertools.combinations(positions, k):
                b = np.zeros((n, n), dtype=complex)
                for r, c in chosen:
                    b[r, c] = 1.0
                rows = [p[0] for p in chosen]
                cols = [p[1] for p in chosen]
                partial_bijection = (
                    len(rows) == len(set(rows)) and len(cols) == len(set(cols))
                )
                assert is_normalizer(b, A) == partial_bijection, chosen


def basis_loop_normalizer(b, A, eps=1e-9):
    """The definition: b*ab and bab* lie in A for every matrix unit a of A."""
    m = np.asarray(b, dtype=complex)
    return all(
        A.contains(m.conj().T @ a @ m, eps) and A.contains(m @ a @ m.conj().T, eps)
        for a in A.basis()
    )


def random_block_support(n, rng, bijective):
    """A block support on n indices: a random partial bijection, or two
    blocks in one block row or in one block column."""
    if bijective:
        perm = rng.permutation(n)
        return {(i, int(perm[i])) for i in range(n) if rng.random() < 0.7}
    i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
    k = int(rng.integers(n))
    return {(k, i), (k, j)} if rng.random() < 0.5 else {(i, k), (j, k)}


@pytest.mark.parametrize("dims", [(1, 2, 3), (2, 2, 2)])
def test_is_normalizer_matches_basis_loop_on_block_sparse(dims):
    """Random block-sparse matrices, over unequal and equal blocks."""
    rng = np.random.default_rng(11)
    A = make_algebra(dims)
    n = len(dims)
    for trial in range(60):
        bijective = trial % 2 == 0
        b = np.zeros((A.ambient_dim, A.ambient_dim), dtype=complex)
        for i, j in random_block_support(n, rng, bijective):
            b += A.embed_block(i, j, random_matrix((dims[i], dims[j]), rng))
        assert is_normalizer(b, A) == basis_loop_normalizer(b, A) == bijective


@pytest.mark.parametrize("delta, normalizes", [(1e-12, True), (1e-6, False)])
def test_is_normalizer_matches_basis_loop_off_threshold(delta, normalizes):
    """A second block in one block row, far below and far above eps."""
    A = make_algebra([1, 2, 3])
    rng = np.random.default_rng(5)
    b = A.embed_block(0, 1, random_matrix((1, 2), rng))
    b = b + delta * A.embed_block(0, 2, random_matrix((1, 3), rng))
    assert is_normalizer(b, A) == basis_loop_normalizer(b, A) == normalizes


def test_is_normalizer_matches_basis_loop_on_spatial_automorphisms():
    rng = np.random.default_rng(3)
    for dims in ((2, 2, 2), (1, 1, 1, 1), (1, 2, 3)):
        A = make_algebra(dims)
        for _ in range(5):
            if len(set(dims)) == 1:
                f0 = Bisection(tuple(int(i) for i in rng.permutation(len(dims))))
            else:
                f0 = identity_bisection(len(dims))
            u = random_spatial_automorphism(f0, dims, rng).U
            assert is_normalizer(u, A) and basis_loop_normalizer(u, A)


def test_is_normalizer_matches_basis_loop_on_two_block_mixers():
    """The Haar unitaries mixing two blocks that the theorem-3.13 converse
    must reject."""
    rng = np.random.default_rng(4)
    dim, n = 2, 3
    A = make_algebra([dim] * n)
    for _ in range(10):
        i, j = rng.choice(n, size=2, replace=False)
        u = A.unit()
        oi, oj = A.block_offsets[i], A.block_offsets[j]
        idx = list(range(oi, oi + dim)) + list(range(oj, oj + dim))
        u[np.ix_(idx, idx)] = haar_unitary(2 * dim, rng)
        assert not is_normalizer(u, A) and not basis_loop_normalizer(u, A)


def test_normalizer_examples():
    A = make_algebra([1, 1, 1])
    assert is_normalizer(unit_matrix(3, 0, 1), A)
    assert is_normalizer(np.eye(3), A)
    assert not is_normalizer(unit_matrix(3, 0, 1) + unit_matrix(3, 0, 2), A)
    # a generic matrix does not normalize the masa
    assert not is_normalizer(random_matrix((3, 3), np.random.default_rng(0)), A)


def test_free_normalizers():
    A = make_algebra([1, 1])
    assert is_free_normalizer(unit_matrix(2, 0, 1), A)
    assert not is_free_normalizer(np.eye(2), A)  # normalizer, but unit² ≠ 0
    swap = unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0)
    assert is_normalizer(swap, A) and not is_free_normalizer(swap, A)


def test_pair_candidate_validation():
    A = make_algebra([1, 1])
    B = make_algebra([2])
    PairCandidate(A=A, B=B, P=ConditionalExpectation(A))
    with pytest.raises(ValueError):
        PairCandidate(A=A, B=make_algebra([1, 1]), P=ConditionalExpectation(A))
    with pytest.raises(ValueError):
        PairCandidate(A=A, B=make_algebra([3]), P=ConditionalExpectation(A))


def test_regularity_and_sample_contract():
    E = build_imprimitivity_bundle((2, 1))
    pair = PairCandidate(
        A=make_algebra([2, 1]), B=make_algebra([3]),
        P=restriction_expectation(E),
    )
    kernel = kernel_basis(pair.A)
    assert is_regular(pair, kernel)
    assert not is_regular(pair, [])
    with pytest.raises(ValueError):
        is_regular(pair, [random_matrix((3, 3), np.random.default_rng(1))])


def test_classify_masa_pair_is_diagonal():
    E = build_imprimitivity_bundle((1, 1, 1, 1))
    pair = PairCandidate(
        A=make_algebra([1, 1, 1, 1]), B=make_algebra([4]),
        P=restriction_expectation(E),
    )
    result = classify_pair(pair, kernel_basis(pair.A))
    assert result.verdict == "diagonal"
    assert result.evidence["kernel_dim"] == 12
    assert result.evidence["free_normalizer_span_dim"] == 12
    assert result.evidence["regular"]


def test_classify_block_pair_is_diagonal():
    pair = PairCandidate(
        A=make_algebra([2, 1]), B=make_algebra([3]),
        P=ConditionalExpectation(make_algebra([2, 1])),
    )
    result = classify_pair(pair, kernel_basis(pair.A))
    assert result.verdict == "diagonal"
    assert result.evidence["kernel_dim"] == 4


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 1), (2, 1, 3), (3, 3)])
def test_kernel_dim_matches_rank_of_kernel_basis(dims):
    """Oracle: the rank of the off-diagonal matrix units."""
    A = make_algebra(dims)
    pair = PairCandidate(
        A=A, B=make_algebra([A.ambient_dim]), P=ConditionalExpectation(A)
    )
    result = classify_pair(pair, kernel_basis(A))
    assert result.evidence["kernel_dim"] == span_dimension(kernel_basis(A))
    assert result.evidence["free_normalizer_span_dim"] == result.evidence["kernel_dim"]


def test_in_block_nilpotent_does_not_change_diagonal_verdict():
    """A free normalizer outside ker P (e₁₂ of the first block, blocks 2,1,3)
    is left out of the kernel identity."""
    A = make_algebra([2, 1, 3])
    pair = PairCandidate(A=A, B=make_algebra([6]), P=ConditionalExpectation(A))
    e12 = A.embed_block(0, 0, unit_matrix(2, 0, 1))
    assert is_free_normalizer(e12, A)
    result = classify_pair(pair, kernel_basis(A) + [e12])
    assert result.verdict == "diagonal"
    assert result.evidence["kernel_dim"] == 22
    assert result.evidence["free_normalizer_span_dim"] == 22


def test_free_normalizer_span_counts_only_the_sample():
    A = make_algebra([2, 1, 3])
    pair = PairCandidate(A=A, B=make_algebra([6]), P=ConditionalExpectation(A))
    result = classify_pair(pair, kernel_basis(A)[::2])
    assert result.evidence["kernel_dim"] == 22
    assert result.evidence["free_normalizer_span_dim"] == 11
    assert result.verdict == "neither"  # half the kernel leaves the pair irregular


def test_classify_neither_when_not_regular():
    pair = PairCandidate(
        A=make_algebra([2, 2]), B=make_algebra([4]),
        P=ConditionalExpectation(make_algebra([2, 2])),
    )
    result = classify_pair(pair, [])  # no off-diagonal sample at all
    assert result.verdict == "neither"
    assert not result.evidence["regular"]


def test_scalar_subalgebra_of_m2_oracle():
    """(ℂ·I, M₂, normalized trace): the three structural checks pass but the
    kernel identity fails, so the pair is Cartan-like without being diagonal.

    ℂ·I is not expressible as a block algebra here, so the evidence is
    assembled from first principles.
    """
    rng = np.random.default_rng(0)
    basis_B = [unit_matrix(2, r, c) for r in range(2) for c in range(2)]
    eye = np.eye(2, dtype=complex)

    def normalizes_scalars(b):
        # b*(λI)b ∈ ℂI for all λ iff b*b and bb* are scalar
        for m in (b.conj().T @ b, b @ b.conj().T):
            scalar = np.trace(m) / 2.0
            if operator_norm(m - scalar * eye) > 1e-9:
                return False
        return True

    # unitaries normalize and span all of M₂: the pair is regular
    paulis = [eye, np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    assert all(normalizes_scalars(u) for u in paulis)
    assert span_dimension(paulis) == 4

    # normalized trace is a faithful expectation onto ℂ·I
    def P(b):
        return (np.trace(b) / 2.0) * eye

    for _ in range(50):
        b = random_matrix((2, 2), rng)
        lam = random_matrix((1, 1), rng)[0, 0]
        assert np.allclose(P(lam * eye), lam * eye)
        assert np.allclose(P(lam * eye @ b @ eye), lam * P(b))
        assert np.trace(P(b.conj().T @ b)).real > 1e-12

    # but no nonzero free normalizer exists: b*b scalar and b² = 0 force b = 0
    for b in basis_B + [random_matrix((2, 2), rng) for _ in range(20)]:
        nilpotent = operator_norm(b @ b) < 1e-9
        if nilpotent and operator_norm(b) > 1e-9:
            assert not normalizes_scalars(b)
    # while ker(tr) is 3-dimensional: the kernel identity fails
    traceless = [m - (np.trace(m) / 2.0) * eye for m in basis_B]
    assert span_dimension(traceless) == 3

    # and the extension property fails: commutators with scalars vanish
    assert not extension_property_span([eye], basis_B)


def test_extension_property_for_block_pairs():
    pair = PairCandidate(
        A=make_algebra([2, 1]), B=make_algebra([3]),
        P=ConditionalExpectation(make_algebra([2, 1])),
    )
    assert extension_property_check(pair)
    pair4 = PairCandidate(
        A=make_algebra([1, 1, 1, 1]), B=make_algebra([4]),
        P=ConditionalExpectation(make_algebra([1, 1, 1, 1])),
    )
    assert extension_property_check(pair4)


def test_slice_checks():
    A = make_algebra([1, 1])
    swap = unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0)
    M = Slice(basis=tuple(a @ swap for a in A.basis()))
    report = slice_check(M, A)
    assert report["bimodule"] and report["hilbert"]
    # a single off-diagonal unit is a bimodule but not a Hilbert bimodule
    M2 = Slice(basis=(unit_matrix(2, 0, 1),))
    report2 = slice_check(M2, A)
    assert report2["bimodule"] and not report2["hilbert"]


def test_normalizer_support():
    A = make_algebra([1, 1, 1])
    b = unit_matrix(3, 0, 1) + unit_matrix(3, 1, 0) + unit_matrix(3, 2, 2)
    report = normalizer_support(b, A)
    assert set(report.pairs) == {(0, 1), (1, 0), (2, 2)}
    assert report.is_partial_bijection
    bad = unit_matrix(3, 0, 1) + unit_matrix(3, 0, 2)
    assert not normalizer_support(bad, A).is_partial_bijection
