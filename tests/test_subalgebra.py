import itertools

import numpy as np
import pytest

from fellkit.algebra import BlockSample, make_algebra
from fellkit.dynamics import slice_from_bisection
from fellkit.fellbundle import (
    ConditionalExpectation,
    build_imprimitivity_bundle,
    restriction_expectation,
)
from fellkit.groupoid import Bisection, identity_bisection, self_adjoint_bisections
from fellkit.linalg import (
    haar_unitary,
    is_in_span,
    operator_norm,
    span_dimension,
)
from fellkit.subalgebra import (
    PairCandidate,
    Slice,
    classify_pair,
    is_normalizer,
    normalizer_support,
    slice_check,
)

from helpers import random_matrix, random_spatial_automorphism


def kernel_basis(A):
    """The matrix units outside the blocks of A: a basis of ker P."""
    return [e for e in make_algebra([A.ambient_dim]).basis() if not A.contains(e)]


def unit_matrix(n, r, c):
    e = np.zeros((n, n), dtype=complex)
    e[r, c] = 1.0
    return e


def is_free_normalizer(b, A, eps=1e-9):
    """A normalizer with b² = 0, one matrix at a time."""
    m = np.asarray(b, dtype=complex)
    return operator_norm(m @ m) <= eps and is_normalizer(m, A, eps)


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


@pytest.mark.parametrize("dims, onto", [
    ((2, 1), (1, 2)),  # the same ambient, other blocks
    ((2, 1), (3,)),  # the identity of B: a valid expectation, onto B
    ((1, 1, 1), (1, 2)),  # onto a subalgebra that contains A
    ((1, 2), (1, 1, 1)),  # onto a subalgebra of A
])
def test_pair_candidate_rejects_an_expectation_onto_another_algebra(dims, onto):
    """classify_pair reads P(b) off the block position of b, which is exact
    for the compression onto A only; a P onto another algebra passes its
    own verify, so the pair refuses it."""
    A = make_algebra(dims)
    P = ConditionalExpectation(make_algebra(onto))
    assert all(v[0] for v in P.verify().values() if isinstance(v, tuple))
    with pytest.raises(ValueError, match="P maps onto block dims"):
        PairCandidate(A=A, B=make_algebra([A.ambient_dim]), P=P)


def test_regularity_and_sample_contract():
    E = build_imprimitivity_bundle((2, 1))
    pair = PairCandidate(
        A=make_algebra([2, 1]), B=make_algebra([3]),
        P=restriction_expectation(E),
    )
    kernel = kernel_basis(pair.A)
    for sample, regular in ((kernel, True), ([], False), (kernel[1:], False)):
        assert classify_pair(pair, sample).evidence["regular"] is regular
        assert per_element_pair_evidence(pair, sample)[0] is regular
    # a generic matrix meets every block pair: it breaks the sample contract
    with pytest.raises(ValueError, match="^sample element 0 has nonzero blocks at"):
        classify_pair(pair, [random_matrix((3, 3), np.random.default_rng(1))])


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


def per_element_pair_evidence(pair, sample, eps=1e-9):
    """Oracle: the regularity verdict and the free-normalizer span dimension
    of classify_pair, with one normalizer test, one norm of P(b) and one of
    b² per sample element."""
    for i, b in enumerate(sample):
        if not is_normalizer(b, pair.A, eps):
            raise ValueError(f"sample element {i} is not a normalizer of A")
    regular = span_dimension(list(sample) + pair.A.basis(), eps) == pair.B.dim()
    in_kernel = [b for b in sample if operator_norm(pair.P(b)) <= eps]
    free = [b for b in in_kernel if is_free_normalizer(b, pair.A, eps)]
    return regular, span_dimension(free, eps)


def block_samples(dims, rng):
    """A block-form sample, each element at one block pair: random
    off-diagonal blocks (free normalizers), random diagonal blocks,
    in-block nilpotents (b² = 0, P(b) ≠ 0), kernel units, zero elements and
    elements below and above eps, in a random order."""
    A = make_algebra(dims)
    n, m = A.n_blocks, max(dims)
    i, j = rng.integers(n, size=40), rng.integers(n, size=40)
    small = np.zeros((40, m, m), dtype=complex)
    for t in range(40):
        small[t, :dims[i[t]], :dims[j[t]]] = random_matrix((dims[i[t]], dims[j[t]]), rng)
    small[3::7] *= 1e-12
    small[5] = 0.0
    units = A.unit_blocks()
    off = np.flatnonzero(units.i != units.j)[::3]
    nilpotent = np.zeros((1, m, m), dtype=complex)
    nilpotent[0, 0, dims[-1] - 1] = 1.0
    i = np.concatenate([i, units.i[off], [n - 1]])
    j = np.concatenate([j, units.j[off], [n - 1]])
    small = np.concatenate([small, units.small[off], nilpotent])
    order = rng.permutation(len(small))
    return A, BlockSample(i[order], j[order], small[order])


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 1, 3), (2, 2)])
def test_classify_pair_matches_per_element_loop(dims):
    """Oracle: the per-element loop on the dense stack of the block sample;
    the dense stack itself, converted by classify_pair, gives the same.  The
    sample scaled by 1e-12 makes every element free, diagonal ones included,
    and the relative rank rule still counts them."""
    A, sample = block_samples(dims, np.random.default_rng(len(dims)))
    pair = PairCandidate(A=A, B=make_algebra([A.ambient_dim]),
                         P=ConditionalExpectation(A))
    tiny = BlockSample(sample.i, sample.j, 1e-12 * sample.small)
    for s in (sample, tiny):
        stack = A.embed_blocks(s.i, s.j, s.small)
        regular, free_dim = per_element_pair_evidence(pair, list(stack))
        for given in (s, stack, list(stack)):
            result = classify_pair(pair, given)
            assert (result.evidence["regular"],
                    result.evidence["free_normalizer_span_dim"]) == (regular, free_dim)
        if s is sample:
            assert 0 < free_dim <= result.evidence["kernel_dim"]
        else:
            assert free_dim > result.evidence["kernel_dim"] and not regular


def off_one_block_pair(A):
    """Elements that meet two block pairs of A = (2, 1, 3): a clash in one
    block row (no normalizer), a swap of blocks 1 and 2 on one vector, and a
    diagonal unitary (normalizers), with their first two block pairs."""
    clash = A.embed_block(0, 0, np.ones((2, 2))) + A.embed_block(0, 1, np.ones((2, 1)))
    v = np.zeros((1, 3), dtype=complex)
    v[0, 0] = 1.0
    swap = A.embed_block(1, 2, v) + A.embed_block(2, 1, v.T)
    phase = haar_unitary(1, np.random.default_rng(8))[0, 0]
    return {"clash": (clash, (0, 0), (0, 1)), "swap": (swap, (1, 2), (2, 1)),
            "diagonal unitary": (phase * A.unit(), (0, 0), (1, 1))}


@pytest.mark.parametrize("name", ["clash", "swap", "diagonal unitary"])
def test_classify_pair_names_the_first_element_off_one_block_pair(name):
    A = make_algebra([2, 1, 3])
    pair = PairCandidate(A=A, B=make_algebra([6]), P=ConditionalExpectation(A))
    bad, p, q = off_one_block_pair(A)[name]
    assert is_normalizer(bad, A) == (name != "clash")
    kernel = kernel_basis(A)
    for sample, first in ((kernel[:5] + [bad] + kernel[5:] + [bad], 5), ([bad], 0)):
        with pytest.raises(ValueError) as got:
            classify_pair(pair, sample)
        assert str(got.value) == (f"sample element {first} has nonzero blocks at "
                                  f"{p} and {q}, not at one block pair")


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


def test_slice_checks():
    A = make_algebra([1, 1])
    swap = unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0)
    report = slice_check(Slice(swap), A)
    assert report["bimodule"] and report["hilbert"]
    # a non-unitary generator does not make A·u a slice
    with pytest.raises(ValueError):
        slice_check(Slice(unit_matrix(2, 0, 1)), A)


def basis_loop_slice_check(basis, A, eps=1e-9):
    """Oracle: slice verdicts for the span M of a family, from the definition.

    bimodule: A·M ⊆ M and M·A ⊆ M on basis pairs;
    hilbert: M*M and MM* both span exactly A inside A.
    """
    mats = [np.asarray(m, dtype=complex) for m in basis]
    bimodule = all(
        is_in_span(a @ m, mats, eps) and is_in_span(m @ a, mats, eps)
        for a in A.basis()
        for m in mats
    )
    star_left = [m1.conj().T @ m2 for m1 in mats for m2 in mats]
    star_right = [m1 @ m2.conj().T for m1 in mats for m2 in mats]
    in_A = all(A.contains(p, eps) for p in star_left + star_right)
    hilbert = (
        in_A
        and span_dimension(star_left, eps) == A.dim()
        and span_dimension(star_right, eps) == A.dim()
    )
    return {"bimodule": bimodule, "hilbert": hilbert}


def two_block_mixer(A, i, j, rng):
    """The identity with a Haar unitary on the indices of blocks i and j."""
    u = A.unit()
    idx = [k for b in (i, j)
           for k in range(A.block_offsets[b], A.block_offsets[b] + A.block_dims[b])]
    u[np.ix_(idx, idx)] = haar_unitary(len(idx), rng)
    return u


def slice_cases():
    """(A, generator u, expected verdict), one pytest.param each."""
    rng = np.random.default_rng(12)
    A = make_algebra([1, 1, 1, 1])
    for f0 in self_adjoint_bisections(4):
        s = random_spatial_automorphism(f0, A.block_dims, rng)
        yield pytest.param(A, slice_from_bisection(s).u, True,
                           id=f"bisection {f0.perm}")
    for dims in ((2, 2), (2, 1, 2), (2, 2, 2)):
        A = make_algebra(dims)
        for perm in itertools.permutations(range(len(dims))):
            if all(dims[p] == n for p, n in zip(perm, dims)):
                s = random_spatial_automorphism(Bisection(perm), dims, rng)
                yield pytest.param(A, s.U, True, id=f"{dims} permutation {perm}")
    for dims in ((1, 1, 1, 1), (2, 2), (2, 1, 2), (2, 2, 2)):
        A = make_algebra(dims)
        yield pytest.param(A, haar_unitary(A.ambient_dim, rng), False,
                           id=f"{dims} haar")
        for i, j in sorted({(0, 1), (0, len(dims) - 1)}):
            yield pytest.param(A, two_block_mixer(A, i, j, rng), False,
                               id=f"{dims} mixer {i},{j}")
    # one block: every unitary normalizes A = M_3
    yield pytest.param(make_algebra([3]), haar_unitary(3, rng), True,
                       id="(3,) haar")


@pytest.mark.parametrize("A, u, expected", list(slice_cases()))
def test_slice_check_matches_basis_loop(A, u, expected):
    want = {"bimodule": expected, "hilbert": expected}
    oracle = basis_loop_slice_check([a @ u for a in A.basis()], A)
    assert slice_check(Slice(u), A) == oracle == want


def test_normalizer_support():
    A = make_algebra([1, 1, 1])
    b = unit_matrix(3, 0, 1) + unit_matrix(3, 1, 0) + unit_matrix(3, 2, 2)
    report = normalizer_support(b, A)
    assert set(report.pairs) == {(0, 1), (1, 0), (2, 2)}
    assert report.is_partial_bijection
    bad = unit_matrix(3, 0, 1) + unit_matrix(3, 0, 2)
    assert not normalizer_support(bad, A).is_partial_bijection
