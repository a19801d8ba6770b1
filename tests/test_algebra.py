import numpy as np
import pytest

from fellkit.algebra import FiniteCStarAlgebra, make_algebra
from fellkit.linalg import operator_norm, span_dimension

from helpers import block_of, random_matrix


def projections(A):
    """The block projections p_i, one embed_block of an identity each."""
    return [A.embed_block(i, i, np.eye(n)) for i, n in enumerate(A.block_dims)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        FiniteCStarAlgebra(())
    with pytest.raises(ValueError):
        FiniteCStarAlgebra((2, 0))


def test_shape_bookkeeping():
    A = make_algebra([2, 1, 3])
    assert A.n_blocks == 3
    assert A.ambient_dim == 6
    assert A.block_offsets == (0, 2, 3)
    assert A.block_offsets is A.block_offsets  # computed once
    assert A.dim() == 4 + 1 + 9


def test_projections_are_orthogonal_and_sum_to_unit():
    A = make_algebra([2, 1, 3])
    ps = projections(A)
    # p_i has the identity at block (i, i) and no other block
    assert np.array_equal(A.block_norms(np.stack(ps)),
                          np.eye(3)[:, None] * np.eye(3))
    total = sum(ps)
    assert np.allclose(total, A.unit())
    for i, p in enumerate(ps):
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.conj().T)
        for j, q in enumerate(ps):
            if i != j:
                assert operator_norm(p @ q) == 0.0


def test_block_and_embed_are_inverse():
    A = make_algebra([2, 3])
    rng = np.random.default_rng(0)
    small = random_matrix((2, 3), rng)
    big = A.embed_block(0, 1, small)
    assert np.array_equal(block_of(A, big, 0, 1), small)
    assert operator_norm(block_of(A, big, 1, 0)) == 0.0
    with pytest.raises(ValueError):
        A.embed_block(0, 1, np.ones((3, 2)))


def test_compress_is_the_block_diagonal_part():
    A = make_algebra([2, 2])
    rng = np.random.default_rng(1)
    b = random_matrix((4, 4), rng)
    c = A.compress(b)
    assert np.allclose(c[:2, :2], b[:2, :2])
    assert np.allclose(c[2:, 2:], b[2:, 2:])
    assert operator_norm(c[:2, 2:]) == 0.0
    # compression is idempotent and equals sum of p b p
    assert np.allclose(A.compress(c), c)
    manual = sum(p @ b @ p for p in projections(A))
    assert np.allclose(manual, c)
    # a (k, N, N) stack is compressed matrix by matrix
    stack = np.stack([b, 2j * b, random_matrix((4, 4), rng)])
    assert np.array_equal(A.compress(stack), np.stack([A.compress(m) for m in stack]))
    with pytest.raises(ValueError):
        A.compress(np.full((2, 4, 4), np.inf))


@pytest.mark.parametrize("dims", [(2, 1, 3), (1, 2, 3, 4), (2, 2), (5,)])
def test_block_norms_match_per_block_operator_norms(dims):
    A = make_algebra(dims)
    b = random_matrix((A.ambient_dim, A.ambient_dim), np.random.default_rng(2))
    table = A.block_norms(b)
    assert table.shape == (A.n_blocks, A.n_blocks)
    for i in range(A.n_blocks):
        for j in range(A.n_blocks):
            assert abs(table[i, j] - operator_norm(block_of(A, b, i, j))) < 1e-12
    # a stack takes one table per member, each equal to its own call
    stack = np.stack([b, np.zeros_like(b), 1e-12 * b.conj().T])
    assert np.array_equal(A.block_norms(stack),
                          np.stack([A.block_norms(m) for m in stack]))
    with pytest.raises(ValueError):
        A.block_norms(np.eye(A.ambient_dim + 1))
    with pytest.raises(ValueError):
        A.block_norms(np.zeros((2, A.ambient_dim + 1, A.ambient_dim + 1)))


def test_blocks_match_block_on_ragged_dims():
    """Oracle: each block sliced out of b at the block offsets."""
    A = make_algebra([1, 2, 3])
    rng = np.random.default_rng(4)
    b = random_matrix((6, 6), rng)
    stack = np.stack([b, random_matrix((6, 6), rng), np.zeros((6, 6))])
    o = A.block_offsets
    for m, blocks in [(b, A.blocks(b)), *zip(stack, A.blocks(stack))]:
        assert blocks.shape == (3, 3, 3, 3)
        for i, ni in enumerate(A.block_dims):
            for j, nj in enumerate(A.block_dims):
                assert np.array_equal(blocks[i, j, :ni, :nj],
                                      m[o[i]:o[i] + ni, o[j]:o[j] + nj])
                # the padding is zero
                assert not blocks[i, j, ni:].any() and not blocks[i, j, :, nj:].any()
    with pytest.raises(ValueError):
        A.blocks(np.eye(5))


@pytest.mark.parametrize("dims", [(1, 2, 3), (3, 1, 2), (2, 2), (1,)])
def test_embed_blocks_places_each_block_as_embed_block_does(dims):
    A = make_algebra(dims)
    n, m = A.n_blocks, max(dims)
    rng = np.random.default_rng(len(dims))
    i, j = rng.integers(n, size=7), rng.integers(n, size=7)
    small = np.zeros((7, m, m), dtype=complex)
    for t in range(7):
        small[t, :dims[i[t]], :dims[j[t]]] = random_matrix((dims[i[t]], dims[j[t]]), rng)
    small[0, 0, 0] = complex(-0.0, -0.0)
    stack = A.embed_blocks(i, j, small)
    assert stack.shape == (7, A.ambient_dim, A.ambient_dim)
    assert stack.flags.c_contiguous
    for t in range(7):
        want = A.embed_block(i[t], j[t], small[t, :dims[i[t]], :dims[j[t]]])
        assert np.array_equal(stack[t].view(np.int64), want.view(np.int64))
    # the inverse of blocks: each matrix has its one block, padded as given
    grids = A.blocks(stack)
    assert np.array_equal(grids[np.arange(7), i, j], small)
    # (k, p) indices: p = n blocks per matrix on the graph of a permutation, so
    # on ragged dims several blocks of one matrix pad into the same index N
    i = np.array([rng.permutation(n) for _ in range(7)])
    j = np.broadcast_to(np.arange(n), (7, n))
    small = np.zeros((7, n, m, m), dtype=complex)
    for t, q in np.ndindex(7, n):
        rows, cols = dims[i[t, q]], dims[q]
        small[t, q, :rows, :cols] = random_matrix((rows, cols), rng)
    small[0, 0, 0, 0] = complex(-0.0, 0.0)
    stack = A.embed_blocks(i, j, small)
    assert stack.shape == (7, A.ambient_dim, A.ambient_dim)
    for t in range(7):
        want = sum(A.embed_block(i[t, q], q, small[t, q, :dims[i[t, q]], :dims[q]])
                   for q in range(n))
        assert np.array_equal(stack[t], want)
    # each block, the −0.0 included, is placed as given
    grids = A.blocks(stack)
    placed = grids[np.arange(7)[:, None], i, j]
    assert np.array_equal(placed.view(np.int64), small.view(np.int64))
    assert A.embed_blocks([], [], np.zeros((0, m, m))).shape == (0, A.ambient_dim,
                                                                 A.ambient_dim)


def basis_loop(A):
    """The block matrix units, one embed_block per unit: blocks in order,
    row-major within each block."""
    out = []
    for k, n in enumerate(A.block_dims):
        for r in range(n):
            for c in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[r, c] = 1.0
                out.append(A.embed_block(k, k, e))
    return out


@pytest.mark.parametrize("dims", [(2, 1, 3), (1,), (3, 3), (1, 1, 1, 1)])
def test_basis_matches_embed_block_loop(dims):
    A = make_algebra(dims)
    basis = A.basis()
    oracle = basis_loop(A)
    assert len(basis) == len(oracle) == A.dim()
    for e, f in zip(basis, oracle):
        assert e.dtype == f.dtype and np.array_equal(e, f)


def test_contains():
    A = make_algebra([2, 1])
    assert A.contains(A.unit())
    off = np.zeros((3, 3))
    off[0, 2] = 1.0
    assert not A.contains(off)
    with pytest.raises(ValueError):
        A.contains(np.eye(4))


def test_basis_spans_exactly_the_algebra():
    A = make_algebra([2, 1, 3])
    basis = A.basis()
    assert len(basis) == A.dim()
    assert span_dimension(basis) == A.dim()
    assert all(A.contains(b) for b in basis)
    # basis elements multiply like matrix units within a block
    e01 = A.basis()[1]  # unit e_{12} of the first 2x2 block
    e10 = A.basis()[2]
    assert np.allclose(e01 @ e10, A.basis()[0])
    assert operator_norm(e01 @ e01) == 0.0


def test_single_block_algebra_is_full():
    B = make_algebra([4])
    rng = np.random.default_rng(2)
    b = random_matrix((4, 4), rng)
    assert B.contains(b)
    assert np.allclose(B.compress(b), b)
    assert B.dim() == 16


@pytest.mark.parametrize("dims", [(2, 1, 3), (1,), (2, 2), (1, 1, 1)])
def test_unit_blocks_are_the_ambient_matrix_units(dims):
    """Oracle: one embed_block per unit, block pairs row-major, row-major
    within each block pair; the units at diagonal block pairs are basis()."""
    A = make_algebra(dims)
    units = A.unit_blocks()
    oracle = []
    for i, ni in enumerate(dims):
        for j, nj in enumerate(dims):
            for e in np.eye(ni * nj, dtype=complex).reshape(-1, ni, nj):
                oracle.append(A.embed_block(i, j, e))
    assert len(units) == len(units.small) == A.ambient_dim ** 2
    dense = A.embed_blocks(units.i, units.j, units.small)
    assert np.array_equal(dense.view(np.int64), np.array(oracle).view(np.int64))
    on_A = units.i == units.j
    assert np.array_equal(dense[on_A], np.array(A.basis()))


@pytest.mark.parametrize("dims", [(2, 1, 3), (2, 2)])
def test_block_sample_is_the_inverse_of_embed_blocks(dims):
    A = make_algebra(dims)
    n, m = A.n_blocks, max(dims)
    rng = np.random.default_rng(7)
    i, j = rng.integers(n, size=9), rng.integers(n, size=9)
    small = np.zeros((9, m, m), dtype=complex)
    for t in range(9):
        small[t, :dims[i[t]], :dims[j[t]]] = random_matrix((dims[i[t]], dims[j[t]]), rng)
    small[4] = 0.0  # a zero member lands at block pair (0, 0)
    i[4] = j[4] = 0
    small[2, 0, 0] = complex(-0.0, 0.0)
    sample = A.block_sample(A.embed_blocks(i, j, small))
    assert np.array_equal(sample.i, i) and np.array_equal(sample.j, j)
    assert np.array_equal(sample.small.view(np.int64), small.view(np.int64))
    assert A.block_sample([]).small.shape == (0, m, m)
    assert len(sample) == 9 and len(A.block_sample([])) == 0
    with pytest.raises(TypeError):
        iter(sample)  # a sample is its three arrays, not a sequence of them
    with pytest.raises(ValueError):
        A.block_sample(np.eye(A.ambient_dim))  # a matrix, not a family
    with pytest.raises(ValueError):
        A.block_sample(np.zeros((1, A.ambient_dim + 1, A.ambient_dim + 1)))
