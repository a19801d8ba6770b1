"""Matrix predicate tests.

The operator norm is cross-checked against an independent oracle: a
hand-rolled cyclic Jacobi eigensolver applied to m*m, so the LAPACK SVD route
and the Jacobi route must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fellkit.linalg
from fellkit.algebra import make_algebra
from fellkit.linalg import (
    DEFAULT_EPS,
    _numerical_rank,
    adjoints,
    as_matrix,
    haar_unitaries,
    haar_unitary,
    is_in_span,
    is_unitary,
    operator_norm,
    operator_norms,
    orthonormal_span_basis,
    singular_values,
    span_dimension,
    unitarity_defects,
)

from helpers import dense_rank, dense_span_dimension, random_matrix


def jacobi_eigvalsh(h, sweeps=60, tol=1e-13):
    """Cyclic Jacobi diagonalization of a Hermitian matrix (test oracle)."""
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diagonal(a))) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                alpha = np.angle(apq)
                app, aqq = a[p, p].real, a[q, q].real
                if abs(aqq - app) < 1e-300:
                    t = 1.0
                else:
                    tau = (aqq - app) / (2.0 * abs(apq))
                    t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[q, q] = c
                j[p, q] = s * np.exp(1j * alpha)
                j[q, p] = -s * np.exp(-1j * alpha)
                a = j.conj().T @ a @ j
    return np.sort(np.real(np.diagonal(a)))


def jacobi_operator_norm(m):
    a = as_matrix(m)
    ev = jacobi_eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(ev[-1], 0.0)))


def ranks(stack, eps=DEFAULT_EPS):
    """The rank rule on each stacked matrix's ``singular_values``, as the
    package's stacked rank readers apply it."""
    return _numerical_rank(singular_values(stack), eps)


def rng_for(seed):
    return np.random.default_rng(seed)


def test_operator_norm_against_jacobi_oracle():
    rng = rng_for(42)
    for _ in range(25):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        m = random_matrix(shape, rng)
        assert operator_norm(m) == pytest.approx(jacobi_operator_norm(m), abs=1e-10)


def test_operator_norm_known_values():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert operator_norm([[0, 2], [0, 0]]) == pytest.approx(2.0)
    # rank-one: norm is the Euclidean length of the single row
    assert operator_norm([[3, 4]]) == pytest.approx(5.0)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 0]])


def test_operator_norms_match_operator_norm_in_input_order():
    rng = rng_for(5)
    stack = np.stack([random_matrix((2, 3), rng) for _ in range(6)]
                     + [np.zeros((2, 3)), [[0, 2, 0], [0, 0, 0]]])
    norms = operator_norms(stack)
    assert norms.tolist() == [operator_norm(m) for m in stack]  # bit for bit
    assert operator_norms(stack[::-1]).tolist() == norms[::-1].tolist()
    assert operator_norms(np.zeros((0, 2, 3))).shape == (0,)


def test_operator_norms_of_empty_members_are_zero():
    assert operator_norms(np.zeros((4, 0, 2))).tolist() == [0.0] * 4
    assert operator_norms(np.zeros((3, 2, 0))).tolist() == [0.0] * 3


def test_operator_norms_reject_bad_members_as_as_matrix_does():
    good = np.eye(2)
    for bad, message in ((np.ones(3), "3-d"), (np.ones((2, 2)), "3-d"),
                         (np.ones((2, 2, 2, 2)), "3-d")):
        with pytest.raises(ValueError, match=message):
            operator_norms(bad)
    for value in (np.nan, np.inf):
        bad = good.copy()
        bad[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(bad)
        with pytest.raises(ValueError, match="non-finite"):
            operator_norms(np.stack([good, bad]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_adjoint_is_involutive_and_isometric(seed, r, c):
    m = random_matrix((r, c), rng_for(seed))
    assert np.allclose(adjoints(adjoints(m)), m)
    assert operator_norm(adjoints(m)) == pytest.approx(operator_norm(m), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4))
def test_adjoint_antimultiplicative(seed, r, k, c):
    rng = rng_for(seed)
    a = random_matrix((r, k), rng)
    b = random_matrix((k, c), rng)
    assert np.allclose(adjoints(a @ b), adjoints(b) @ adjoints(a))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_cstar_identity_for_the_norm(seed, r, c):
    m = random_matrix((r, c), rng_for(seed))
    n = operator_norm(m)
    assert operator_norm(adjoints(m) @ m) == pytest.approx(n * n, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_haar_unitary_is_unitary(seed, n):
    u = haar_unitary(n, rng_for(seed))
    assert is_unitary(u)
    assert operator_norm(u) == pytest.approx(1.0, abs=1e-10)


def ginibre_haar(n, rng):
    """Oracle: one Haar draw, its real and imaginary parts drawn in turn."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("k, n", [(1, 1), (1, 4), (5, 2), (7, 3)])
def test_haar_unitaries_equal_separate_draws(k, n):
    rng, oracle_rng = rng_for(k * n), rng_for(k * n)
    stack = haar_unitaries(k, n, rng)
    assert stack.shape == (k, n, n)
    for u in stack:
        assert np.array_equal(u, ginibre_haar(n, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert np.array_equal(haar_unitary(n, rng), ginibre_haar(n, oracle_rng))


def test_unitarity_defects_match_the_two_norms():
    rng = rng_for(9)
    stack = np.stack([haar_unitary(3, rng), 2 * np.eye(3), random_matrix((3, 3), rng)])
    eye = np.eye(3)
    want = [max(operator_norm(adjoints(u) @ u - eye),
                operator_norm(u @ adjoints(u) - eye)) for u in stack]
    assert np.allclose(unitarity_defects(stack), want, rtol=1e-12, atol=1e-15)
    assert unitarity_defects(stack.reshape(3, 1, 3, 3)).shape == (3, 1)


def test_ranks_match_rank_member_by_member():
    rng = rng_for(4)
    low = random_matrix((4, 2), rng) @ random_matrix((2, 4), rng)
    stack = np.stack([
        np.zeros((4, 4)),
        low,
        1e12 * low,  # the rule is relative to each member's largest value
        1e-12 * random_matrix((4, 4), rng),
        np.diag([1.0, 1e-6, 1e-12, 0.0]),  # 1e-12 is at or below eps·σ_max
        np.eye(4),
    ])
    got = ranks(stack)
    assert [int(r) for r in got] == [dense_rank(m) for m in stack] == [0, 2, 2, 4, 2, 4]
    assert ranks(np.zeros((0, 3, 3))).shape == (0,)
    assert list(ranks(np.zeros((2, 0, 3)))) == [0, 0]
    assert dense_rank(np.zeros((0, 3))) == 0
    with pytest.raises(ValueError):
        ranks(np.full((1, 2, 2), np.nan))


def bits(a):
    """The IEEE bit patterns of a float or complex array: -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def lapack_tops(stack):
    """LAPACK's largest singular value of each matrix of a (..., r, c) stack,
    0.0 for a matrix with no entries (the oracle of the norm kernel)."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    tops = [np.linalg.svd(m, compute_uv=False)[0] if m.size else 0.0 for m in flat]
    return np.array(tops).reshape(stack.shape[:-2])


@pytest.fixture
def lapack_calls(monkeypatch):
    """The stacks that the norm kernel hands to LAPACK, in call order."""
    svd, calls = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        calls.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def random_scalars(rng, count, lo=-120, hi=120):
    """Complex scalars whose parts have random signs and log-uniform
    magnitudes in [10^lo, 10^hi], some of them exactly zero."""
    re, im = (rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(lo, hi, count)
              for _ in range(2))
    re[rng.random(count) < 0.05] = 0.0
    im[rng.random(count) < 0.05] = -0.0
    return (re + 1j * im).reshape(-1, 1, 1)


def test_norm_kernel_skips_lapack_on_zero_stacks(lapack_calls):
    negative_zero = np.full((3, 4, 7), complex(-0.0, -0.0))
    negative_zero[1] = complex(0.0, -0.0)
    A = make_algebra([1, 2, 3])
    block_diagonal = A.compress(np.ones((6, 6)))
    stacks = [np.zeros((4, 2, 2), dtype=complex), np.zeros((2, 4, 7), dtype=complex),
              np.zeros((2, 7, 4), dtype=complex), np.zeros((1, 8, 8), dtype=complex),
              np.zeros((5, 1, 1), dtype=complex), negative_zero,
              np.full((3, 1, 1), complex(-0.0, 0.0)),
              # the six off-diagonal blocks, 1×2 up to 3×2, zero-padded to 3×3
              A.blocks(block_diagonal)[~np.eye(3, dtype=bool)]]
    for stack in stacks:
        got = fellkit.linalg._largest_singular_values(stack)
        assert got.shape == stack.shape[:-2]
        assert np.array_equal(bits(got), bits(np.zeros(stack.shape[:-2])))
    assert lapack_calls == []
    for stack in stacks:  # and LAPACK agrees, -0.0 entries included
        assert np.array_equal(bits(lapack_tops(stack)), bits(np.zeros(len(stack))))


def test_norm_kernel_equals_lapack_on_random_scalars(lapack_calls):
    rng = rng_for(11)
    # beyond the window [1e-100, 1e100] the kernel falls back on LAPACK
    stack = np.concatenate([random_scalars(rng, 20000),
                            random_scalars(rng, 200, -300, -100.01),
                            random_scalars(rng, 200, 100.01, 300),
                            [[[5e-324]], [[1.7e308 - 1e308j]], [[1e100 + 1e101j]]]])
    stack = stack[rng.permutation(len(stack))]
    got = operator_norms(stack)
    w = np.maximum(np.abs(stack.real), np.abs(stack.imag)).ravel()
    outside = (w > 0) & ((w < 1e-100) | (w > 1e100))
    assert np.count_nonzero(outside) > 400
    assert [len(c) for c in lapack_calls] == [np.count_nonzero(outside)]
    assert np.array_equal(bits(got), bits(lapack_tops(stack)))
    assert np.array_equal(bits(got), bits([operator_norm(m) for m in stack]))


def test_norm_kernel_on_mixed_zero_and_nonzero_stacks(lapack_calls):
    rng = rng_for(12)
    for shape, calls in [((3, 3), [8]), ((2, 5), [8]), ((1, 1), [])]:
        stack = np.stack([random_matrix(shape, rng) for _ in range(12)])
        stack[[0, 3, 4, 9]] = 0.0
        stack[5, 0, 0] = complex(-0.0, 0.0)
        lapack_calls.clear()
        got = operator_norms(stack)
        # LAPACK sees the nonzero matrices only, and no scalar at all
        assert [len(c) for c in lapack_calls] == calls
        assert np.array_equal(bits(got), bits(lapack_tops(stack)))
        assert got[[0, 3, 4, 9]].tolist() == [0.0] * 4
    # with nothing to skip, LAPACK gets the stack itself, not a copy
    stack = np.stack([random_matrix((3, 3), rng) for _ in range(4)])
    lapack_calls.clear()
    operator_norms(stack)
    assert len(lapack_calls) == 1 and np.shares_memory(lapack_calls[0], stack)


@pytest.mark.parametrize("eps", [1e-9, 0.5, 1.0, 2.0])
def test_ranks_of_scalars_follow_the_rank_rule_on_kernel_norms(eps):
    rng = rng_for(13)
    stack = np.concatenate([random_scalars(rng, 500), random_scalars(rng, 20, -300, -110),
                            np.zeros((3, 1, 1)), [[[1e-12]], [[2.0 - 3.0j]]]])
    got = ranks(stack, eps)
    assert [int(r) for r in got] == [dense_rank(m, eps) for m in stack]
    # rank 1 for every nonzero scalar below eps = 1, and rank 0 from eps = 1 on
    want = (stack.ravel() != 0) if eps < 1 else np.zeros(len(stack), dtype=bool)
    assert got.tolist() == want.astype(int).tolist()


def test_is_unitary_rejects():
    assert not is_unitary(np.zeros((2, 2)))
    assert not is_unitary(np.ones((2, 3)))
    assert not is_unitary(2 * np.eye(2))


def test_span_dimension_matrix_units():
    for n in range(2, 6):
        units = []
        for r in range(n):
            for c in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[r, c] = 1.0
                units.append(e)
        assert span_dimension(units) == n * n
        # duplicating and rescaling the family changes nothing
        assert span_dimension(units + [5.0 * u for u in units]) == n * n


def test_span_dimension_edge_cases():
    assert span_dimension([]) == 0
    assert span_dimension([np.zeros((2, 2))]) == 0
    a = random_matrix((2, 2), rng_for(0))
    assert span_dimension([a, 2 * a, 1j * a]) == 1
    assert span_dimension([], groups=[]) == 0
    assert span_dimension([a, np.zeros((2, 2))], groups=[4, 4]) == 1


def block_family(dims, members, rng):
    """A block-form family over the block algebra of ``dims``: member t is
    scale · (row of a Haar unitary of its block pair), so every nonzero
    singular value of a block pair's family is a root of a sum of squared
    scales.  ``members`` lists (block pair, row, scale)."""
    A = make_algebra(dims)
    n, m = A.n_blocks, max(dims)
    haar = {}
    i, j, small = [], [], np.zeros((len(members), m, m), dtype=complex)
    for t, (pair, row, scale) in enumerate(members):
        p, q = divmod(pair % (n * n), n)
        rows, cols = dims[p], dims[q]
        if (p, q) not in haar:
            haar[(p, q)] = haar_unitary(rows * cols, rng)
        u = haar[(p, q)][row % (rows * cols)].reshape(rows, cols)
        small[t, :rows, :cols] = scale * u
        i.append(p)
        j.append(q)
    return A, np.array(i, dtype=int), np.array(j, dtype=int), small


def assert_grouped_rank_matches_dense(A, i, j, small, eps=1e-9):
    """span_dimension over the block pairs equals the dense oracle: one SVD
    of the family embedded in N × N and vectorised."""
    got = span_dimension(small, eps, i * A.n_blocks + j)
    assert got == dense_span_dimension(A.embed_blocks(i, j, small), eps)
    return got


def test_grouped_rank_within_one_block_pair():
    """Scales 1e3, 1 and 1e-3 stay counted, 1e-15 does not, and a repeated
    direction adds nothing: a rank-deficient block pair."""
    members = [(1, 0, 1e3), (1, 1, 1.0), (1, 2, 1e-3), (1, 0, -2.0), (1, 3, 1e-15),
               (1, 1, 1e-3)]
    A, i, j, small = block_family((2, 3), members, rng_for(20))
    assert assert_grouped_rank_matches_dense(A, i, j, small) == 3


def test_grouped_rank_uses_the_global_top():
    """Block pairs 1e12 apart: eps times the global top (1e3) drops the whole
    small block pair, as the dense rank does, though each pair has rank 2
    against its own top."""
    members = [(0, 0, 1.0), (0, 1, 1.0), (3, 0, 1e12), (3, 1, 1e12)]
    A, i, j, small = block_family((2, 2), members, rng_for(21))
    assert assert_grouped_rank_matches_dense(A, i, j, small) == 2
    assert span_dimension(small[:2], 1e-9, i[:2] * 2 + j[:2]) == 2


def test_grouped_rank_of_zero_and_missing_members():
    """Zero members, zero blocks, block pairs with no member and an all-zero
    family."""
    members = [(1, 0, 0.0), (1, 1, 1.0), (5, 0, 0.0), (8, 2, 1.0), (8, 2, 0.0)]
    A, i, j, small = block_family((1, 2, 3), members, rng_for(22))
    assert assert_grouped_rank_matches_dense(A, i, j, small) == 2
    assert assert_grouped_rank_matches_dense(A, i[[0, 2]], j[[0, 2]], small[[0, 2]]) == 0
    # labels need not start at 0 or be contiguous
    assert span_dimension(small, 1e-9, i * 100 + j + 7) == 2


SCALES = (0.0, 1e-15, 1e-3, 1.0, 1e3)  # every σ ≥ 10× away from eps·σ_max


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from(SCALES)),
                max_size=14),
       st.integers(0, 2**32 - 1))
def test_grouped_rank_matches_dense_rank(dims, members, seed):
    A, i, j, small = block_family(tuple(dims), members, rng_for(seed))
    if len(members):
        assert_grouped_rank_matches_dense(A, i, j, small)
    # one group: the dense rank of the padded blocks themselves
    assert span_dimension(small) == dense_span_dimension(small)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 5))
def test_is_in_span_of_random_family(seed, k, n):
    rng = rng_for(seed)
    family = [random_matrix((n, n), rng) for _ in range(k)]
    coeffs = random_matrix((1, k), rng)[0]
    combo = sum(c * f for c, f in zip(coeffs, family))
    assert is_in_span(combo, family)
    assert is_in_span(np.zeros((n, n)), family)


def test_is_in_span_negative():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    e22 = np.zeros((2, 2))
    e22[1, 1] = 1.0
    off = np.zeros((2, 2))
    off[0, 1] = 1.0
    assert not is_in_span(off, [e11, e22])
    assert not is_in_span(off, [])


def test_orthonormal_span_basis():
    rng = rng_for(7)
    family = [random_matrix((3, 3), rng) for _ in range(4)]
    family += [family[0] + family[1]]
    basis = orthonormal_span_basis(family)
    assert len(basis) == 4
    gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    assert all(is_in_span(f, basis) for f in family)
    assert orthonormal_span_basis([]) == []
