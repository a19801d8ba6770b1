"""Dense complex matrix predicates.

Everything downstream (algebras, bundles, automorphisms) reduces to a small
set of numerical questions about dense complex matrices: adjoints, operator
norms, unitarity and span ranks.  All exact algebraic identities become
residual-norm bounds against a tolerance ``eps`` (default 1e-9, absolute on
residual norms).

Matrices are plain numpy arrays of dtype complex128.  All functions are pure.
A family of matrices travels as one (k, rows, cols) stack.  It is normed in
one call, ``operator_norms``, by the norm kernel: zero and 1×1 matrices are
normed without LAPACK, the rest by one stacked SVD, and every norm equals
LAPACK's and ``operator_norm`` bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_EPS = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array, raising on NaN/Inf or bad rank."""
    return _finite_array(m, 2, "matrix")


def as_stack(m) -> np.ndarray:
    """Coerce to a finite (k, rows, cols) stack of matrices, as ``as_matrix``."""
    return _finite_array(m, 3, "stack")


def _finite_array(m, ndim: int, kind: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d {kind}, got ndim={a.ndim}")
    # the (..., 2) real view of any strides: isfinite on reals is about 2× faster
    if not np.isfinite(a[..., None].view(float)).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def adjoints(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return stack.conj().swapaxes(-1, -2)


def operator_norm(m) -> float:
    """Largest singular value (the C*-norm of a matrix)."""
    return float(_largest_singular_values(as_matrix(m)[None])[0])


def operator_norms(stack) -> np.ndarray:
    """``operator_norm`` of each matrix of a (k, rows, cols) stack: zero and
    1×1 matrices are normed without LAPACK, the rest by one stacked SVD."""
    return _largest_singular_values(as_stack(stack))


def _largest_singular_values(stack: np.ndarray) -> np.ndarray:
    """The norm kernel: the largest singular value of each matrix of a
    (..., rows, cols) stack, LAPACK's bit for bit.  A zero matrix gets 0.0,
    and a 1×1 matrix z with w = max(|Re z|, |Im z|) in [1e-100, 1e100] gets
    w·sqrt((Re z/w)² + (Im z/w)²), zgesdd's dlapy3, without a LAPACK call."""
    top = np.zeros(stack.shape[:-2])
    known = ~stack.any(axis=(-2, -1))
    if stack.shape[-2:] == (1, 1):
        re, im = np.abs(stack[..., 0, 0].real), np.abs(stack[..., 0, 0].imag)
        w = np.maximum(re, im)
        inside = (w >= 1e-100) & (w <= 1e100)  # LAPACK rescales far outside
        re, im, w = re[inside], im[inside], w[inside]
        top[inside] = w * np.sqrt((re / w) ** 2 + (im / w) ** 2)
        known |= inside
    if not known.all():
        todo = ... if not known.any() else ~known  # ... passes the stack uncopied
        top[todo] = np.linalg.svd(stack[todo], compute_uv=False)[..., 0]
    return top


def is_unitary(m, eps: float = DEFAULT_EPS) -> bool:
    """True iff m is square with m*m ≈ I ≈ mm* within eps."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(unitarity_defects(a) <= eps)


def unitarity_defects(stack) -> np.ndarray:
    """max(∥u*u − I∥, ∥uu* − I∥) for each u of a (..., m, m) array of square
    matrices, from one stacked SVD.  A non-finite entry raises before any
    product is formed."""
    a = np.asarray(stack, dtype=complex)
    m = a.shape[-1]
    flat = as_stack(a.reshape(-1, m, m))
    products = np.concatenate([adjoints(flat) @ flat, flat @ adjoints(flat)])
    defects = operator_norms(products - np.eye(m)).reshape((2, *a.shape[:-2]))
    return defects.max(axis=0)


def _numerical_rank(sv: np.ndarray, eps: float) -> np.ndarray:
    """The package's one rank rule, on singular values in descending order
    along the last axis (of one matrix, or of each matrix of a stack).

    Values at or below eps times the largest count as zero, so a rank is
    invariant under rescaling its input by a nonzero scalar; a zero matrix,
    or one with no entries, has rank 0.
    """
    if sv.shape[-1] == 0:
        return np.zeros(sv.shape[:-1], dtype=int)
    top = sv[..., :1]
    return np.count_nonzero((sv > eps * top) & (top > 0), axis=-1)


def singular_values(stack) -> np.ndarray:
    """Each stacked matrix's singular values, descending: LAPACK's, or if 1×1 the norm kernel's."""
    a = as_stack(stack)
    if a.shape[1:] == (1, 1):
        return _largest_singular_values(a)[:, None]
    return np.linalg.svd(a, compute_uv=False)


def values_rank(sv, eps: float = DEFAULT_EPS) -> int:
    """The rank rule on a family's singular values pooled in any order and shape."""
    return int(_numerical_rank(np.sort(np.ravel(sv))[::-1], eps))


def span_dimension(mats: Sequence[np.ndarray], eps: float = DEFAULT_EPS,
                   groups=None) -> int:
    """Rank of the vectorized family, under the rule of ``_numerical_rank``.
    Members with different int labels groups[t] ≥ 0 (one group if None) must
    share no nonzero entry, as blocks at different block pairs do.  The
    singular values are then the union of each group's, from one SVD of the
    zero-padded (groups, members, entries) stack: zero rows add only zeros."""
    if len(mats) == 0:
        return 0
    flat = as_stack(mats).reshape(len(mats), -1)
    label = np.zeros(len(flat), dtype=int) if groups is None else np.asarray(groups)
    count, order, row = np.bincount(label), np.argsort(label), np.empty_like(label)
    row[order] = np.arange(len(flat)) - (np.cumsum(count) - count)[label[order]]
    stack = np.zeros((len(count), count.max(), flat.shape[1]), dtype=complex)
    stack[label, row] = flat  # member t is row row[t] of its group's matrix
    return values_rank(np.linalg.svd(stack, compute_uv=False), eps)


def is_in_span(m, mats: Sequence[np.ndarray], eps: float = DEFAULT_EPS) -> bool:
    """True iff vec(m) lies in span{vec(mats)} up to eps·(1+∥m∥)."""
    a = as_matrix(m)
    if len(mats) == 0:
        return operator_norm(a) <= eps
    basis = as_stack(mats).reshape(len(mats), -1)
    v = a.reshape(-1)
    coeffs, *_ = np.linalg.lstsq(basis.T, v, rcond=None)
    residual = float(np.linalg.norm(basis.T @ coeffs - v))
    return residual <= eps * (1.0 + operator_norm(a))


def orthonormal_span_basis(
    mats: Sequence[np.ndarray], eps: float = DEFAULT_EPS
) -> list[np.ndarray]:
    """An orthonormal (Hilbert-Schmidt) basis of the span of the family."""
    if len(mats) == 0:
        return []
    stack = as_stack(mats)
    _, sv, vh = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    return [v.reshape(stack.shape[1:]) for v in vh[: _numerical_rank(sv, eps)]]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed n×n unitary (QR of a Ginibre matrix, phases fixed)."""
    return haar_unitaries(1, n, rng)[0]


def haar_unitaries(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A (k, n, n) stack of k ``haar_unitary(n, rng)`` draws, equal to them
    bit for bit: one Gaussian draw fills the k real and imaginary parts in
    the order of the k calls, and one stacked QR factors them."""
    return haar_from_normals(rng.standard_normal((k, 2, n, n)))


def haar_from_normals(z: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a (..., 2, n, n) array of standard normal draws,
    z[..., 0, :, :] + i·z[..., 1, :, :] each, from one stacked QR with the
    phases fixed.  LAPACK factors the stack matrix by matrix, so draws made
    one at a time and factored together equal ``haar_unitary`` bit for bit."""
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
