"""Finite-dimensional C*-algebras as block-diagonal matrix algebras.

A FiniteCStarAlgebra is a direct sum of full matrix algebras, carried in its
ambient faithful representation: M_{n_1} ⊕ … ⊕ M_{n_m} sitting block-diagonally
inside the square matrices of size Σn_i.  The same type models both the
diagonal algebra of a bundle and (with a single block) the ambient algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_EPS, as_matrix, as_stack, operator_norm
from .linalg import _largest_singular_values  # the norm kernel


@dataclass(frozen=True, eq=False)
class BlockSample:
    """A family of matrices that each lie in one block pair: member t is
    small[t], zero-padded as ``FiniteCStarAlgebra.blocks`` pads, at block
    (i[t], j[t]); ``embed_blocks(s.i, s.j, s.small)`` is its dense stack."""

    i: np.ndarray
    j: np.ndarray
    small: np.ndarray  # (k, m, m), m = max(block_dims)

    def __len__(self) -> int:
        return len(self.small)


@dataclass(frozen=True)
class FiniteCStarAlgebra:
    """A direct sum ⊕ M_{n_i}(ℂ) with its block projections.

    The block index set doubles as the pure state space of the algebra: each
    block is one unitary-equivalence class of irreducible representations.
    """

    block_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_dims) == 0:
            raise ValueError("algebra needs at least one block")
        if any(n < 1 for n in self.block_dims):
            raise ValueError(f"block dimensions must be positive: {self.block_dims}")

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def ambient_dim(self) -> int:
        return sum(self.block_dims)

    @cached_property
    def block_offsets(self) -> tuple[int, ...]:
        return tuple(sum(self.block_dims[:i]) for i in range(self.n_blocks))

    @cached_property
    def _block_index(self) -> np.ndarray:
        """Each block's ambient indices, padded to max(block_dims) with the
        index N of an appended zero row or column."""
        m, d = max(self.block_dims), self.ambient_dim
        return np.array([list(range(o, o + n)) + [d] * (m - n)
                         for o, n in zip(self.block_offsets, self.block_dims)])

    @cached_property
    def _block_mask(self) -> np.ndarray:
        """The N × N boolean array, True on the diagonal blocks."""
        label = np.repeat(np.arange(self.n_blocks), self.block_dims)
        return label[:, None] == label

    def unit(self) -> np.ndarray:
        """The identity: in finite dimension the approximate unit is exact."""
        return np.eye(self.ambient_dim, dtype=complex)

    def embed_block(self, i: int, j: int, small) -> np.ndarray:
        """Place a small matrix at block position (i, j) of an ambient matrix."""
        s = as_matrix(small)
        if s.shape != (self.block_dims[i], self.block_dims[j]):
            raise ValueError(
                f"block ({i},{j}) wants shape "
                f"({self.block_dims[i]},{self.block_dims[j]}), got {s.shape}"
            )
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        oi, oj = self.block_offsets[i], self.block_offsets[j]
        out[oi : oi + s.shape[0], oj : oj + s.shape[1]] = s
        return out

    def blocks(self, b) -> np.ndarray:
        """The (n_blocks, n_blocks, m, m) array of the blocks p_i b p_j of b,
        each zero-padded to m = max(block_dims) (for a (k, N, N) stack, the
        (k, n_blocks, n_blocks, m, m) stack of its arrays).  Padding adds only
        zero singular values, so every block norm and rank is read off it."""
        a = as_stack(b) if np.ndim(b) == 3 else as_matrix(b)
        d, idx = self.ambient_dim, self._block_index
        if a.shape[-2:] != (d, d):
            raise ValueError(f"expected shape ({d},{d}), got {a.shape}")
        # the appended zero row/column is needed only when block sizes differ
        if idx.size > d:
            padded = np.zeros(a.shape[:-2] + (d + 1, d + 1), dtype=complex)
            padded[..., :d, :d] = a
            a = padded
        return a[..., idx[:, None, :, None], idx[None, :, None, :]]

    def embed_blocks(self, i, j, small) -> np.ndarray:
        """The (k, N, N) stack that holds small[t], padded as ``blocks`` pads,
        at block (i[t], j[t]) of matrix t, from one indexed assignment.  With
        (k, …) indices and a (k, …, m, m) ``small``, matrix t holds its blocks
        small[t, q…] at the distinct positions (i[t, q…], j[t, q…])."""
        d, idx, k = self.ambient_dim, self._block_index, len(small)
        out = np.zeros((k, d + 1, d + 1), dtype=complex)
        t = np.arange(k).reshape((k,) + (1,) * (np.ndim(i) + 1))
        out[t, idx[i][..., None], idx[j][..., None, :]] = small
        return np.ascontiguousarray(out[:, :d, :d])

    def block_sample(self, mats) -> BlockSample:
        """The block form of a family of N × N matrices that each lie in one
        block pair (a zero matrix at (0, 0)); raises ValueError naming the
        first member with two nonzero blocks."""
        d, a = self.ambient_dim, np.asarray(mats, dtype=complex)
        grids = self.blocks(as_stack(a if a.size else a.reshape(0, d, d)))
        live = grids.any(axis=(-2, -1)).reshape(len(grids), self.n_blocks ** 2)
        bad = np.flatnonzero(live.sum(axis=1) > 1)
        if bad.size:
            p, q = (divmod(int(t), self.n_blocks)
                    for t in np.flatnonzero(live[bad[0]])[:2])
            raise ValueError(f"sample element {bad[0]} has nonzero blocks at {p} and {q},"
                             " not at one block pair")
        i, j = np.divmod(live.argmax(axis=1), self.n_blocks)
        return BlockSample(i, j, grids[np.arange(len(grids)), i, j])

    def unit_blocks(self) -> BlockSample:
        """The N² matrix units of the ambient algebra in block form: block
        pairs row-major, row-major within each block pair."""
        inside = np.arange(max(self.block_dims)) < np.array(self.block_dims)[:, None]
        i, j, r, c = np.nonzero(inside[:, None, :, None] & inside[None, :, None, :])
        small = np.zeros((len(i),) + inside.shape[1:] * 2, dtype=complex)
        small[np.arange(len(i)), r, c] = 1.0
        return BlockSample(i, j, small)

    def block_norms(self, b) -> np.ndarray:
        """The n_blocks × n_blocks table of block norms ∥p_i b p_j∥, from which
        every block-support question about b is answered (for a (k, N, N)
        stack, the (k, n_blocks, n_blocks) stack of its tables)."""
        return _largest_singular_values(self.blocks(b))

    def compress(self, b) -> np.ndarray:
        """Σ_i p_i b p_i — kill the off-diagonal blocks (of each matrix of a
        (k, N, N) stack)."""
        a = as_stack(b) if np.ndim(b) == 3 else as_matrix(b)
        return np.where(self._block_mask, a, 0)

    def contains(self, b, eps: float = DEFAULT_EPS) -> bool:
        """True iff b is block-diagonal for this algebra within eps."""
        a, d = as_matrix(b), self.ambient_dim
        if a.shape != (d, d):
            raise ValueError(f"expected shape ({d},{d}), got {a.shape}")
        return operator_norm(a - self.compress(a)) <= eps

    def basis(self) -> list[np.ndarray]:
        """All block matrix units, embedded in the ambient representation:
        blocks in order, row-major within each block (the row-major order of
        the block-diagonal entries)."""
        u = self.unit_blocks()
        on = u.i == u.j
        return list(self.embed_blocks(u.i[on], u.j[on], u.small[on]))

    def dim(self) -> int:
        """Linear dimension Σ n_i² of the algebra itself."""
        return sum(n * n for n in self.block_dims)


def make_algebra(block_dims) -> FiniteCStarAlgebra:
    """Build ⊕ M_{n_i}(ℂ) from a list of positive block dimensions."""
    return FiniteCStarAlgebra(tuple(int(n) for n in block_dims))
