"""Spatial automorphisms, covariance groups and dynamical checks.

A spatial automorphism pairs a base permutation f0 with one unitary per point
and assembles to a block-permutation unitary U whose nonzero blocks sit
exactly on the graph of f0 (the covariance condition).  Iterating one such
automorphism over a cyclic base flow gives a covariance group, the discrete
stand-in for a 1-parameter group.  Whether A and the covariance group
generate B (Arveson's A-dynamical systems) is decided by block-support
reachability on the block-norm table of σ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import FiniteCStarAlgebra
from .cocycle import first_offender
from .fellbundle import FellBundleModel, diagonal_algebra, is_saturated
from .groupoid import Bisection, CyclicFlow, cyclic_flow, is_minimal_flow
from .linalg import (
    DEFAULT_EPS,
    as_matrix,
    haar_from_normals,
    is_unitary,
    unitarity_defects,
)
from .subalgebra import Slice, is_partial_bijection, normalizes_by_table


class CovarianceError(ValueError):
    """Fibre data incompatible with the base permutation."""


@dataclass(frozen=True)
class SpatialAutomorphism:
    """(f0, {w_x}) with w_x : fibre at x → fibre at f0(x), all unitary.

    The assembled U has block (f0(x), x) equal to w_x; conjugation by U maps
    the diagonal algebra onto itself.
    """

    f0: Bisection
    fibre_maps: tuple[np.ndarray, ...]
    fibre_dims: tuple[int, ...]

    @cached_property
    def U(self) -> np.ndarray:
        A = FiniteCStarAlgebra(self.fibre_dims)
        out = np.zeros((A.ambient_dim, A.ambient_dim), dtype=complex)
        for x, w in enumerate(self.fibre_maps):
            out += A.embed_block(self.f0(x), x, w)
        out.flags.writeable = False
        return out


def make_spatial_automorphism(
    f0: Bisection,
    fibre_maps,
    fibre_dims,
    eps: float = DEFAULT_EPS,
) -> SpatialAutomorphism:
    """Validate and assemble a spatial automorphism."""
    dims = tuple(int(n) for n in fibre_dims)
    if f0.n_points != len(dims):
        raise CovarianceError(
            f"base permutation on {f0.n_points} points vs {len(dims)} fibres"
        )
    maps = []
    for x in range(len(dims)):
        if dims[x] != dims[f0(x)]:
            raise CovarianceError(
                f"fibre dims {dims[x]} at {x} and {dims[f0(x)]} at f0({x})={f0(x)} "
                "differ; a non-trivial base map needs matching dimensions"
            )
        w = as_matrix(fibre_maps[x])
        if w.shape != (dims[f0(x)], dims[x]) or not is_unitary(w, eps):
            raise CovarianceError(f"fibre map at {x} is not a unitary of the right shape")
        maps.append(w)
    return SpatialAutomorphism(f0=f0, fibre_maps=tuple(maps), fibre_dims=dims)


def compose_automorphisms(
    s: SpatialAutomorphism, t: SpatialAutomorphism
) -> SpatialAutomorphism:
    """Apply t first, then s: base = s.f0 ∘ t.f0, U = s.U · t.U."""
    if s.fibre_dims != t.fibre_dims:
        raise CovarianceError("automorphisms over different bundles")
    f0 = s.f0.compose(t.f0)
    maps = tuple(
        s.fibre_maps[t.f0(x)] @ t.fibre_maps[x] for x in range(len(s.fibre_dims))
    )
    return SpatialAutomorphism(f0=f0, fibre_maps=maps, fibre_dims=s.fibre_dims)


@dataclass(frozen=True)
class CovarianceGroup:
    """The cyclic group generated by one spatial automorphism σ.

    elements[m-1] is σ^m paired with the base power g^m; the last element
    covers the identity bisection, so its U is block-diagonal.
    """

    flow: CyclicFlow
    sigma: SpatialAutomorphism
    elements: tuple[SpatialAutomorphism, ...]

    @property
    def fibre_dims(self) -> tuple[int, ...]:
        return self.sigma.fibre_dims

    @property
    def n_points(self) -> int:
        return len(self.fibre_dims)


def covariance_group(sigma: SpatialAutomorphism) -> CovarianceGroup:
    flow = cyclic_flow(sigma.f0)
    elements = []
    power = sigma
    for _ in range(flow.order):
        elements.append(power)
        power = compose_automorphisms(power, sigma)
    return CovarianceGroup(flow=flow, sigma=sigma, elements=tuple(elements[:flow.order]))


def covariance_group_from_frame(
    generator: Bisection,
    E: FellBundleModel,
) -> CovarianceGroup:
    """Build σ from a bundle's frame along the generator's graph."""
    dims = E.fibre_dims
    maps = ([np.eye(d, dtype=complex) for d in dims] if E.frame is None
            else E.frame[generator.perm, range(len(dims))])
    sigma = make_spatial_automorphism(generator, maps, dims)
    return covariance_group(sigma)


def check_unitary_normalizer_theorem(
    E: FellBundleModel,
    samples: int = 100,
    eps: float = DEFAULT_EPS,
    rng: np.random.Generator | None = None,
) -> dict:
    """Sample-scale check that spatial automorphisms = unitary normalizers.

    Forward: every assembled spatial automorphism U is a unitary normalizer of
    the diagonal algebra with support exactly a bisection graph.  Converse:
    unitaries mixing two diagonal blocks (not supported on any bisection) fail
    to normalize.

    Each sample draws from rng in turn, as it would one at a time (forward: a
    base permutation, then the Gaussians of one Haar unitary per point;
    converse: two blocks, then those of one Haar unitary on both).  Each
    direction then factors its draws with one stacked QR and forms one
    (samples, N, N) stack, and each predicate is one stacked call: the
    unitarity residuals take one stacked SVD per shape, and the normalizer
    rule and the block support are read from one stack of block-norm tables.
    A fibre map that is not unitary raises CovarianceError, naming the first
    in draw order.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if len(set(E.fibre_dims)) != 1:
        raise ValueError("theorem check needs constant fibre dimension")
    if not is_saturated(E, eps):
        raise ValueError("theorem check needs a saturated bundle")
    A = diagonal_algebra(E)
    n, d, N = E.n_points, E.fibre_dims[0], A.ambient_dim
    k = np.arange(samples)[:, None]

    perms = np.empty((samples, n), dtype=int)
    normals = np.empty((samples, n, 2, d, d))
    for s in range(samples):
        perms[s] = rng.permutation(n)
        normals[s] = rng.standard_normal((n, 2, d, d))
    maps = haar_from_normals(normals)
    bad = first_offender(unitarity_defects(maps) > eps)
    if bad is not None:
        raise CovarianceError(
            f"fibre map at {bad[1]} is not a unitary of the right shape")
    # block (f0(x), x) of sample s is its fibre map at x
    U = np.zeros((samples, n, d, n, d), dtype=complex)
    U[k, perms, :, np.arange(n), :] = maps
    U = U.reshape(samples, N, N)
    t = A.block_norms(U)
    graph = np.zeros((samples, n, n), dtype=bool)
    graph[k, perms, np.arange(n)] = True
    forward = ((unitarity_defects(U) <= eps) & normalizes_by_table(t, eps)
               & ((t > eps) == graph).all(axis=(1, 2)))

    m = 2 * d if n >= 2 else N
    pairs = np.empty((samples, 2), dtype=int)
    normals = np.empty((samples, 2, m, m))
    for s in range(samples):
        if n >= 2:
            pairs[s] = rng.choice(n, size=2, replace=False)
        normals[s] = rng.standard_normal((2, m, m))
    mixers = haar_from_normals(normals)
    if n >= 2:
        # rows and columns of blocks i and j, in that order
        idx = (pairs[:, :, None] * d + np.arange(d)).reshape(samples, m)
        U = np.tile(A.unit(), (samples, 1, 1))
        U[k[:, :, None], idx[:, :, None], idx[:, None, :]] = mixers
    else:
        U = mixers
    t = A.block_norms(U)
    support = t > eps
    on_bisection = is_partial_bijection(support) & (support.sum(axis=(1, 2)) == n)
    converse = on_bisection | ~normalizes_by_table(t, eps)

    forward_ok, converse_ok = int(forward.sum()), int(converse.sum())
    return {
        "samples": samples,
        "forward_pass": forward_ok,
        "converse_pass": converse_ok,
        "pass": forward_ok == samples and converse_ok == samples,
    }


def a_dynamical_generation_check(
    Gs: CovarianceGroup,
    A: FiniteCStarAlgebra,
    B: FiniteCStarAlgebra,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Whether products a₀ σ^{t₁} a₁ σ^{t₂} … generate all of B.

    Decided on block supports: A's blocks are full matrix algebras and
    e_ab·w·e_cd = w_bc·e_ad, so M_{n_i}·w·M_{n_j} is the whole (i, j) block
    for any nonzero w.  The rank on each block pair is thus 0 or full, and
    products compose block supports: B is generated iff ⋃_{k≥0} S^k, with S
    the block support of σ and S⁰ the identity, covers every block pair.  A
    non-minimal base flow returns False: its orbit pairs miss part of X×X.
    """
    if A.ambient_dim != B.ambient_dim or B.n_blocks != 1:
        raise ValueError("expected A inside the single-block ambient algebra B")
    if not is_minimal_flow(Gs.flow.generator):
        return False
    step = A.block_norms(Gs.sigma.U) > eps
    reach = np.eye(A.n_blocks, dtype=bool)
    for _ in range(A.n_blocks - 1):  # a path needs fewer than n_blocks steps
        reach = reach | (reach @ step)
    return bool(reach.all())


def slice_from_bisection(U: SpatialAutomorphism) -> Slice:
    """The slice A·U for a self-adjoint base bisection (f0² = id)."""
    if not U.f0.is_self_adjoint():
        raise ValueError("slice construction needs a self-adjoint base bisection")
    return Slice(U.U)
