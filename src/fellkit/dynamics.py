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
from .fellbundle import FellBundleModel, is_saturated
from .groupoid import Bisection, CyclicFlow, cyclic_flow, is_minimal_flow
from .linalg import (
    DEFAULT_EPS,
    as_matrix,
    haar_from_normals,
    is_unitary,
    operator_norms,
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
    direction factors its draws with one stacked QR.  Every predicate is
    read off the fibre blocks, never the N×N matrices.  U's block
    (f0(x), x) is w_x and the rest are zero, so its block-norm table is the
    norms of the w_x on the graph of f0, and ‖U*U − I‖, ‖UU* − I‖ are the
    largest unitarity defect of the w_x: a fibre map that is not unitary
    raises CovarianceError, naming the first in draw order.  A mixer on
    blocks i and j leaves the other diagonal blocks I_d, of norm exactly
    1.0, and its table holds the norms of its four d×d quadrants.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if len(set(E.fibre_dims)) != 1:
        raise ValueError("theorem check needs constant fibre dimension")
    if not is_saturated(E, eps):
        raise ValueError("theorem check needs a saturated bundle")
    n, d = E.n_points, E.fibre_dims[0]
    k, points = np.arange(samples)[:, None], np.arange(n)

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
    t = np.zeros((samples, n, n))
    t[k, perms, points] = operator_norms(maps.reshape(-1, d, d)).reshape(samples, n)
    graph = np.zeros((samples, n, n), dtype=bool)
    graph[k, perms, points] = True
    forward = normalizes_by_table(t, eps) & ((t > eps) == graph).all(axis=(1, 2))

    m = 2 * d if n >= 2 else d
    pairs = np.empty((samples, 2), dtype=int)
    normals = np.empty((samples, 2, m, m))
    for s in range(samples):
        if n >= 2:
            pairs[s] = rng.choice(n, size=2, replace=False)
        normals[s] = rng.standard_normal((2, m, m))
    mixers = haar_from_normals(normals)
    if n >= 2:
        t = np.zeros((samples, n, n))
        t[:, points, points] = 1.0
        quadrants = mixers.reshape(samples, 2, d, 2, d).swapaxes(2, 3)
        t[k[:, :, None], pairs[:, :, None], pairs[:, None, :]] = operator_norms(
            quadrants.reshape(-1, d, d)).reshape(samples, 2, 2)
    else:
        t = operator_norms(mixers)[:, None, None]
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
