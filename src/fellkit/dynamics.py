"""Spatial automorphisms, covariance groups and dynamical checks.

A spatial automorphism pairs a base permutation f0 with one unitary per point
and assembles to a block-permutation unitary U whose nonzero blocks sit
exactly on the graph of f0 (the covariance condition).  Iterating one such
automorphism over a cyclic base flow gives a covariance group, the discrete
stand-in for a 1-parameter group; its powers' fibre maps, in block form, are
Φ's blocks.  Theorem 3.13 and whether A and σ generate B (Arveson's
A-dynamical systems) are read off norms of the frame and of σ's fibre maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import FiniteCStarAlgebra
from .cocycle import first_offender
from .fellbundle import FellBundleModel, FrameAudit, identity_frame, is_saturated
from .groupoid import Bisection, CyclicFlow, arrow_key, cyclic_flow, is_minimal_flow
from .linalg import (
    DEFAULT_EPS,
    as_matrix,
    operator_norms,
    unitarity_defects,
)
from .subalgebra import Slice


class CovarianceError(ValueError):
    """Fibre data incompatible with the base permutation."""


@dataclass(frozen=True)
class SpatialAutomorphism:
    """(f0, {w_x}) with w_x : fibre at x → fibre at f0(x), all unitary, each
    zero-padded to m = max(fibre_dims) in the (n, m, m) array fibre_maps.
    The assembled U has block (f0(x), x) equal to w_x; conjugation by U maps
    the diagonal algebra onto itself."""

    f0: Bisection
    fibre_maps: np.ndarray
    fibre_dims: tuple[int, ...]

    @cached_property
    def U(self) -> np.ndarray:
        A = FiniteCStarAlgebra(self.fibre_dims)
        i, j = np.array([self.f0.perm]), np.arange(A.n_blocks)[None]
        out = A.embed_blocks(i, j, self.fibre_maps[None])[0]
        out.flags.writeable = False
        return out


def make_spatial_automorphism(
    f0: Bisection,
    fibre_maps,
    fibre_dims,
    eps: float = DEFAULT_EPS,
) -> SpatialAutomorphism:
    """Validate and assemble a spatial automorphism, naming the first point
    whose dims, map shape or map unitarity (one stacked check) is at fault;
    a map that is not a finite matrix raises as_matrix's ValueError."""
    dims = tuple(int(n) for n in fibre_dims)
    if f0.n_points != len(dims):
        raise CovarianceError(
            f"base permutation on {f0.n_points} points vs {len(dims)} fibres"
        )
    n, m = len(dims), max(dims)
    maps = np.zeros((n, m, m), dtype=complex)
    for x in range(n):  # n ends at the first fault that needs no norm
        if dims[x] != dims[f0(x)] or (w := as_matrix(fibre_maps[x])).shape != (dims[x],) * 2:
            n = x
            break
        maps[x, :dims[x], :dims[x]] = w
    # w_x is padded by the identity, so that it is checked on its own dims
    pad = np.eye(m, dtype=bool) & (np.arange(m) >= np.array(dims)[:, None, None])
    x = first_offender(~(unitarity_defects(np.where(pad, 1, maps)[:n]) <= eps))
    x = n if x is None else x[0]
    if x < len(dims) and dims[x] != dims[f0(x)]:
        raise CovarianceError(
            f"fibre dims {dims[x]} at {x} and {dims[f0(x)]} at f0({x})={f0(x)} "
            "differ; a non-trivial base map needs matching dimensions")
    if x < len(dims):
        raise CovarianceError(f"fibre map at {x} is not a unitary of the right shape")
    return SpatialAutomorphism(f0=f0, fibre_maps=maps, fibre_dims=dims)


@dataclass(frozen=True)
class CovarianceGroup:
    """The cyclic group generated by one spatial automorphism σ: maps[k] holds
    the fibre maps of σ^(k+1), over the base power flow.elements[k]; the last
    power covers the identity bisection, so its U is block-diagonal."""

    flow: CyclicFlow
    sigma: SpatialAutomorphism
    maps: np.ndarray  # (order, n, m, m)

    @property
    def fibre_dims(self) -> tuple[int, ...]:
        return self.sigma.fibre_dims

    @property
    def n_points(self) -> int:
        return len(self.fibre_dims)

    @property
    def powers(self) -> np.ndarray:  # (order, n): row k is the perm of g^(k+1)
        return np.array([h.perm for h in self.flow.elements])

    @property
    def blocks(self) -> np.ndarray:
        """The (n, n, m, m) array with maps[k][x] at block (g^(k+1)(x), x): on
        a minimal flow each block is one power's map, so Σ_k σ^(k+1)'s blocks."""
        out = np.zeros((self.n_points,) * 2 + self.maps.shape[-2:], dtype=complex)
        out[self.powers, range(self.n_points)] = self.maps
        return out

    def support(self, k: int, eps: float = DEFAULT_EPS) -> set[tuple[int, int]]:
        """σ^(k+1)'s block support: its graph less the maps of norm ≤ eps."""
        live, h = operator_norms(self.maps[k]) > eps, self.flow.elements[k]
        return {(int(h(x)), x) for x in range(self.n_points) if live[x]}


def covariance_group(sigma: SpatialAutomorphism) -> CovarianceGroup:
    """σ's powers by maps[k+1] = maps[k][g] @ w: σ^(k+2) applies σ first."""
    flow = cyclic_flow(sigma.f0)
    g, w = list(sigma.f0.perm), sigma.fibre_maps
    maps = np.empty((flow.order,) + w.shape, dtype=complex)
    maps[0] = w
    for k in range(1, flow.order):
        maps[k] = maps[k - 1][g] @ w
    return CovarianceGroup(flow=flow, sigma=sigma, maps=maps)


def covariance_group_from_frame(
    generator: Bisection, E: FellBundleModel, eps: float = DEFAULT_EPS
) -> CovarianceGroup:
    """Build σ from a bundle's frame along the generator's graph (I per point
    for a plain product), its maps checked off the frame's audit."""
    dims = E.fibre_dims
    if E.frame is None or generator.n_points != len(dims):  # the latter raises
        maps = [np.eye(d, dtype=complex) for d in dims]
        return covariance_group(make_spatial_automorphism(generator, maps, dims, eps))
    graph = (list(generator.perm), range(len(dims)))
    if (x := first_offender(~(E.audit.unitarity[graph] <= eps))) is not None:
        raise CovarianceError(f"fibre map at {x[0]} is not a unitary of the right shape")
    maps = np.asarray(E.frame[graph], dtype=complex)
    return covariance_group(SpatialAutomorphism(generator, maps, dims))


def check_unitary_normalizer_theorem(
    E: FellBundleModel, eps: float = DEFAULT_EPS
) -> dict:
    """Decide from the fibre blocks that spatial automorphisms = unitary
    normalizers of the diagonal algebra.

    Forward: the n powers c^k of the cycle c(x) = x + 1, with fibre maps
    w_x = u_(c^k x, x) of the model frame (I_d for a plain product), cover
    every arrow once.  U's block (c^k x, x) is w_x and the rest are zero, so
    ‖U*U − I‖, ‖UU* − I‖ are the largest unitarity defect of the w_x: a fibre
    map that is not unitary raises CovarianceError, naming the first
    offending arrow in row-major order.  Table k holds the ‖w_x‖ on the graph
    of c^k, one entry per row and per column, so the normalizer rule (whose
    verdict covers every base permutation f0) always passes, and the support
    is the graph iff every ‖w_x‖ > eps: power k passes iff they all are.

    Converse: pair k of the m = n(n−1)/2 block pairs (row-major) gets the
    mixer R(θ_k)⊗I_d, θ_k = kπ/(2(m+1)), which lies on no bisection and must
    fail to normalize.  Its table is 1.0 on the untouched diagonal blocks,
    c_k = ‖cos θ_k·I_d‖ = cos θ_k on the pair's diagonal blocks and s_k =
    sin θ_k on its off-diagonal ones.  So its support is a bisection iff
    exactly one of c_k, s_k exceeds eps (c_k, s_k < 1, so neither does once
    eps ≥ 1 drops the 1.0 entries), and it normalizes iff c_k·s_k ≤ eps, the
    product of the two largest entries of the pair's rows and columns: the
    converse passes iff one of the two holds.  No verdict reads an rng.
    """
    if len(set(E.fibre_dims)) != 1:
        raise ValueError("theorem check needs constant fibre dimension")
    if not is_saturated(E, eps):
        raise ValueError("theorem check needs a saturated bundle")
    n, d = E.n_points, E.fibre_dims[0]
    audit = E.audit or FrameAudit(identity_frame(n, d))
    if (bad := first_offender(audit.unitarity > eps)) is not None:
        raise CovarianceError(f"fibre map at {arrow_key(bad)} is not a unitary of the right shape")
    live = audit.values[..., 0] > eps  # ‖w_x‖ at arrow (c^k x, x)
    k, x = np.arange(n)[:, None], np.arange(n)  # power k, column x
    forward = live[(x + k) % n, x].all(axis=1)

    m = n * (n - 1) // 2
    theta = np.arange(1, m + 1) * np.pi / (2 * (m + 1))
    c, s = np.cos(theta), np.sin(theta)
    converse = ((c > eps) != (s > eps)) | (c * s > eps)

    forward_ok, converse_ok = int(forward.sum()), int(converse.sum())
    return {
        "automorphisms": n,
        "forward_pass": forward_ok,
        "mixers": m,
        "converse_pass": converse_ok,
        "pass": forward_ok == n and converse_ok == m,
    }


def a_dynamical_generation_check(
    Gs: CovarianceGroup,
    A: FiniteCStarAlgebra,
    B: FiniteCStarAlgebra,
    eps: float = DEFAULT_EPS,
) -> bool:
    """Whether products a₀ σ^{t₁} a₁ σ^{t₂} … generate all of B.

    Decided on block supports: A's blocks, σ's fibres, are full matrix
    algebras and e_ab·w·e_cd = w_bc·e_ad, so M_{n_i}·w·M_{n_j} is the whole
    (i, j) block for any nonzero w.  Products thus compose block supports,
    and B is generated iff ⋃_{k≥0} S^k, with S the block support of σ and S⁰
    the identity, covers X×X.  S is ``Gs.support(0)``: the graph of f0 less
    the (f0(x), x) with ‖w_x‖ ≤ eps.  A non-minimal f0 misses an orbit pair;
    one live n-cycle reaches all of X×X.  At n > 1 a dead arrow at x leaves
    (f0(x), x) unreached, as every path out of x starts on it; at n = 1, S⁰
    alone covers X×X.
    """
    if A.ambient_dim != B.ambient_dim or B.n_blocks != 1:
        raise ValueError("expected A inside the single-block ambient algebra B")
    if A.block_dims != Gs.fibre_dims:
        raise ValueError(f"A's blocks {A.block_dims} are not σ's fibres {Gs.fibre_dims}")
    return is_minimal_flow(Gs.flow.generator) and (
        Gs.n_points == 1 or len(Gs.support(0, eps)) == Gs.n_points)


def slice_from_bisection(U: SpatialAutomorphism) -> Slice:
    """The slice A·U for a self-adjoint base bisection (f0² = id)."""
    if not U.f0.is_self_adjoint():
        raise ValueError("slice construction needs a self-adjoint base bisection")
    return Slice(U.U)
