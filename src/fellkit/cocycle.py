"""Groupoid 2-cocycles with values in ⊕𝕋 (scalar or diagonal-unitary).

A twist assigns to each composable pair of arrows a unit-modulus scalar, or a
diagonal unitary of the fibre dimension, measuring the defect of an assignment
g ↦ u_g from being a representation: u_g u_h = ω(g,h) u_{gh}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groupoid import Arrow, PairGroupoid
from .linalg import DEFAULT_EPS, adjoint, as_matrix, operator_norm


class NotATwistError(ValueError):
    """Raised when an assignment's defects leave the ⊕𝕋 codomain."""


@dataclass(frozen=True)
class Cocycle2:
    """A twist on the pair groupoid over n_points with fibre dimension fibre_dim.

    Values are stored as fibre_dim × fibre_dim diagonal unitary matrices
    (1×1 for scalar twists).  Missing pairs default to the identity.
    A frame (arrow ↦ unitary) may be attached; it supplies the conjugation
    twist in the cocycle identity when values are non-scalar diagonals.
    """

    n_points: int
    fibre_dim: int
    values: dict[tuple[Arrow, Arrow], np.ndarray] = field(default_factory=dict)
    frame: dict[Arrow, np.ndarray] | None = None

    def value(self, g: Arrow, h: Arrow) -> np.ndarray:
        v = self.values.get((g, h))
        if v is None:
            return np.eye(self.fibre_dim, dtype=complex)
        return v

    def scale(self, g: Arrow, h: Arrow, product: np.ndarray) -> np.ndarray:
        """Apply the twist to a fibre product: left-multiply by ω(g,h)."""
        return self.value(g, h) @ product

    def is_trivial(self, eps: float = DEFAULT_EPS) -> bool:
        eye = np.eye(self.fibre_dim)
        return all(operator_norm(v - eye) <= eps for v in self.values.values())

    def groupoid(self) -> PairGroupoid:
        return PairGroupoid(self.n_points)


def make_twist(
    n_points: int,
    fibre_dim: int,
    values: dict[tuple[Arrow, Arrow], complex | np.ndarray],
    frame: dict[Arrow, np.ndarray] | None = None,
    eps: float = DEFAULT_EPS,
) -> Cocycle2:
    """Build a Cocycle2, normalizing scalar values to diagonal matrices."""
    out: dict[tuple[Arrow, Arrow], np.ndarray] = {}
    for pair, v in values.items():
        if np.isscalar(v):
            mat = complex(v) * np.eye(fibre_dim, dtype=complex)
        else:
            mat = as_matrix(v)
            if mat.shape != (fibre_dim, fibre_dim):
                raise ValueError(
                    f"twist value for {pair} has shape {mat.shape}, "
                    f"expected ({fibre_dim},{fibre_dim})"
                )
        off = mat - np.diag(np.diagonal(mat))
        if operator_norm(off) > eps:
            raise NotATwistError(f"twist value for {pair} is not diagonal")
        if np.max(np.abs(np.abs(np.diagonal(mat)) - 1.0)) > eps:
            raise NotATwistError(f"twist value for {pair} has non-unit modulus")
        out[pair] = mat
    return Cocycle2(n_points=n_points, fibre_dim=fibre_dim, values=out, frame=frame)


def twist_is_admissible(w: Cocycle2, eps: float = DEFAULT_EPS) -> bool:
    """Structural sanity a twisted bundle needs before the axiom suite.

    Checks unit-normalization ω(unit,g) = ω(g,unit) = 1, the involution
    compatibility ω(g,h)·ω(h*,g*) = 1 forced by Fell axiom 8 (equivalently
    ω(h*,g*) = conj(ω(g,h))), and ω(g,g*) = 1 forced by positivity (axiom 10).
    """
    G = w.groupoid()
    eye = np.eye(w.fibre_dim)
    for g in G.arrows():
        r, d = G.range(g), G.domain(g)
        if operator_norm(w.value((r, r), g) - eye) > eps:
            return False
        if operator_norm(w.value(g, (d, d)) - eye) > eps:
            return False
        if operator_norm(w.value(g, G.inverse(g)) - eye) > eps:
            return False
    for g, h in G.composable_pairs():
        gi, hi = G.inverse(g), G.inverse(h)
        if operator_norm(w.value(g, h) @ w.value(hi, gi) - eye) > eps:
            return False
    return True


def extract_cocycle(
    assignment: dict[Arrow, np.ndarray], eps: float = DEFAULT_EPS
) -> Cocycle2:
    """Read the twist off an assignment of unitaries over a full pair groupoid.

    The assignment must cover every arrow with u_{(x,x)} = I and
    u_{g*} = u_g*.  For each composable pair the defect u_g u_h (u_{gh})* is
    required to be a diagonal unitary within eps; anything else means the
    assignment is inconsistent with the ⊕𝕋 codomain and raises NotATwistError.
    """
    points = {x for g in assignment for x in g}
    n = max(points) + 1
    G = PairGroupoid(n)
    missing = [g for g in G.arrows() if g not in assignment]
    if missing:
        raise ValueError(f"assignment missing arrows: {missing}")
    dims = {as_matrix(u).shape for u in assignment.values()}
    if len(dims) != 1 or len(next(iter(dims))) != 2:
        raise ValueError("assignment unitaries must share a square shape")
    dim = next(iter(dims))[0]
    eye = np.eye(dim)
    for x in range(n):
        if operator_norm(as_matrix(assignment[(x, x)]) - eye) > eps:
            raise ValueError(f"unit arrow ({x},{x}) is not assigned the identity")
    for g, u in assignment.items():
        if operator_norm(as_matrix(assignment[G.inverse(g)]) - adjoint(u)) > eps:
            raise ValueError(f"assignment violates u_(g*) = u_g* at {g}")

    values: dict[tuple[Arrow, Arrow], np.ndarray] = {}
    for g, h in G.composable_pairs():
        gh = G.compose(g, h)
        defect = as_matrix(assignment[g]) @ as_matrix(assignment[h]) @ adjoint(
            assignment[gh]
        )
        off = defect - np.diag(np.diagonal(defect))
        if operator_norm(off) > eps:
            raise NotATwistError(
                f"defect at ({g},{h}) is not diagonal "
                f"(off-diagonal norm {operator_norm(off):.3e}); "
                "assignment has no ⊕𝕋-valued twist"
            )
        if np.max(np.abs(np.abs(np.diagonal(defect)) - 1.0)) > eps:
            raise NotATwistError(f"defect at ({g},{h}) has non-unit modulus")
        values[(g, h)] = defect
    return Cocycle2(n_points=n, fibre_dim=dim, values=values, frame=dict(assignment))


def cocycle_identity_residual(w: Cocycle2) -> float:
    """Max residual of the (possibly conjugation-twisted) cocycle identity.

    Over all composable triples (g,h,k):
        ω(g,h)·ω(gh,k)  vs  α_g(ω(h,k))·ω(g,hk)
    with α_g conjugation by u_g when a frame is attached, trivial otherwise.
    """
    G = w.groupoid()
    worst = 0.0
    for g, h, k in G.composable_triples():
        gh = G.compose(g, h)
        hk = G.compose(h, k)
        lhs = w.value(g, h) @ w.value(gh, k)
        whk = w.value(h, k)
        if w.frame is not None and w.fibre_dim > 1:
            ug = as_matrix(w.frame[g])
            whk = ug @ whk @ ug.conj().T
        rhs = whk @ w.value(g, hk)
        worst = max(worst, operator_norm(lhs - rhs))
    return worst

