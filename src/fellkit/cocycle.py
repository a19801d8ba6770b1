"""Groupoid 2-cocycles: a model's twist is 𝕋-valued, an assignment's defect ⊕𝕋.

A model's twist gives each composable pair a unit scalar ω(g,h), held as
ω(g,h)·I, as Kumjian's twists do ("On C*-diagonals", 1986): the product
a·b = ω(g,h)·a·u_g·b·u_h u_gh* is associative only for scalar values.  On X×X
every such cocycle is a coboundary (Renault, LNM 793).  An assignment's
defect, u_g u_h = ω(g,h) u_{gh}, is the coboundary δu, with diagonal unitary
values; ``extract_cocycle`` reads it off and checks it, and the read-off of Φ
(``embedding.read_off_pair``) forms it alone, as the holonomy decides those
checks.  Twists are (n, n, n, d, d) arrays, frames (n, n, d, d) ones.  The n⁴
cocycle identity (``cocycle_identity_residual``) is axiom 3's twist term on a
model twist; on δu it holds identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groupoid import Arrow, arrow_key, pair_key
from .linalg import DEFAULT_EPS, adjoints, as_matrix, operator_norms


class NotATwistError(ValueError):
    """Raised when a twist value leaves 𝕋, or an assignment's defects ⊕𝕋."""


@dataclass(frozen=True)
class Cocycle2:
    """A twist on the pair groupoid: values[x, y, z] = ω((x,y),(y,z)).

    Values are d×d matrices within eps of v·I, |v| = 1 (``make_twist``), or
    of a diagonal unitary (``extract_cocycle``), kept whole so δu keeps its
    off-diagonal residue.  A frame (n, n, d, d) may be attached; it supplies
    the conjugation twist in the cocycle identity when values are non-scalar.
    """

    values: np.ndarray
    frame: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def fibre_dim(self) -> int:
        return self.values.shape[-1]

    def value(self, g: Arrow, h: Arrow) -> np.ndarray:
        """ω(g, h) for a composable pair (g, h)."""
        return self.values[g[0], g[1], h[1]]


def first_offender(bad: np.ndarray) -> tuple[int, ...] | None:
    """The row-major index, in Python ints, of the first True entry of bad."""
    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    return tuple(int(i) for i in np.unravel_index(hits[0], bad.shape))


def frame_defects(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For an (n, n, d, d) frame: ‖u_(x,x) − I‖ per point x and
    ‖u_(g*) − u_g*‖ per arrow g, an (n,) and an (n, n) array, from one
    stacked SVD."""
    n, d = frame.shape[0], frame.shape[-1]
    units = frame[range(n), range(n)] - np.eye(d)
    involution = (frame.swapaxes(0, 1) - adjoints(frame)).reshape(-1, d, d)
    norms = operator_norms(np.concatenate([units, involution]))
    return norms[:n], norms[n:].reshape(n, n)


def first_non_twist_value(
    values: np.ndarray, eps: float, scalar: bool = False
) -> tuple[tuple[int, ...], float] | None:
    """The index of the first matrix, row-major, of a (..., d, d) array that
    is not diagonal (v·I if scalar) with unit-modulus entries within eps, and
    the norm of its part off that form (at most eps if only the modulus
    fails)."""
    d = values.shape[-1]
    diagonal = np.diagonal(values, axis1=-2, axis2=-1)[..., :1 if scalar else d]
    off = values - diagonal[..., None] * np.eye(d)
    off_norms = operator_norms(off.reshape(-1, d, d)).reshape(values.shape[:-2])
    modulus = np.abs(np.abs(diagonal) - 1).max(axis=-1)
    k = first_offender((off_norms > eps) | (modulus > eps))
    return None if k is None else (k, float(off_norms[k]))


def make_twist(
    n_points: int,
    fibre_dim: int,
    values: dict[tuple[Arrow, Arrow], complex | np.ndarray],
    eps: float = DEFAULT_EPS,
) -> Cocycle2:
    """Build a model's Cocycle2 from its values on some composable pairs; the
    other pairs take the identity, and a scalar value v becomes v·I.  Each
    value must be v·I, |v| = 1, within eps, else NotATwistError names it."""
    out = np.tile(np.eye(fibre_dim, dtype=complex), (n_points,) * 3 + (1, 1))
    for pair, v in values.items():
        (x, y), (_, z) = pair
        if np.isscalar(v):  # checked finite before it scales I
            v = as_matrix([[v]]) * np.eye(fibre_dim, dtype=complex)
        mat = as_matrix(v)
        if mat.shape != (fibre_dim, fibre_dim):
            raise ValueError(f"twist value for {pair_key(*pair)} has shape {mat.shape}, "
                             f"expected ({fibre_dim},{fibre_dim})")
        out[x, y, z] = mat
    if (bad := first_non_twist_value(out, eps, scalar=True)) is not None:
        (x, y, z), off = bad
        fault = "is not scalar" if off > eps else "has non-unit modulus"
        raise NotATwistError(f"twist value for {pair_key((x, y), (y, z))} {fault}")
    return Cocycle2(values=out)


def twist_is_admissible(w: Cocycle2, eps: float = DEFAULT_EPS) -> bool:
    """Structural sanity a twisted bundle needs before the axiom suite.

    Checks unit-normalization ω(unit,g) = ω(g,unit) = 1, the involution
    compatibility ω(g,h)·ω(h*,g*) = 1 forced by Fell axiom 8 (equivalently
    ω(h*,g*) = conj(ω(g,h))), and ω(g,g*) = 1 forced by positivity (axiom 10).
    """
    V, n, d = w.values, w.n_points, w.fibre_dim
    p = range(n)
    must_be_one = (
        V[p, p],  # ω((x,x), (x,y))
        V[:, p, p],  # ω((x,y), (y,y))
        V[p, :, p],  # ω((x,y), (y,x))
        V @ V.transpose(2, 1, 0, 3, 4),  # ω((x,y),(y,z))·ω((z,y),(y,x))
    )
    stack = np.concatenate([m.reshape(-1, d, d) for m in must_be_one])
    return bool(np.all(operator_norms(stack - np.eye(d)) <= eps))


def coboundary(u: np.ndarray) -> np.ndarray:
    """δu[x, y, z] = u_(x,y) u_(y,z) u_(x,z)* of an (n, n, d, d) assignment,
    one stacked product."""
    return (u[:, :, None] @ u[None, :, :]) @ adjoints(u)[:, None, :]


def extract_cocycle(assignment: np.ndarray, eps: float = DEFAULT_EPS) -> Cocycle2:
    """Read the twist off an (n, n, d, d) assignment of unitaries u_(x,y).

    The assignment must have u_{(x,x)} = I and u_{g*} = u_g*.  For each
    composable pair the defect u_g u_h (u_{gh})* is required to be a diagonal
    unitary within eps; anything else means the assignment is inconsistent
    with the ⊕𝕋 codomain and raises NotATwistError.
    """
    u = np.asarray(assignment, dtype=complex)
    if u.ndim != 4 or u.shape[0] != u.shape[1] or u.shape[2] != u.shape[3]:
        raise ValueError("assignment must be an (n, n, d, d) array of unitaries")
    units, involution = frame_defects(u)
    if (x := first_offender(units > eps)) is not None:
        raise ValueError(f"unit arrow {arrow_key((x[0], x[0]))} is not assigned the identity")
    if (g := first_offender(involution > eps)) is not None:
        raise ValueError(f"assignment violates u_(g*) = u_g* at {arrow_key(g)}")

    defects = coboundary(u)
    if (bad := first_non_twist_value(defects, eps)) is not None:
        (x, y, z), off = bad
        fault = (f"is not diagonal (off-diagonal norm {off:.3e}); assignment has "
                 "no ⊕𝕋-valued twist" if off > eps else "has non-unit modulus")
        raise NotATwistError(f"defect at {pair_key((x, y), (y, z))} {fault}")
    return Cocycle2(values=defects, frame=u)


def cocycle_identity_residual(w: Cocycle2, live: np.ndarray | None = None) -> float:
    """Max residual of the (possibly conjugation-twisted) cocycle identity.

    Over all composable triples (g,h,k) = ((x,y),(y,z),(z,t)):
        ω(g,h)·ω(gh,k)  vs  α_g(ω(h,k))·ω(g,hk)
    with α_g conjugation by u_g when a frame is attached, trivial otherwise.
    Given ``live``, an (n, n) mask, only triples of live arrows count.  The
    n³ triples of one x are formed at a time, which bounds memory.
    """
    V, n, d = w.values, w.n_points, w.fibre_dim
    conjugate = w.frame is not None and d > 1
    live = np.ones((n, n), dtype=bool) if live is None else live
    pairs = live[:, :, None] & live[None]  # [y, z, t]: (y,z) and (z,t) live
    worst = 0.0
    for x in range(n):
        lhs = V[x][:, :, None] @ V[x][None, :, :]
        whk = V
        if conjugate:
            ug = w.frame[x][:, None, None]
            whk = (ug @ whk) @ adjoints(ug)
        rhs = whk @ V[x][:, None, :]
        norms = operator_norms((lhs - rhs).reshape(-1, d, d)).reshape(lhs.shape[:3])
        where = live[x][:, None, None] & pairs
        worst = max(worst, float(np.max(norms, where=where, initial=0.0)))
    return worst
