"""Fell bundles over finite pair groupoids as block decompositions.

A bundle over the pair groupoid on X assigns to the arrow (x, y) the fibre
E_(x,y) = p_x B p_y, the n_x × n_y block of the concrete matrix algebra
B = M_{Σn}.  Two constructions are provided:

* the imprimitivity model — fibres are all n_x × n_y matrices, multiplication
  is the plain matrix product (dimensions may vary);
* the semidirect model — constant fibre dimension, elements carried as
  coefficients a ∈ M_n relative to a frame of unitaries u_g ∈ E_g, with an
  optional 𝕋-valued twist scaling the product.

Both are checked against the ten bundle axioms: the algebraic ones are
decided over every arrow, composable pair and triple from the zero fibres and
the frame and twist arrays; nothing is sampled.

A model's frame is normed once, by its ``FrameAudit``: three eps-free n²
arrays, each computed on first use and kept, each the LAPACK call a stage
made before, so every residual is unchanged.  ``unitarity``, u's defects:
load, axioms 3, 8, 9, theorem 3.13, σ's maps.  ``defects``, ‖u_(x,x) − I‖
and ‖u_(y,x) − u_(x,y)*‖: the builder, axiom 8.  ``values``, u's singular
values: ‖u_g‖ in axiom 4, ``is_saturated``, theorem 3.13, the pair stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import FiniteCStarAlgebra
from .cocycle import (
    Cocycle2,
    cocycle_identity_residual,
    first_offender,
    frame_defects,
    twist_is_admissible,
)
from .groupoid import Arrow, PairGroupoid, arrow_key
from .linalg import (
    DEFAULT_EPS,
    _numerical_rank,
    adjoints,
    as_matrix,
    operator_norms,
    singular_values,
    unitarity_defects,
)


class LocalTrivialityError(ValueError):
    """Frame/twist data requires constant fibre dimension."""


class FrameError(ValueError):
    """The arrow → unitary frame violates its structural conditions."""


@dataclass(frozen=True)
class CStarBundle:
    """The restriction over the unit space: one matrix-algebra fibre per point."""

    fibre_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.fibre_dims) == 0 or any(n < 1 for n in self.fibre_dims):
            raise ValueError(f"fibre dimensions must be positive: {self.fibre_dims}")

    @property
    def n_points(self) -> int:
        return len(self.fibre_dims)

    def is_locally_trivial(self) -> bool:
        return len(set(self.fibre_dims)) == 1


@dataclass(frozen=True, eq=False)
class FrameAudit:
    """The norms of an (n, n, d, d) frame, each kept (module docstring)."""

    frame: np.ndarray

    @cached_property
    def unitarity(self) -> np.ndarray:  # (n, n)
        return unitarity_defects(self.frame)

    @cached_property
    def defects(self) -> tuple[np.ndarray, np.ndarray]:  # units (n,), involution (n, n)
        return frame_defects(self.frame)

    @cached_property
    def values(self) -> np.ndarray:  # (n, n, d)
        u = self.frame
        return singular_values(u.reshape(-1, *u.shape[2:])).reshape(u.shape[:3])


@dataclass(frozen=True)
class FellBundleModel:
    """Bundle data: base pair groupoid, fibre dims, optional frame and twist.

    The constructor does not validate; use the build_* functions.  (Tests rely
    on direct construction to make deliberately broken negative controls.)
    """

    fibre_dims: tuple[int, ...]
    frame: np.ndarray | None = None  # frame[x, y] = u_(x,y), shape (n, n, d, d)
    twist: Cocycle2 | None = None
    zero_fibres: frozenset[Arrow] = field(default_factory=frozenset)
    audit: FrameAudit | None = field(default=None, compare=False, repr=False)  # frame norms

    def __post_init__(self):
        if getattr(self.audit, "frame", None) is not self.frame:  # None, or another frame's
            object.__setattr__(self, "audit", None if self.frame is None else FrameAudit(self.frame))

    @property
    def groupoid(self) -> PairGroupoid:
        return PairGroupoid(len(self.fibre_dims))

    @property
    def n_points(self) -> int:
        return len(self.fibre_dims)

    @property
    def coefficient_form(self) -> bool:
        """Whether fibre elements are frame coefficients (semidirect regime)."""
        return self.frame is not None

    def fibre_shape(self, g: Arrow) -> tuple[int, int]:
        if self.coefficient_form:
            n = self.fibre_dims[0]
            return (n, n)
        return (self.fibre_dims[g[0]], self.fibre_dims[g[1]])

    def fibre_dim(self, g: Arrow) -> int:
        if g in self.zero_fibres:
            return 0
        s = self.fibre_shape(g)
        return s[0] * s[1]

    def fibre_basis(self, g: Arrow) -> list[np.ndarray]:
        if g in self.zero_fibres:
            return []
        rows, cols = self.fibre_shape(g)
        return list(np.eye(rows * cols, dtype=complex).reshape(-1, rows, cols))

    def multiply(
        self, g: Arrow, e1: np.ndarray, h: Arrow, e2: np.ndarray
    ) -> tuple[Arrow, np.ndarray]:
        """Fibre product E_g × E_h → E_{gh}; raises if d(g) ≠ r(h)."""
        gh = self.groupoid.compose(g, h)
        return gh, self._product(g[0], g[1], h[1], as_matrix(e1), as_matrix(e2))

    def involution(self, g: Arrow, e: np.ndarray) -> tuple[Arrow, np.ndarray]:
        """Fibre involution E_g → E_{g*}."""
        return self.groupoid.inverse(g), self._involution(g[0], g[1], as_matrix(e))

    def _product(self, x, y, z, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a·b ∈ E_(x,z) for a ∈ E_(x,y) and b ∈ E_(y,z).  The points are
        ints, or index arrays over (k, rows, cols) stacks a and b."""
        if not self.coefficient_form:
            return a @ b
        u = self.frame
        c = a @ u[x, y] @ b @ u[y, z] @ adjoints(u[x, z])
        if self.twist is not None:
            c = self.twist.values[x, y, z] @ c
        return c

    def _involution(self, x, y, a: np.ndarray) -> np.ndarray:
        """a* ∈ E_(y,x) for a ∈ E_(x,y), with points as ``_product`` takes them."""
        if not self.coefficient_form:
            return adjoints(a)
        v = self.frame[y, x]
        return v @ adjoints(a) @ adjoints(v)

    def embed(self, g: Arrow, e: np.ndarray) -> np.ndarray:
        """Place a fibre element at its block of the ambient algebra."""
        B = diagonal_algebra(self)
        a = as_matrix(e)
        if self.coefficient_form:
            a = a @ self.frame[g]
        return B.embed_block(g[0], g[1], a)


def identity_frame(n_points: int, fibre_dim: int) -> np.ndarray:
    return np.tile(np.eye(fibre_dim, dtype=complex), (n_points, n_points, 1, 1))


def build_imprimitivity_bundle(dims) -> FellBundleModel:
    """The untwisted bundle with E_(x,y) = all n_x × n_y matrices.

    Its enveloping algebra is the full matrix algebra M_{Σn}; the fibres are
    the imprimitivity bimodules between the diagonal blocks.
    """
    bundle = CStarBundle(tuple(int(n) for n in dims))
    return FellBundleModel(fibre_dims=bundle.fibre_dims)


def build_semidirect_bundle(
    E0: CStarBundle,
    frame: np.ndarray | None = None,
    twist: Cocycle2 | None = None,
    eps: float = DEFAULT_EPS,
) -> FellBundleModel:
    """Locally trivial bundle with multiplication through a unitary frame.

    The frame, an (n, n, d, d) array, must satisfy u_(x,x) = I and
    u_(y,x) = u_(x,y)*; every entry must be unitary.  A twist, when present,
    is a model twist (``cocycle.make_twist``, 𝕋-valued) and must be
    structurally admissible (see cocycle.twist_is_admissible).
    """
    if not E0.is_locally_trivial():
        raise LocalTrivialityError(
            f"semidirect model needs constant fibre dimension, got {E0.fibre_dims}"
        )
    n, dim = E0.n_points, E0.fibre_dims[0]
    if frame is None:
        frame = identity_frame(n, dim)
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (n, n, dim, dim):
        raise FrameError(f"frame has shape {frame.shape}, expected {(n, n, dim, dim)}")
    audit = FrameAudit(frame)
    if (g := first_offender(audit.unitarity > eps)) is not None:
        raise FrameError(f"frame entry at {arrow_key(g)} is not a {dim}×{dim} unitary")
    return unitary_frame_bundle(E0.fibre_dims, audit, twist, eps)


def unitary_frame_bundle(
    dims: tuple[int, ...], audit: FrameAudit, twist: Cocycle2 | None, eps: float
) -> FellBundleModel:
    """``build_semidirect_bundle`` past its shape and unitarity checks: the
    audit's frame is an (n, n, d, d) complex array with every entry unitary
    within eps (a parsed model file's frame, normed once on load)."""
    frame, (units, involution) = audit.frame, audit.defects
    n, dim = frame.shape[0], frame.shape[-1]
    if (x := first_offender(units > eps)) is not None:
        raise FrameError(f"frame unit at {arrow_key((x[0], x[0]))} is not the identity")
    if (g := first_offender(involution > eps)) is not None:
        raise FrameError(f"frame violates u_(y,x) = u_(x,y)* at {arrow_key(g)}")
    if twist is not None:
        if twist.fibre_dim != dim or twist.n_points != n:
            raise LocalTrivialityError(
                "twist dimensions do not match the bundle "
                f"({twist.n_points} pts dim {twist.fibre_dim} vs {n} pts dim {dim})"
            )
        if not twist_is_admissible(twist, eps):
            raise FrameError(
                "twist is not admissible: needs unit-normalized values with "
                "ω(g,h)·ω(h*,g*) = 1 and ω(g,g*) = 1"
            )
    return FellBundleModel(fibre_dims=dims, frame=frame, twist=twist, audit=audit)


# --- axiom suite -----------------------------------------------------------

AXIOM_NAMES = (
    "base compatibility of products",
    "bilinearity",
    "associativity",
    "submultiplicativity of norms",
    "involution covers inversion",
    "conjugate linearity of involution",
    "involution is involutive",
    "antimultiplicativity of involution",
    "C*-identity",
    "positivity of e*e",
)


@dataclass
class AxiomReport:
    passed: list[bool]
    residuals: list[float]

    @property
    def all_passed(self) -> bool:
        return all(self.passed)

    def failed_axioms(self) -> list[int]:
        """1-based indices of failing axioms."""
        return [i + 1 for i, ok in enumerate(self.passed) if not ok]

    def as_dict(self) -> dict:
        return {
            "axioms": [
                {"index": i + 1, "name": AXIOM_NAMES[i], "pass": self.passed[i],
                 "residual": self.residuals[i]}
                for i in range(10)
            ],
            "pass": self.all_passed,
        }


def check_fell_axioms(E: FellBundleModel, eps: float = DEFAULT_EPS) -> AxiomReport:
    """The ten bundle axioms, each decided over every arrow, composable pair
    and triple; nothing is sampled.

    Products and involutions are (conjugate) linear in the fibre elements by
    construction, so 2 and 6 hold identically.  The zero fibres decide 1
    and 5: a product of two nonzero fibres, or the involution of a nonzero
    fibre, that lands in a zero fibre fails.  The plain product satisfies
    3, 4 and 7–10 identically, as matrix algebra does.  In coefficient form
    each reduces to a fixed matrix per arrow, pair or triple, made of frame
    and twist values (``_coefficient_residuals``): 4 is the exact supremum
    of ‖a·b‖ over the unit balls, less 1; 9 and 10 fold the unitarity
    defects of the values they rest on.  Failures are reported, never raised.
    """
    res = dict.fromkeys(range(1, 11), 0.0)
    live = np.broadcast_to(True, (E.n_points,) * 2)  # a view: every fibre nonzero
    if E.zero_fibres:  # else nothing lands in a zero fibre, and 1 and 5 hold
        live = ~_zero_fibre_mask(E)
        # [x, y, z]: E_(x,y) and E_(y,z) nonzero, their product fibre E_(x,z) zero
        res[1] = float((live[:, :, None] & live[None] & ~live[:, None, :]).any())
        res[5] = float((live & ~live.T).any())
    if E.coefficient_form:
        res.update(_coefficient_residuals(E, live))
    return AxiomReport(passed=[bool(r <= eps) for r in res.values()],
                       residuals=[float(r) for r in res.values()])


def _zero_fibre_mask(E: FellBundleModel) -> np.ndarray:
    """The (n, n) boolean array, True at each zero fibre."""
    zero = np.zeros((E.n_points, E.n_points), dtype=bool)
    for g in E.zero_fibres:
        zero[g] = True
    return zero


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ⊗ b for each pair of matrices of two broadcasting stacks."""
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    return p.reshape(p.shape[:-4] + (p.shape[-4] * p.shape[-3], -1))


def _coefficient_residuals(E: FellBundleModel, live: np.ndarray) -> dict[int, float]:
    """The residuals of axioms 3, 4 and 7–10 of a bundle in coefficient form,
    by axiom number, over the arrows, pairs and triples of nonzero fibres
    (``live``, an (n, n) mask): where a fibre is zero, its elements are 0
    and the axioms hold.

    A linear map X ↦ Σᵢ Lᵢ X Rᵢ is zero iff Σᵢ Rᵢᵀ ⊗ Lᵢ is (column-major
    vec), so each algebraic axiom is a fixed d²×d² matrix per arrow, pair or
    triple; its residual is the largest operator norm.

    7: e** = L a L* with L = u_g u_(g*), so ‖conj(L) ⊗ L − I‖ per arrow.

    3 and 8 rest on the frame contract build_semidirect_bundle enforces and
    on scalar twist values: 3 on unitary entries, 8 also on u_(g*) = u_g*.
    Those defects, and each twist value's ‖ω − ω₀₀·I‖, are folded in, so a
    directly built model that breaks the contract fails them.  With it, per
    triple g, h, k, u_gh* u_gh = I makes (ab)c = a(bc) for all a, b, c
    equivalent to L₁X = L₂XW for all X, L₁ = ω(gh,k)ω(g,h), L₂ = ω(g,hk),
    W = ω(h,k); for scalar values ‖I ⊗ L₁ − Wᵀ ⊗ L₂‖ = |l₁ − w·l₂|, the
    cocycle identity (``cocycle_identity_residual``).  Per pair, (ab)* = b*a*
    iff X ω(g,h)* = ω(h*,g*) X for all X: |conj ω(g,h) − ω(h*,g*)|.  Both
    vanish identically without a twist.

    4: a·b = ω(g,h)·a·u_g·b·u_h u_gh*, and rank-one a and b attain
    sup ‖a·b‖ = |ω(g,h)|‖u_g‖‖u_h u_gh*‖ over ‖a‖, ‖b‖ ≤ 1: the residual is
    that supremum less 1, per pair.  9 and 10, per arrow (x,y): a*·a =
    W·P·a*·P*·P·a·R, with P = u_(y,x), R = u_(x,y) u_(y,y)* and
    W = ω((y,x),(x,y)).  For unitary P, R and |W| = 1 it has the norm of a*a,
    and W·P·X·R ≥ 0 for every X ≥ 0 iff W·P·R = I (X = I makes the unitary
    W·P·R positive).  So 9 is the largest unitarity defect of u_(x,y),
    u_(y,x), u_(y,y) and W, and 10 the larger of that and ‖W·P·R − I‖.
    """
    u, n, d, audit = E.frame, E.n_points, E.fibre_dims[0], E.audit
    eye = np.eye(d)
    pairs = live[:, :, None] & live[None]  # [x, y, z]: (x,y) and (y,z) live

    def worst(stack, where):
        norms = operator_norms(stack.reshape(-1, *stack.shape[-2:]))
        return np.max(norms.reshape(where.shape), where=where, initial=0.0)

    L = u @ u.swapaxes(0, 1)  # [x, y] = u_(x,y) u_(y,x)
    involutive = worst(_kron(L.conj(), L) - np.eye(d * d), live)
    defects = audit.unitarity
    assoc = np.max(defects, where=live, initial=0.0)
    antimultiplicative = max(assoc, np.max(audit.defects[1], where=live, initial=0.0))
    # [x, y] = P·R (W·P·R once a twist is on), and the defects 9 folds
    wpr = L.swapaxes(0, 1) @ adjoints(u[range(n), range(n)])
    fold = np.maximum(np.maximum(defects, defects.T), np.diagonal(defects)[None])
    wnorm = 1.0  # |ω(g,h)| at [x, y, z]
    if E.twist is not None:
        w = E.twist.values[..., :1, :1]  # [x, y, z] = ω((x,y),(y,z)), as a 1×1 scalar
        scalar = worst(E.twist.values - w * eye, pairs)
        assoc = max(assoc, scalar, cocycle_identity_residual(Cocycle2(w), live))
        mirror = worst(w.conj() - w.transpose(2, 1, 0, 3, 4), pairs)
        antimultiplicative = max(antimultiplicative, scalar, mirror)
        i = np.arange(n)
        W = w[i, i[:, None], i]  # [x, y] = ω((y,x),(x,y))
        fold = np.maximum(fold, unitarity_defects(W))
        wpr = W * wpr
        wnorm = operator_norms(w.reshape(-1, 1, 1)).reshape(n, n, n)
    off = operator_norms((wpr - eye).reshape(-1, d, d))
    # sup ‖a·b‖ at [x, y, z]: ‖u_g‖ times ‖u_h u_gh*‖ = ‖u_(y,z) u_(x,z)*‖, and |ω(g,h)|
    tail = operator_norms((u[None] @ adjoints(u)[:, None]).reshape(-1, d, d))
    sup = audit.values[..., :1] * (tail.reshape(n, n, n) * wnorm)
    cstar = np.max(fold, where=live, initial=0.0)
    return {
        3: float(assoc),
        4: float(np.max(sup - 1.0, where=pairs, initial=0.0)),
        7: float(involutive),
        8: float(antimultiplicative),
        9: float(cstar),
        10: float(max(cstar, np.max(off.reshape(n, n), where=live, initial=0.0))),
    }


def is_saturated(E: FellBundleModel, eps: float = DEFAULT_EPS) -> bool:
    """E_{g₁g₂} = span(E_{g₁}·E_{g₂}) for every composable pair, from n² data.

    span{e_rs·X·e_tu} is all matrices for X ≠ 0, and a zero fibre spans {0}.
    So zero fibres are all or nothing: E_(x,y) = 0 empties ((x,y),(y,x)), so
    E_(x,x) = 0, then each ((x,x),(x,z)), so row x, then each ((w,x),(x,z)).
    Nonzero fibres of the plain product span.  In coefficient form the pair
    spans M_d·M, M = u_(y,z) u_(x,z)*, if ω(g,h) ≠ 0 (and u_g, as M = u_g u_g*
    at ((x,x),(x,y))).  ``_numerical_rank`` gives every M full rank iff it
    gives every entry u full rank on σ_i(u)², uu*'s singular values: at x = y
    M = uu*; for eps ≥ 0, σ_d(M)/σ_1(M) ≥ r(y,z)·r(x,z), r = σ_d/σ_1, as
    σ_d(AB*) ≥ σ_d(A)σ_d(B) and σ_1(AB*) ≤ σ_1(A)σ_1(B).  At eps < 0 it asks
    only M ≠ 0, which nonzero singular A, B can break; this reads u ≠ 0.
    """
    if E.zero_fibres:
        return bool(_zero_fibre_mask(E).all())
    if not E.coefficient_form:
        return True
    if E.twist is not None and not E.twist.values[..., 0, 0].all():
        return False
    return bool((_numerical_rank(E.audit.values ** 2, eps) == E.fibre_dims[0]).all())


def enveloping_algebra(E: FellBundleModel) -> FiniteCStarAlgebra:
    """B = C*(E): the full matrix algebra on H = ⊕ₓ ℂ^{n_x}."""
    return FiniteCStarAlgebra((sum(E.fibre_dims),))


def diagonal_algebra(E: FellBundleModel) -> FiniteCStarAlgebra:
    """A = C*(E⁰): the block-diagonal algebra ⊕ₓ M_{n_x} inside C*(E)."""
    return FiniteCStarAlgebra(E.fibre_dims)


# --- conditional expectation ----------------------------------------------

@dataclass(frozen=True)
class ConditionalExpectation:
    """The canonical compression P(b) = Σᵢ pᵢ b pᵢ onto a block algebra."""

    range_algebra: FiniteCStarAlgebra

    def __call__(self, b) -> np.ndarray:
        return self.range_algebra.compress(b)

    def verify(self, eps: float = DEFAULT_EPS) -> dict:
        """Decide the contract of the compression P onto ``range_algebra``,
        and faithfulness, in closed form from its block dims n_1, …, n_k.
        This compression is the only P that fellkit builds; another map must
        be checked on its images of the N² matrix units, as the tests' probe
        does (``probe_expectation``, this method's oracle).

        On the units P(E_rs) = m_rs·E_rs, m = ⊕ J_{n_k} the 0/1 mask of A's
        blocks (P is linear), so each residual is the norm of an exact array:

        * fixes_range: max |m_rs − 1| over the units of A, where m_rs = 1:
          0.0.  idempotent: max |m_rs² − m_rs|, m_rs ∈ {0, 1}: 0.0.
        * bimodule: by Schur's lemma the A-bimodule maps are x ↦ Σ c_kl p_k x p_l;
          P is one, with c = m constant on each block rectangle: 0.0.
        * positive means completely positive (Choi): the Choi matrix
          C[(r,i),(s,j)] = P(E_rs)_ij is m on its rows (r,r) and zero
          elsewhere, with residual max(‖C − C*‖, −λ_min).  An expectation is
          completely positive (Tomiyama), so the contract is the same.  m is
          real symmetric, and the all-ones J_n has the eigenvalues n and 0,
          so C's spectrum is the n_k and zeros (n_1 = 1 alone at N = 1): 0.0.
          −P is completely positive iff λ_max = max n_k ≤ eps.
        * contractive: for ±P completely positive, ‖P‖ = ‖P(1)‖ (Russo–Dye),
          and ±P(1) = ±diag(m_rr) = ±I: max(0, ±1 − 1).
        * faithful: then tr P(x) = tr(x·P*(1)), P*(1) = diag(m_rr) = I, so
          P(b*b) = 0 forces b = 0: the residual is λ_min(±P*(1)) = ±1, and
          must exceed eps.

        If neither P nor −P is completely positive (eps < 0), those two fail
        closed, with the positive residual and 0.0.
        """
        positive, top = 0.0, float(max(self.range_algebra.block_dims))
        sign = 1.0 if positive <= eps else -1.0 if top <= eps else 0.0
        contract, faithful = (max(0.0, sign - 1.0), sign) if sign else (positive, 0.0)
        report = {key: (bool(r <= eps), r) for key, r in (
            ("fixes_range", 0.0), ("bimodule", 0.0), ("positive", positive),
            ("idempotent", 0.0), ("contractive", contract))}
        report["faithful"] = (bool(faithful > eps), faithful)
        return {**report, "uniqueness": "assumed"}


def restriction_expectation(E: FellBundleModel) -> ConditionalExpectation:
    """P: C*(E) → C*(E⁰), restriction to the diagonal blocks."""
    return ConditionalExpectation(range_algebra=diagonal_algebra(E))
