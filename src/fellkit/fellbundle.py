"""Fell bundles over finite pair groupoids as block decompositions.

A bundle over the pair groupoid on X assigns to the arrow (x, y) the fibre
E_(x,y) = p_x B p_y, the n_x × n_y block of the concrete matrix algebra
B = M_{Σn}.  Two constructions are provided:

* the imprimitivity model — fibres are all n_x × n_y matrices, multiplication
  is the plain matrix product (dimensions may vary);
* the semidirect model — constant fibre dimension, elements carried as
  coefficients a ∈ M_n relative to a frame of unitaries u_g ∈ E_g, with an
  optional diagonal-unitary twist scaling the product.

Both are checked against the ten bundle axioms by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import FiniteCStarAlgebra
from .cocycle import Cocycle2, twist_is_admissible
from .groupoid import Arrow, PairGroupoid
from .linalg import (
    DEFAULT_EPS,
    as_matrix,
    is_positive_semidefinite,
    is_unitary,
    operator_norm,
    random_matrix,
    rank,
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


@dataclass(frozen=True)
class FellBundleModel:
    """Bundle data: base pair groupoid, fibre dims, optional frame and twist.

    The constructor does not validate; use the build_* functions.  (Tests rely
    on direct construction to make deliberately broken negative controls.)
    """

    fibre_dims: tuple[int, ...]
    frame: dict[Arrow, np.ndarray] | None = None
    twist: Cocycle2 | None = None
    zero_fibres: frozenset[Arrow] = field(default_factory=frozenset)

    @property
    def groupoid(self) -> PairGroupoid:
        return PairGroupoid(len(self.fibre_dims))

    @property
    def n_points(self) -> int:
        return len(self.fibre_dims)

    @property
    def unit_bundle(self) -> CStarBundle:
        return CStarBundle(self.fibre_dims)

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
        out = []
        for r in range(rows):
            for c in range(cols):
                e = np.zeros((rows, cols), dtype=complex)
                e[r, c] = 1.0
                out.append(e)
        return out

    def random_fibre_element(self, g: Arrow, rng: np.random.Generator) -> np.ndarray:
        if g in self.zero_fibres:
            return np.zeros(self.fibre_shape(g), dtype=complex)
        return random_matrix(self.fibre_shape(g), rng)

    def multiply(
        self, g: Arrow, e1: np.ndarray, h: Arrow, e2: np.ndarray
    ) -> tuple[Arrow, np.ndarray]:
        """Fibre product E_g × E_h → E_{gh}; raises if d(g) ≠ r(h)."""
        G = self.groupoid
        gh = G.compose(g, h)
        a, b = as_matrix(e1), as_matrix(e2)
        if not self.coefficient_form:
            return gh, a @ b
        ug, uh, ugh = self.frame[g], self.frame[h], self.frame[gh]
        c = a @ ug @ b @ uh @ ugh.conj().T
        if self.twist is not None:
            c = self.twist.scale(g, h, c)
        return gh, c

    def involution(self, g: Arrow, e: np.ndarray) -> tuple[Arrow, np.ndarray]:
        """Fibre involution E_g → E_{g*}."""
        gi = self.groupoid.inverse(g)
        a = as_matrix(e)
        if not self.coefficient_form:
            return gi, a.conj().T
        ui = self.frame[gi]
        return gi, ui @ a.conj().T @ ui.conj().T

    def embed(self, g: Arrow, e: np.ndarray) -> np.ndarray:
        """Place a fibre element at its block of the ambient algebra."""
        B = diagonal_algebra(self)
        a = as_matrix(e)
        if self.coefficient_form:
            a = a @ self.frame[g]
        return B.embed_block(g[0], g[1], a)

    def block(self, ambient: np.ndarray, g: Arrow) -> np.ndarray:
        """Read the coefficient of the (x, y) block back out of an ambient matrix."""
        B = diagonal_algebra(self)
        blk = B.block(ambient, g[0], g[1])
        if self.coefficient_form:
            blk = blk @ self.frame[g].conj().T
        return blk


def identity_frame(n_points: int, fibre_dim: int) -> dict[Arrow, np.ndarray]:
    eye = np.eye(fibre_dim, dtype=complex)
    return {
        (x, y): eye.copy() for x in range(n_points) for y in range(n_points)
    }


def build_imprimitivity_bundle(dims) -> FellBundleModel:
    """The untwisted bundle with E_(x,y) = all n_x × n_y matrices.

    Its enveloping algebra is the full matrix algebra M_{Σn}; the fibres are
    the imprimitivity bimodules between the diagonal blocks.
    """
    bundle = CStarBundle(tuple(int(n) for n in dims))
    return FellBundleModel(fibre_dims=bundle.fibre_dims)


def build_semidirect_bundle(
    E0: CStarBundle,
    frame: dict[Arrow, np.ndarray] | None = None,
    twist: Cocycle2 | None = None,
    eps: float = DEFAULT_EPS,
) -> FellBundleModel:
    """Locally trivial bundle with multiplication through a unitary frame.

    The frame must satisfy u_(x,x) = I and u_(y,x) = u_(x,y)*; every entry
    must be unitary.  A twist, when present, must be diagonal-unitary valued
    and structurally admissible (see cocycle.twist_is_admissible).
    """
    if not E0.is_locally_trivial():
        raise LocalTrivialityError(
            f"semidirect model needs constant fibre dimension, got {E0.fibre_dims}"
        )
    n, dim = E0.n_points, E0.fibre_dims[0]
    G = PairGroupoid(n)
    if frame is None:
        frame = identity_frame(n, dim)
    frame = {g: as_matrix(u) for g, u in frame.items()}
    for g in G.arrows():
        if g not in frame:
            raise FrameError(f"frame missing arrow {g}")
        u = frame[g]
        if u.shape != (dim, dim) or not is_unitary(u, eps):
            raise FrameError(f"frame entry at {g} is not a {dim}×{dim} unitary")
    eye = np.eye(dim)
    for x in range(n):
        if operator_norm(frame[(x, x)] - eye) > eps:
            raise FrameError(f"frame unit at ({x},{x}) is not the identity")
    for g in G.arrows():
        if operator_norm(frame[G.inverse(g)] - frame[g].conj().T) > eps:
            raise FrameError(f"frame violates u_(y,x) = u_(x,y)* at {g}")
    if twist is not None:
        if twist.fibre_dim != dim or twist.n_points != n:
            raise LocalTrivialityError(
                "twist dimensions do not match the bundle "
                f"({twist.n_points} pts dim {twist.fibre_dim} vs {n} pts dim {dim})"
            )
        if not twist_is_admissible(twist, eps):
            raise FrameError(
                "twist is not admissible: needs unit-normalized values with "
                "ω(g,h)·conj(ω(h*,g*)) = 1 and ω(g,g*) = 1"
            )
    return FellBundleModel(fibre_dims=E0.fibre_dims, frame=frame, twist=twist)


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


def check_fell_axioms(
    E: FellBundleModel,
    sample_count: int = 200,
    eps: float = DEFAULT_EPS,
    rng: np.random.Generator | None = None,
) -> AxiomReport:
    """Sampled verification of the ten bundle axioms.

    Random fibre elements over random composable pairs and triples.  Only
    the sampled ones are checked, so a defect on one composable pair can be
    missed (the `twisted-8` control of perfbench/README.md is one).
    Failures are reported, never raised.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be ≥ 1")
    if rng is None:
        rng = np.random.default_rng(0)
    G = E.groupoid
    pairs = G.composable_pairs()
    triples = G.composable_triples()
    res = [0.0] * 10

    def bump(i: int, value: float):
        res[i] = max(res[i], float(value))

    for _ in range(sample_count):
        g, h = pairs[rng.integers(len(pairs))]
        t1, t2, t3 = triples[rng.integers(len(triples))]
        e1 = E.random_fibre_element(g, rng)
        e2 = E.random_fibre_element(h, rng)
        f1 = E.random_fibre_element(t1, rng)
        f2 = E.random_fibre_element(t2, rng)
        f3 = E.random_fibre_element(t3, rng)
        lam, mu = random_matrix((1, 1), rng)[0, 0], random_matrix((1, 1), rng)[0, 0]

        # 1: product lands in the fibre over the composed arrow
        gh, prod = E.multiply(g, e1, h, e2)
        ok = gh == G.compose(g, h) and prod.shape == E.fibre_shape(gh)
        bump(0, 0.0 if ok else 1.0)

        # 2: bilinearity in both arguments
        e1b = E.random_fibre_element(g, rng)
        _, left = E.multiply(g, lam * e1 + mu * e1b, h, e2)
        _, la = E.multiply(g, e1, h, e2)
        _, lb = E.multiply(g, e1b, h, e2)
        bump(1, operator_norm(left - (lam * la + mu * lb)))
        e2b = E.random_fibre_element(h, rng)
        _, right = E.multiply(g, e1, h, lam * e2 + mu * e2b)
        _, ra = E.multiply(g, e1, h, e2)
        _, rb = E.multiply(g, e1, h, e2b)
        bump(1, operator_norm(right - (lam * ra + mu * rb)))

        # 3: associativity
        a12, p12 = E.multiply(t1, f1, t2, f2)
        _, left = E.multiply(a12, p12, t3, f3)
        a23, p23 = E.multiply(t2, f2, t3, f3)
        _, right = E.multiply(t1, f1, a23, p23)
        bump(2, operator_norm(left - right))

        # 4: submultiplicativity
        bump(3, max(0.0, operator_norm(prod) - operator_norm(e1) * operator_norm(e2)))

        # 5: involution covers arrow inversion
        gi, e1s = E.involution(g, e1)
        ok = gi == G.inverse(g) and e1s.shape == E.fibre_shape(gi)
        bump(4, 0.0 if ok else 1.0)

        # 6: conjugate linearity
        _, sc = E.involution(g, lam * e1 + mu * e1b)
        _, s1 = E.involution(g, e1)
        _, s2 = E.involution(g, e1b)
        bump(5, operator_norm(sc - (np.conj(lam) * s1 + np.conj(mu) * s2)))

        # 7: e** = e
        _, back = E.involution(gi, e1s)
        bump(6, operator_norm(back - e1))

        # 8: (e1 e2)* = e2* e1*
        _, lhs = E.involution(gh, prod)
        hi, e2s = E.involution(h, e2)
        _, rhs = E.multiply(hi, e2s, gi, e1s)
        bump(7, operator_norm(lhs - rhs))

        # 9: C*-identity ∥e*e∥ = ∥e∥²
        _, ee = E.multiply(gi, e1s, g, e1)
        nrm = operator_norm(e1)
        bump(8, abs(operator_norm(ee) - nrm * nrm) / (1.0 + nrm * nrm))

        # 10: e*e positive in the unit fibre
        herm = operator_norm(ee - ee.conj().T)
        if ee.shape[0] == ee.shape[1] and ee.size:
            min_eig = float(np.min(np.linalg.eigvalsh((ee + ee.conj().T) / 2)))
        else:
            min_eig = 0.0
        bump(9, max(herm, -min_eig, 0.0) / (1.0 + nrm * nrm))

    passed = [res[i] <= eps for i in range(10)]
    return AxiomReport(passed=passed, residuals=res)


def is_saturated(E: FellBundleModel, eps: float = DEFAULT_EPS) -> bool:
    """E_{g₁g₂} = span(E_{g₁}·E_{g₂}) for every composable pair.

    The span dimension is read off the block structure: span{e_rs·X·e_tu} is
    all matrices for X ≠ 0, and a zero fibre spans {0}.  In coefficient form
    ω(g,h)·a·u_g·b·M, M = u_h u_gh*, spans ω(g,h)·M_n·M (dim rank ω · rank M)
    if u_g ≠ 0; u_(x,y) = 0 fails anyway, as M = 0 at the pair ((x,x), (x,y)).
    """
    G = E.groupoid
    for g, h in G.composable_pairs():
        gh = G.compose(g, h)
        if g in E.zero_fibres or h in E.zero_fibres:
            got = 0
        elif E.coefficient_form:
            w = np.eye(E.fibre_dims[0]) if E.twist is None else E.twist.value(g, h)
            m = E.frame[h] @ E.frame[gh].conj().T
            got = rank(w, eps) * rank(m, eps)
        else:
            got = int(np.prod(E.fibre_shape(gh)))
        if got != E.fibre_dim(gh):
            return False
    return True


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

    @property
    def ambient_dim(self) -> int:
        return self.range_algebra.ambient_dim

    def __call__(self, b) -> np.ndarray:
        return self.range_algebra.compress(b)

    def verify(
        self,
        samples: int = 200,
        eps: float = DEFAULT_EPS,
        rng: np.random.Generator | None = None,
    ) -> dict:
        """Check Def.-of-expectation properties plus faithfulness on samples."""
        if rng is None:
            rng = np.random.default_rng(0)
        A = self.range_algebra
        d = A.ambient_dim
        r_fix = r_bimod = r_pos = r_idem = r_contract = 0.0
        faithful = True
        min_faithful_ratio = float("inf")
        for _ in range(samples):
            b = random_matrix((d, d), rng)
            a1 = A.compress(random_matrix((d, d), rng))
            a2 = A.compress(random_matrix((d, d), rng))
            r_fix = max(r_fix, operator_norm(self(a1) - a1))
            r_bimod = max(
                r_bimod, operator_norm(self(a1 @ b @ a2) - a1 @ self(b) @ a2)
            )
            pos = self(b.conj().T @ b)
            if not is_positive_semidefinite(pos, max(eps, 1e-8 * operator_norm(pos))):
                r_pos = max(r_pos, 1.0)
            r_idem = max(r_idem, operator_norm(self(self(b)) - self(b)))
            r_contract = max(
                r_contract, max(0.0, operator_norm(self(b)) - operator_norm(b))
            )
            nb = operator_norm(b)
            if nb > 0:
                ratio = operator_norm(pos) / (nb * nb)
                min_faithful_ratio = min(min_faithful_ratio, ratio)
                if ratio <= eps:
                    faithful = False
        return {
            "fixes_range": (r_fix <= eps, r_fix),
            "bimodule": (r_bimod <= eps, r_bimod),
            "positive": (r_pos <= eps, r_pos),
            "idempotent": (r_idem <= eps, r_idem),
            "contractive": (r_contract <= eps, r_contract),
            "faithful": (faithful, min_faithful_ratio),
            "uniqueness": "assumed",
        }


def restriction_expectation(E: FellBundleModel) -> ConditionalExpectation:
    """P: C*(E) → C*(E⁰), restriction to the diagonal blocks."""
    return ConditionalExpectation(range_algebra=diagonal_algebra(E))
