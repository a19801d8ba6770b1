import itertools
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pytest

import fellkit.linalg
from fellkit.algebra import FiniteCStarAlgebra, make_algebra
from fellkit.cocycle import Cocycle2, cocycle_identity_residual, make_twist
from fellkit.fellbundle import (
    CStarBundle,
    ConditionalExpectation,
    FellBundleModel,
    FrameError,
    LocalTrivialityError,
    _zero_fibre_mask,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
    check_fell_axioms,
    diagonal_algebra,
    enveloping_algebra,
    identity_frame,
    is_saturated,
    restriction_expectation,
)
from fellkit.groupoid import PairGroupoid
from fellkit.linalg import (
    as_matrix,
    haar_unitary,
    is_unitary,
    operator_norm,
    operator_norms,
    span_dimension,
)
from fellkit.presets import flow_frame, random_symmetric_frame
from fellkit.serialize import model_from_json

from helpers import (
    TWISTED_5,
    composable_triples,
    probe_expectation,
    random_fibre_element,
    random_matrix,
    traced_peak_bytes,
    twist_from_phases,
    unchecked_cocycle,
)
from kron_oracle import kron_twist_residuals


def rng_for(seed):
    return np.random.default_rng(seed)


def test_cstar_bundle_basics():
    E0 = CStarBundle((2, 1, 3))
    assert E0.n_points == 3
    assert not E0.is_locally_trivial()
    assert CStarBundle((2, 2)).is_locally_trivial()
    with pytest.raises(ValueError):
        CStarBundle(())


def test_imprimitivity_axioms():
    E = build_imprimitivity_bundle((2, 1, 3))
    report = check_fell_axioms(E)
    assert report.all_passed
    assert max(report.residuals) < 1e-9


def test_semidirect_identity_frame_axioms():
    E = build_semidirect_bundle(CStarBundle((2, 2, 2)))
    report = check_fell_axioms(E)
    assert report.all_passed


def test_semidirect_random_frame_axioms():
    frame = random_symmetric_frame(4, 2, rng_for(7))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    report = check_fell_axioms(E)
    assert report.all_passed
    assert max(report.residuals) < 1e-9


def test_semidirect_twisted_axioms():
    rng = rng_for(9)
    theta = rng.uniform(-2, 2, size=(3, 3))
    twist = twist_from_phases(theta - theta.T, fibre_dim=2)
    frame = random_symmetric_frame(3, 2, rng)
    E = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame, twist=twist)
    report = check_fell_axioms(E)
    assert report.all_passed


def test_builder_rejections():
    with pytest.raises(LocalTrivialityError):
        build_semidirect_bundle(CStarBundle((2, 1)))
    frame = identity_frame(2, 2)
    frame[(0, 0)] = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(FrameError):
        build_semidirect_bundle(CStarBundle((2, 2)), frame=frame)
    frame = identity_frame(2, 2)
    frame[(0, 1)] = 2.0 * np.eye(2)
    with pytest.raises(FrameError):
        build_semidirect_bundle(CStarBundle((2, 2)), frame=frame)
    # inadmissible twist: w(g,g*) = -1
    bad = make_twist(2, 1, {((0, 1), (1, 0)): -1})
    with pytest.raises(FrameError):
        build_semidirect_bundle(CStarBundle((1, 1)), twist=bad)


def test_inadmissible_twist_error_names_the_checked_rule():
    """ω = i on ((0,1),(1,2)) and on its mirror keeps ω(g,h)·conj(ω(h*,g*))
    = 1, but breaks the rule the builder checks, ω(g,h)·ω(h*,g*) = 1."""
    g, h = (0, 1), (1, 2)
    twist = make_twist(3, 1, {(g, h): 1j, ((2, 1), (1, 0)): 1j})
    w, mirror = twist.value(g, h)[0, 0], twist.value((2, 1), (1, 0))[0, 0]
    assert w * np.conj(mirror) == 1 and w * mirror == -1
    with pytest.raises(FrameError) as excinfo:
        build_semidirect_bundle(CStarBundle((1, 1, 1)), twist=twist)
    assert str(excinfo.value) == (
        "twist is not admissible: needs unit-normalized values with "
        "ω(g,h)·ω(h*,g*) = 1 and ω(g,g*) = 1")


def loop_frame_error(frame, n, dim, eps=1e-9):
    """The FrameError text of the per-arrow frame checks that the stacked
    ones replaced, or None for a valid frame."""
    G = PairGroupoid(n)
    for g in G.arrows():
        u = frame[g]
        if u.shape != (dim, dim) or not is_unitary(u, eps):
            return f"frame entry at {g} is not a {dim}×{dim} unitary"
    eye = np.eye(dim)
    for x in range(n):
        if operator_norm(frame[(x, x)] - eye) > eps:
            return f"frame unit at ({x},{x}) is not the identity"
    for g in G.arrows():
        if operator_norm(frame[G.inverse(g)] - frame[g].conj().T) > eps:
            return f"frame violates u_(y,x) = u_(x,y)* at {g}"
    return None


def frame_cases():
    """(name, frame): valid frames and frames broken in one or more ways."""
    yield "random-3x2", random_symmetric_frame(3, 2, rng_for(2))
    yield "flow-4x2", flow_frame(4, 2, rng_for(3))[0]
    broken = random_symmetric_frame(3, 2, rng_for(4))
    broken[(1, 1)] = np.diag([1.0, -1.0])  # unitary and self-adjoint
    yield "non-identity-unit", broken
    rng = rng_for(7)
    broken = random_symmetric_frame(3, 2, rng)
    broken[(1, 0)] = haar_unitary(2, rng)  # no longer the adjoint of u_(0,1)
    yield "broken-involution", broken
    broken = random_symmetric_frame(3, 1, rng_for(5))
    broken[(2, 0)] = -broken[(2, 0)]
    yield "broken-involution-at-0-2", broken
    broken = random_symmetric_frame(4, 2, rng_for(6))
    broken[(3, 3)] = -np.eye(2)
    broken[(2, 1)] = 2.0 * broken[(2, 1)]
    yield "non-unitary-before-unit", broken


FRAME_CASES = dict(frame_cases())


@pytest.mark.parametrize("name", FRAME_CASES)
def test_frame_checks_match_arrow_loop(name):
    frame = FRAME_CASES[name]
    n, dim = frame.shape[0], frame.shape[-1]
    want = loop_frame_error({g: frame[g] for g in np.ndindex(n, n)}, n, dim)
    assert (want is None) == name.startswith(("random", "flow"))
    if want is None:
        build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        return
    with pytest.raises(FrameError) as excinfo:
        build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
    assert str(excinfo.value) == want


def test_negative_control_broken_involution_frame():
    """A frame violating u_(y,x) = u_(x,y)* breaks axiom 8."""
    report = check_fell_axioms(broken_involution_frame())
    assert not report.all_passed
    assert 8 in report.failed_axioms()


def test_negative_control_non_cocycle_twist():
    """A twist failing the cocycle identity breaks associativity (axiom 3)."""
    values = {
        ((0, 1), (1, 2)): -1,
        ((2, 1), (1, 0)): -1,  # keeps the involution relation intact
    }
    twist = make_twist(3, 1, values)
    E = FellBundleModel(fibre_dims=(1, 1, 1), frame=identity_frame(3, 1),
                        twist=twist)
    report = check_fell_axioms(E)
    assert 3 in report.failed_axioms()
    assert 8 not in report.failed_axioms()


def test_multiply_and_involution_shapes():
    E = build_imprimitivity_bundle((2, 1, 3))
    rng = rng_for(4)
    e1 = random_fibre_element(E, (0, 1), rng)
    e2 = random_fibre_element(E, (1, 2), rng)
    gh, prod = E.multiply((0, 1), e1, (1, 2), e2)
    assert gh == (0, 2)
    assert prod.shape == (2, 3)
    gi, star = E.involution((0, 2), prod)
    assert gi == (2, 0)
    assert star.shape == (3, 2)
    with pytest.raises(ValueError):
        E.multiply((0, 1), e1, (2, 0), np.zeros((3, 2)))


def test_embed_block_round_trip_coefficient_form():
    frame = random_symmetric_frame(3, 2, rng_for(5))
    E = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame)
    rng = rng_for(6)
    a = random_fibre_element(E, (0, 2), rng)
    amb = E.embed((0, 2), a)
    # read back: the (0, 2) block times u_(0,2)*
    assert np.allclose(diagonal_algebra(E).blocks(amb)[0, 2] @ frame[0, 2].conj().T, a)
    # embedding intertwines fibre product and ambient matrix product
    b = random_fibre_element(E, (2, 1), rng)
    gh, prod = E.multiply((0, 2), a, (2, 1), b)
    assert gh == (0, 1)
    assert np.allclose(E.embed(gh, prod), E.embed((0, 2), a) @ E.embed((2, 1), b))


def test_saturation():
    assert is_saturated(build_imprimitivity_bundle((2, 1, 3)))
    frame = random_symmetric_frame(3, 2, rng_for(8))
    assert is_saturated(build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame))
    zeroed = FellBundleModel(fibre_dims=(2, 1), zero_fibres=frozenset({(0, 1)}))
    assert not is_saturated(zeroed)


def span_loop_saturated(E, eps=1e-9):
    """The definition: over every composable pair, the products of the two
    fibre bases span a space of the dimension of the fibre over gh."""
    G = E.groupoid
    for g, h in G.composable_pairs():
        products = [E.multiply(g, a, h, b)[1]
                    for a in E.fibre_basis(g) for b in E.fibre_basis(h)]
        if span_dimension(products, eps) != E.fibre_dim(G.compose(g, h)):
            return False
    return True


def twisted_semidirect(seed):
    rng = rng_for(seed)
    theta = rng.uniform(-2, 2, size=(3, 3))
    return build_semidirect_bundle(
        CStarBundle((2, 2, 2)), frame=random_symmetric_frame(3, 2, rng),
        twist=twist_from_phases(theta - theta.T, fibre_dim=2),
    )


def frame_with(entry, value):
    frame = random_symmetric_frame(3, 2, rng_for(21))
    frame[entry] = value
    return FellBundleModel(fibre_dims=(2, 2, 2), frame=frame)


def twist_with(value):
    twist = unchecked_cocycle(3, 2, {((0, 1), (1, 2)): value})
    return FellBundleModel(fibre_dims=(2, 2, 2), frame=identity_frame(3, 2),
                           twist=twist)


ALL_ARROWS_3 = frozenset((x, y) for x in range(3) for y in range(3))
SATURATION_CASES = {
    "imprimitivity-2,1,3": (build_imprimitivity_bundle((2, 1, 3)), True),
    **{
        f"semidirect-seed{seed}": (
            build_semidirect_bundle(
                CStarBundle((2,) * 3), frame=random_symmetric_frame(3, 2, rng_for(seed))
            ),
            True,
        )
        for seed in range(3)
    },
    **{f"twisted-seed{seed}": (twisted_semidirect(seed), True) for seed in range(3)},
    # zero fibres as factors
    "zero-g-or-h": (FellBundleModel((2, 1), zero_fibres=frozenset({(0, 1)})), False),
    "zero-coefficient-fibre": (
        FellBundleModel((2, 2, 2), frame=identity_frame(3, 2),
                        zero_fibres=frozenset({(1, 2)})),
        False,
    ),
    # (0,2) is also the product of the nonzero fibres (0,1) and (1,2)
    "zero-gh": (FellBundleModel((2, 1, 3), zero_fibres=frozenset({(0, 2)})), False),
    # every product space and every fibre is {0}
    "all-zero": (FellBundleModel((2, 1, 3), zero_fibres=ALL_ARROWS_3), True),
    # every arrow out of point 0 is zero: a zero first factor always meets a
    # zero product fibre, but E_(1,0)·E_(0,2) = 0 misses E_(1,2)
    "zero-row": (FellBundleModel((2, 1, 3), zero_fibres=frozenset(
        (0, y) for y in range(3))), False),
    "singular-frame-entry": (frame_with((0, 1), np.diag([1.0, 0.0])), False),
    "zero-frame-entry": (frame_with((0, 1), np.zeros((2, 2))), False),
    # the rank rule is relative: a rescaled frame entry still spans
    "tiny-frame-entry": (frame_with((0, 1), 1e-12 * np.eye(2)), True),
    # a twist value is read as its scalar: 0 spans nothing, and the rank rule
    # is relative, so a tiny one still spans
    "zero-twist-value": (twist_with(np.zeros((2, 2))), False),
    "tiny-twist-value": (twist_with(1e-12 * np.eye(2)), True),
}


@pytest.mark.parametrize("name", SATURATION_CASES)
def test_is_saturated_matches_span_loop(name):
    E, expected = SATURATION_CASES[name]
    assert span_loop_saturated(E) == expected
    assert is_saturated(E) == expected


def test_is_saturated_forms_no_products(monkeypatch):
    calls = []

    def counted(run):
        def wrapper(*args, **kwargs):
            calls.append(run.__name__)
            return run(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FellBundleModel, "multiply", counted(FellBundleModel.multiply))
    # every binding of span_dimension, the oracle's in this module included
    original = fellkit.linalg.span_dimension
    for name, module in list(sys.modules.items()):
        if ((name.startswith("fellkit") or name == __name__)
                and getattr(module, "span_dimension", None) is original):
            monkeypatch.setattr(module, "span_dimension", counted(original))
    for E, expected in SATURATION_CASES.values():
        assert is_saturated(E) == expected
    assert calls == []
    span_loop_saturated(build_imprimitivity_bundle((2, 1)))
    assert {"multiply", "span_dimension"} <= set(calls)


def test_algebra_extraction():
    E = build_imprimitivity_bundle((2, 1, 3))
    assert diagonal_algebra(E).block_dims == (2, 1, 3)
    assert enveloping_algebra(E).block_dims == (6,)


def kernel_basis(A):
    """The matrix units outside the blocks of A: a basis of ker P."""
    B = FiniteCStarAlgebra((A.ambient_dim,))
    return [e for e in B.basis() if not A.contains(e)]


def test_expectation_kernel_dims():
    # masa in M_4: kernel dimension 16 - 4 = 12
    P = restriction_expectation(build_imprimitivity_bundle((1, 1, 1, 1)))
    kernel = kernel_basis(P.range_algebra)
    assert len(kernel) == 12
    assert span_dimension(kernel) == 12
    assert all(operator_norm(P(k)) == 0.0 for k in kernel)
    # M_2 ⊕ M_1 inside M_3: kernel dimension 9 - 5 = 4
    P = restriction_expectation(build_imprimitivity_bundle((2, 1)))
    assert len(kernel_basis(P.range_algebra)) == 4


def test_expectation_contract():
    from fellkit.algebra import make_algebra

    P = ConditionalExpectation(make_algebra([2, 1, 3]))
    report = P.verify()
    for key in ("fixes_range", "bimodule", "positive", "idempotent",
                "contractive", "faithful"):
        ok, residual = report[key]
        assert ok, (key, residual)
    assert report["uniqueness"] == "assumed"
    for key in ("fixes_range", "bimodule", "positive", "idempotent",
                "contractive"):
        assert report[key][1] < 1e-9


def test_expectation_is_faithful_on_off_block_elements():
    """P(b*b) ≠ 0 for b ≠ 0 even when b lies in ker P: the matrix unit e_01
    outside the blocks of M_1 ⊕ M_1 has P(b*b) = diag(0, 1)."""
    from fellkit.algebra import make_algebra

    A = make_algebra([1, 1])
    b = np.zeros((2, 2), dtype=complex)
    b[0, 1] = 1.0
    assert operator_norm(A.compress(b)) == 0.0
    assert operator_norm(A.compress(b.conj().T @ b) - np.diag([0.0, 1.0])) < 1e-12


# --- the axiom suite and the expectation probe against per-sample loops -----


def per_sample_fell_axioms(E, sample_count=200, eps=1e-9, rng=None,
                           exhaustive=False):
    """``sampled_fell_axioms`` on the draws of one rng (default seed 0)."""
    if rng is None:
        rng = np.random.default_rng(0)
    return sampled_fell_axioms(E, [rng], sample_count, eps, exhaustive)[0]


def sampled_fell_axioms(E, rngs, sample_count=200, eps=1e-9, exhaustive=False):
    """Oracle: the ten axioms on random fibre elements, one sample at a time,
    each residual read off operator norms; (passed, residuals) per rng.  A
    sample is a composable pair and a composable triple, drawn from its
    rng; with exhaustive=True the samples are instead every triple
    (t1, t2, t3) with the pair (t1, t2), so every pair and every triple is
    visited.  A product or an involution must land in its fibre, which
    holds only 0 if the fibre is zero.  The products and involutions are
    formed one element at a time, in each rng's order of draws; the
    matrices whose norms the residuals read are kept, and every rng's are
    normed at the end in one stacked SVD per shape."""
    G = E.groupoid
    pairs = G.composable_pairs()
    triples = composable_triples(G)
    mats = []  # the matrices whose operator norms the residuals read
    rows = []  # (rng index, axiom index, residual as a function of the norms)

    def norm(m):
        mats.append(m)
        return len(mats) - 1

    def bump(k, i, residual):
        rows.append((k, i, residual))

    def in_fibre(g, e):
        return e.shape == E.fibre_shape(g) and (
            E.fibre_dim(g) > 0 or operator_norm(e) <= eps)

    def samples(rng):
        if exhaustive:
            for t in triples:
                yield t[:2], t
            return
        for _ in range(sample_count):
            pair = pairs[rng.integers(len(pairs))]
            yield pair, triples[rng.integers(len(triples))]

    for k, rng in enumerate(rngs):
        for (g, h), (t1, t2, t3) in samples(rng):
            e1 = random_fibre_element(E, g, rng)
            e2 = random_fibre_element(E, h, rng)
            f1 = random_fibre_element(E, t1, rng)
            f2 = random_fibre_element(E, t2, rng)
            f3 = random_fibre_element(E, t3, rng)
            lam, mu = random_matrix((1, 1), rng)[0, 0], random_matrix((1, 1), rng)[0, 0]

            gh, prod = E.multiply(g, e1, h, e2)
            ok = gh == G.compose(g, h) and in_fibre(gh, prod)
            bump(k, 0, lambda v, ok=ok: 0.0 if ok else 1.0)

            e1b = random_fibre_element(E, g, rng)
            _, left = E.multiply(g, lam * e1 + mu * e1b, h, e2)
            _, la = E.multiply(g, e1, h, e2)
            _, lb = E.multiply(g, e1b, h, e2)
            bump(k, 1, lambda v, a=norm(left - (lam * la + mu * lb)): v[a])
            e2b = random_fibre_element(E, h, rng)
            _, right = E.multiply(g, e1, h, lam * e2 + mu * e2b)
            _, ra = E.multiply(g, e1, h, e2)
            _, rb = E.multiply(g, e1, h, e2b)
            bump(k, 1, lambda v, a=norm(right - (lam * ra + mu * rb)): v[a])

            a12, p12 = E.multiply(t1, f1, t2, f2)
            _, left = E.multiply(a12, p12, t3, f3)
            a23, p23 = E.multiply(t2, f2, t3, f3)
            _, right = E.multiply(t1, f1, a23, p23)
            bump(k, 2, lambda v, a=norm(left - right): v[a])

            n1 = norm(e1)
            bump(k, 3, lambda v, p=norm(prod), a=n1, b=norm(e2): max(0.0, v[p] - v[a] * v[b]))

            gi, e1s = E.involution(g, e1)
            ok = gi == G.inverse(g) and in_fibre(gi, e1s)
            bump(k, 4, lambda v, ok=ok: 0.0 if ok else 1.0)

            _, sc = E.involution(g, lam * e1 + mu * e1b)
            _, s1 = E.involution(g, e1)
            _, s2 = E.involution(g, e1b)
            bump(k, 5, lambda v, a=norm(sc - (np.conj(lam) * s1 + np.conj(mu) * s2)): v[a])

            _, back = E.involution(gi, e1s)
            bump(k, 6, lambda v, a=norm(back - e1): v[a])

            _, lhs = E.involution(gh, prod)
            hi, e2s = E.involution(h, e2)
            _, rhs = E.multiply(hi, e2s, gi, e1s)
            bump(k, 7, lambda v, a=norm(lhs - rhs): v[a])

            _, ee = E.multiply(gi, e1s, g, e1)
            bump(k, 8, lambda v, a=norm(ee), n=n1:
                 abs(v[a] - v[n] * v[n]) / (1.0 + v[n] * v[n]))

            if ee.shape[0] == ee.shape[1] and ee.size:
                min_eig = float(np.min(np.linalg.eigvalsh((ee + ee.conj().T) / 2)))
            else:
                min_eig = 0.0
            bump(k, 9, lambda v, a=norm(ee - ee.conj().T), m=min_eig, n=n1:
                 max(v[a], -m, 0.0) / (1.0 + v[n] * v[n]))

    values = np.zeros(len(mats))
    shapes = {}
    for a, m in enumerate(mats):
        shapes.setdefault(m.shape, []).append(a)
    for at in shapes.values():
        values[at] = operator_norms(np.array([mats[a] for a in at]))
    res = np.zeros((len(rngs), 10))
    for k, i, residual in rows:
        res[k, i] = max(res[k, i], float(residual(values)))
    return [([r[i] <= eps for i in range(10)], list(r)) for r in res]


def is_positive_semidefinite(m, eps=1e-9):
    """True iff m is (numerically) Hermitian with spectrum ≥ -eps.

    Raises ValueError for non-square input.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"positivity needs a square matrix, got shape {a.shape}")
    if operator_norm(a - a.conj().T) > eps:
        return False
    herm = (a + a.conj().T) / 2
    return bool(np.min(np.linalg.eigvalsh(herm)) >= -eps)


def test_positivity():
    assert is_positive_semidefinite(np.eye(3))
    assert is_positive_semidefinite(np.zeros((2, 2)))
    assert not is_positive_semidefinite(-np.eye(2))
    assert not is_positive_semidefinite([[0, 1], [0, 0]])  # not Hermitian
    m = random_matrix((3, 3), rng_for(3))
    assert is_positive_semidefinite(m.conj().T @ m, 1e-8)
    with pytest.raises(ValueError):
        is_positive_semidefinite(np.ones((2, 3)))


def per_sample_verify(P, samples=200, eps=1e-9, rng=None):
    """Oracle: the expectation contract on `samples` random draws, one at a
    time.  Sampling can miss a failure but never invents one, so every
    property it fails, the probe on the matrix units must fail too."""
    if rng is None:
        rng = np.random.default_rng(0)
    A = P.range_algebra
    d = A.ambient_dim
    r_fix = r_bimod = r_pos = r_idem = r_contract = 0.0
    faithful = True
    min_faithful_ratio = float("inf")
    for _ in range(samples):
        b = random_matrix((d, d), rng)
        a1 = A.compress(random_matrix((d, d), rng))
        a2 = A.compress(random_matrix((d, d), rng))
        r_fix = max(r_fix, operator_norm(P(a1) - a1))
        r_bimod = max(r_bimod, operator_norm(P(a1 @ b @ a2) - a1 @ P(b) @ a2))
        pos = P(b.conj().T @ b)
        if not is_positive_semidefinite(pos, max(eps, 1e-8 * operator_norm(pos))):
            r_pos = max(r_pos, 1.0)
        r_idem = max(r_idem, operator_norm(P(P(b)) - P(b)))
        r_contract = max(r_contract, max(0.0, operator_norm(P(b)) - operator_norm(b)))
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


def broken_involution_frame():
    rng = rng_for(3)
    frame = random_symmetric_frame(3, 2, rng)
    frame[(1, 0)] = haar_unitary(2, rng)  # no longer the adjoint of u_(0,1)
    return FellBundleModel(fibre_dims=(2, 2, 2), frame=frame)


SAMPLED_MODELS = {
    "imprimitivity-2,1,3": build_imprimitivity_bundle((2, 1, 3)),
    "imprimitivity-3,1,4,2": build_imprimitivity_bundle((3, 1, 4, 2)),
    "semidirect-identity": build_semidirect_bundle(CStarBundle((2, 2, 2))),
    "semidirect-random": build_semidirect_bundle(
        CStarBundle((2,) * 4), frame=random_symmetric_frame(4, 2, rng_for(7))),
    "semidirect-twisted": twisted_semidirect(9),
    "zero-fibre": FellBundleModel((2, 1, 3), zero_fibres=frozenset({(0, 2)})),
    "broken-involution": broken_involution_frame(),
    "non-cocycle": FellBundleModel(
        fibre_dims=(1, 1, 1), frame=identity_frame(3, 1),
        twist=make_twist(3, 1, {((0, 1), (1, 2)): -1, ((2, 1), (1, 0)): -1})),
}
SAMPLE_COUNTS = (1, 15, 16, 17, 200)


def failed(passed):
    return {i + 1 for i, ok in enumerate(passed) if not ok}


def twisted_8(seed):
    """The benchmark's twisted control: on 8 points, a phase drawn from the
    seed on the pair ((1,2),(2,5)) (1-indexed) and its conjugate on the
    mirror pair.  Admissible, but not a cocycle."""
    theta = random.Random(seed).uniform(0.5, 2.5)
    doc = {
        "points": 8,
        "fibre_dims": [1] * 8,
        "twist": {"((1,2),(2,5))": [math.cos(theta), math.sin(theta)],
                  "((5,2),(2,1))": [math.cos(theta), -math.sin(theta)]},
    }
    return model_from_json(doc)[0]


def phase_on_one_pair(zero_fibres):
    """Two points of dimension 2, the identity frame and the phase i on the
    pair ((0,1),(1,1)) alone: neither a cocycle nor admissible."""
    return FellBundleModel(
        fibre_dims=(2, 2), frame=identity_frame(2, 2),
        twist=make_twist(2, 2, {((0, 1), (1, 1)): 1j * np.eye(2)}),
        zero_fibres=frozenset(zero_fibres))


EXHAUSTIVE_MODELS = {
    **SAMPLED_MODELS,
    "twisted-5": model_from_json(TWISTED_5)[0],
    # admissible, but a non-scalar twist value does not commute with the
    # coefficients it multiplies: associativity and (ab)* = b*a* fail.
    # make_twist refuses it, so it is built directly; the suite folds
    # ‖ω − ω₀₀·I‖ into 3 and 8
    "diagonal-twist": FellBundleModel(
        fibre_dims=(2, 2, 2), frame=random_symmetric_frame(3, 2, rng_for(5)),
        twist=unchecked_cocycle(3, 2, {((0, 1), (1, 2)): np.diag([1, 1j]),
                                       ((2, 1), (1, 0)): np.diag([1, -1j])})),
    # the phase sits on a pair through the zero fibre (0,1), whose elements
    # are all 0, so every axiom holds: M_2 ⊕ M_2 as a bundle
    "phase-through-zero-fibre": phase_on_one_pair({(0, 1), (1, 0)}),
    # the control: with (0,1) nonzero the same phase breaks 3 and 8
    "phase-on-live-pair": phase_on_one_pair(set()),
}


@pytest.mark.parametrize("name", EXHAUSTIVE_MODELS)
def test_fell_axioms_match_exhaustive_loop(name):
    """The decided axioms fail exactly where the loop over every composable
    pair and triple fails them."""
    E = EXHAUSTIVE_MODELS[name]
    assert E.n_points <= 5
    report = check_fell_axioms(E)
    passed, _ = per_sample_fell_axioms(E, rng=rng_for(0), exhaustive=True)
    assert set(report.failed_axioms()) == failed(passed)


EXPECTED_FAILURES = {
    "zero-fibre": {1, 5},  # E_(0,1)·E_(1,2) and E_(2,0)* land in E_(0,2) = 0
    "broken-involution": {7, 8, 10},
    "non-cocycle": {3},
    "twisted-5": {3},
    "diagonal-twist": {3, 8},
    "phase-on-live-pair": {3, 8},
}


@pytest.mark.parametrize("name", EXHAUSTIVE_MODELS)
def test_fell_axioms_failures_by_model(name):
    report = check_fell_axioms(EXHAUSTIVE_MODELS[name])
    assert set(report.failed_axioms()) == EXPECTED_FAILURES.get(name, set())
    assert {type(r) for r in report.residuals} == {float}
    assert {type(p) for p in report.passed} == {bool}
    for i in (2, 6):  # bilinearity and conjugate linearity hold identically
        assert report.residuals[i - 1] == 0.0


def basis_map_residuals(E):
    """Oracle for a bundle with the identity frame: the largest operator
    norm of the matrix of a ↦ (a·1)·1 − a·(1·1) over every composable
    triple, and of X ↦ (X*·1)* − 1*·X over every composable pair, each built
    column by column from multiply and involution on the fibre basis."""
    G, one = E.groupoid, np.eye(E.fibre_dims[0])
    basis = E.fibre_basis((0, 0))
    assoc = antimultiplicative = 0.0
    for t1, t2, t3 in composable_triples(G):
        cols = []
        for a in basis:
            _, left = E.multiply(*E.multiply(t1, a, t2, one), t3, one)
            _, right = E.multiply(t1, a, *E.multiply(t2, one, t3, one))
            cols.append((left - right).reshape(-1))
        assoc = max(assoc, operator_norm(np.array(cols).T))
    for g, h in G.composable_pairs():
        cols = []
        for x in basis:
            _, lhs = E.involution(*E.multiply(g, x.conj().T, h, one))
            _, rhs = E.multiply(*E.involution(h, one), *E.involution(g, x.conj().T))
            cols.append((lhs - rhs).reshape(-1))
        antimultiplicative = max(antimultiplicative, operator_norm(np.array(cols).T))
    return assoc, antimultiplicative


def identity_frame_twisted(values, dim):
    return FellBundleModel(fibre_dims=(dim,) * 3, frame=identity_frame(3, dim),
                           twist=unchecked_cocycle(3, dim, values))


TWISTED_IDENTITY_FRAMES = {
    "non-cocycle": SAMPLED_MODELS["non-cocycle"],
    "twisted-5": EXHAUSTIVE_MODELS["twisted-5"],
    "diagonal": identity_frame_twisted(
        {((0, 1), (1, 2)): np.diag([1, 1j]), ((2, 1), (1, 0)): np.diag([1, -1j])}, 2),
    # not a twist at all: a Gaussian 3×3 matrix on every pair.  Only such
    # values tell W from Wᵀ by norm: for unitary values the norm depends on
    # spectra alone, and a 2×2 matrix is unitarily similar to its transpose.
    "gaussian-values": FellBundleModel(
        fibre_dims=(3, 3, 3), frame=identity_frame(3, 3),
        twist=Cocycle2(random_matrix((81, 3), rng_for(12)).reshape(3, 3, 3, 3, 3))),
}


@pytest.mark.parametrize("name", TWISTED_IDENTITY_FRAMES)
def test_coefficient_residuals_match_basis_maps(name):
    """On scalar twists the residuals of axioms 3 and 8 are the operator
    norms of the maps they stand for.  Values that are not scalar break the
    reduction to the scalar identity: 3 and 8 fail as the maps do, on the
    folded ‖ω − ω₀₀·I‖."""
    E = TWISTED_IDENTITY_FRAMES[name]
    report = check_fell_axioms(E)
    assoc, antimultiplicative = basis_map_residuals(E)
    assert assoc > 1e-9 and 3 in report.failed_axioms()
    assert (8 in report.failed_axioms()) == (antimultiplicative > 1e-9)
    if name in ("diagonal", "gaussian-values"):
        return
    assert report.residuals[2] == pytest.approx(assoc, rel=1e-12)
    assert report.residuals[7] == pytest.approx(antimultiplicative, rel=1e-12,
                                                abs=1e-15)


def scalar_coboundary(n, d, seed):
    """A random scalar coboundary twist under a flow frame."""
    rng = rng_for(seed)
    frame = flow_frame(n, d, rng)[0]
    theta = rng.uniform(-2, 2, size=(n, n))
    return build_semidirect_bundle(CStarBundle((d,) * n), frame=frame,
                                   twist=twist_from_phases(theta - theta.T, fibre_dim=d))


KRON_ORACLE_MODELS = {
    "twisted-5": EXHAUSTIVE_MODELS["twisted-5"],
    **{f"twisted-8-seed{seed}": twisted_8(seed) for seed in range(1, 11)},
    "non-cocycle": SAMPLED_MODELS["non-cocycle"],
    "phase-on-live-pair": EXHAUSTIVE_MODELS["phase-on-live-pair"],
    "phase-through-zero-fibre": EXHAUSTIVE_MODELS["phase-through-zero-fibre"],
    **{f"coboundary-{n}x{d}": scalar_coboundary(n, d, 10 * n + d)
       for d in (1, 2, 3, 4) for n in (3, 5)},
}
# the scalar identity and its Kronecker form differ by at most 0.5 ulp of 1.0
# on these models, and 1 ulp on other seeds tried (numpy 2.4.6); the suite's
# residuals, in which the frame's defects dominate at rounding size, equal
# the folded Kronecker forms bit for bit on these models
KRON_BOUND = 2 * np.finfo(float).eps


@pytest.mark.parametrize("name", KRON_ORACLE_MODELS)
def test_scalar_twist_terms_match_the_kronecker_oracle(name):
    """On a scalar twist, axiom 3's twist term is the cocycle identity on the
    scalars and axiom 8's is |conj ω(g,h) − ω(h*,g*)|: the d²×d² Kronecker
    forms they replaced (``kron_oracle``) give the same verdicts, and
    residuals within KRON_BOUND."""
    E = KRON_ORACLE_MODELS[name]
    live = ~_zero_fibre_mask(E)
    assoc, antimultiplicative = kron_twist_residuals(E)
    w = E.twist.values[..., 0, 0]
    identity = cocycle_identity_residual(Cocycle2(w[..., None, None]), live)
    assert abs(identity - assoc) <= KRON_BOUND
    # both forms are folded with the frame's defects
    unitary = np.max(E.audit.unitarity, where=live, initial=0.0)
    involution = max(unitary, np.max(E.audit.defects[1], where=live, initial=0.0))
    report = check_fell_axioms(E)
    for got, want in ((report.residuals[2], max(unitary, assoc)),
                      (report.residuals[7], max(involution, antimultiplicative))):
        assert abs(got - want) <= KRON_BOUND
        assert (got <= 1e-9) == (want <= 1e-9)
    assert (3 in report.failed_axioms()) == (name.startswith(("twisted", "non-", "phase-on")))


@pytest.mark.parametrize("count", SAMPLE_COUNTS)
@pytest.mark.parametrize("name", SAMPLED_MODELS)
def test_fell_axioms_match_per_sample_loop(name, count):
    """Every axiom the per-sample loop fails on `count` draws, the suite
    fails too."""
    E = SAMPLED_MODELS[name]
    report = check_fell_axioms(E)
    passed, _ = per_sample_fell_axioms(E, count, rng=rng_for(count))
    assert failed(passed) <= set(report.failed_axioms())


@pytest.mark.parametrize("name", SAMPLED_MODELS)
def test_fell_axioms_contain_sampled_failures(name):
    E = SAMPLED_MODELS[name]
    report = check_fell_axioms(E)
    draws = sampled_fell_axioms(E, [rng_for(seed) for seed in range(6)], 200)
    for seed, (passed, _) in enumerate(draws):
        assert failed(passed) <= set(report.failed_axioms()), seed


def test_twisted_8_fails_associativity_for_every_seed():
    """A phase on one of the 512 composable pairs (and on its mirror) fails
    axiom 3 whatever the seed; the twist is admissible, so axiom 8 holds."""
    for seed in range(1, 11):
        report = check_fell_axioms(twisted_8(seed))
        assert report.failed_axioms() == [3], seed


def test_fell_axioms_build_no_index_lists(monkeypatch):
    """The decided axioms are read off the zero-fibre set and the frame and
    twist arrays: the suite lists no composable pairs or triples and forms
    no product or involution one element at a time."""
    want = {name: check_fell_axioms(E)
            for name, E in EXHAUSTIVE_MODELS.items()}

    def refuse(*args):
        raise AssertionError("an index list or a single product was built")

    monkeypatch.setattr(PairGroupoid, "composable_pairs", refuse)
    monkeypatch.setattr(FellBundleModel, "multiply", refuse)
    monkeypatch.setattr(FellBundleModel, "involution", refuse)
    for name, E in EXHAUSTIVE_MODELS.items():
        report = check_fell_axioms(E)
        assert (report.passed, report.residuals) == (want[name].passed,
                                                     want[name].residuals)


def test_fell_axioms_norm_kernel_calls(monkeypatch):
    """Counted as calls of the norm kernel, each at most one stacked SVD: on
    d = 1 models the kernel norms every 1×1 stack without LAPACK, so LAPACK
    calls alone would count nothing there.  The frame's norms are its
    audit's, computed before counting (``tests/test_audit.py`` counts them
    once per report).  The plain product norms nothing; coefficient form
    takes two calls, and a twist adds one per first point of the cocycle
    identity's triples and four more: its values off their scalars, its
    mirror defects, ω((y,x),(x,y))'s unitarity and its moduli."""
    kernel = fellkit.linalg._largest_singular_values
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(fellkit.linalg, "_largest_singular_values", counted)
    for name, E in EXHAUSTIVE_MODELS.items():
        if E.audit is not None:
            E.audit.unitarity, E.audit.defects, E.audit.values, E.audit.transport
        calls.clear()
        check_fell_axioms(E)
        want = (0 if not E.coefficient_form else 2 if E.twist is None
                else E.n_points + 6)
        assert len(calls) == want, name


def test_submultiplicativity_residual_is_the_unit_ball_supremum():
    """With u_(0,1) doubled, axiom 4's residual is the largest
    ‖ω(g,h)‖‖u_g‖‖u_h u_gh*‖ less 1, and rank-one elements attain it; the
    per-sample loop fails 4 too."""
    rng = rng_for(9)
    theta = rng.uniform(-2, 2, size=(3, 3))
    twist = twist_from_phases(theta - theta.T, fibre_dim=2)
    frame = random_symmetric_frame(3, 2, rng)
    frame[0, 1] *= 2
    E = FellBundleModel(fibre_dims=(2, 2, 2), frame=frame, twist=twist)

    def top(m):
        u, _, vh = np.linalg.svd(m)
        return u[:, 0], vh[0].conj()  # unit vectors with m·v = ‖m‖·u

    best, attained = 0.0, 0.0
    for x, y, z in np.ndindex(3, 3, 3):
        w, ug, tail = twist.values[x, y, z], frame[x, y], frame[y, z] @ frame[x, z].conj().T
        bound = operator_norm(w) * operator_norm(ug) * operator_norm(tail)
        if bound > best:
            # a = p q*, b = r s*: ‖a·b‖ = ‖ω p‖·|q* u_g r|·‖s* tail‖
            p = top(w)[1]
            q = top(ug)[0]
            r = top(ug)[1]
            s = top(tail.conj().T)[1]
            _, ab = E.multiply((x, y), np.outer(p, q.conj()), (y, z), np.outer(r, s.conj()))
            best, attained = bound, operator_norm(ab)
    report = check_fell_axioms(E)
    assert report.residuals[3] == pytest.approx(best - 1.0, abs=1e-12)
    assert attained == pytest.approx(best, abs=1e-12)
    assert best > 3.9
    passed, _ = per_sample_fell_axioms(E, rng=rng_for(0))
    assert 4 in failed(passed) and 4 in report.failed_axioms()


def test_negative_unit_twist_fails_positivity_only_of_the_norm_axioms():
    """ω(g*,g) = −1 at g = (0,1) makes a*a = −a^H a: the C*-identity holds
    and positivity fails, for the suite and the exhaustive loop alike."""
    E = FellBundleModel(fibre_dims=(1, 1), frame=identity_frame(2, 1),
                        twist=unchecked_cocycle(2, 1, {((1, 0), (0, 1)): -1}))
    report = check_fell_axioms(E)
    passed, _ = per_sample_fell_axioms(E, exhaustive=True)
    for got in (set(report.failed_axioms()), failed(passed)):
        assert 10 in got and 9 not in got
    assert report.residuals[9] == pytest.approx(2.0)


EXPECTATION_KEYS = ("fixes_range", "bimodule", "positive", "idempotent",
                    "contractive", "faithful")


def expectation_failures(report):
    return {k for k in EXPECTATION_KEYS if not report[k][0]}


def sampled_failures(P, count, seed):
    return expectation_failures(per_sample_verify(P, count, rng=rng_for(seed)))


@pytest.mark.parametrize("count", (0,) + SAMPLE_COUNTS)
@pytest.mark.parametrize("dims", [(2, 1, 3), (3, 1, 4, 2), (2, 2, 2), (1,)])
def test_expectation_verify_matches_per_sample_loop(dims, count):
    """Every property the sampled loop fails on `count` draws, the probe on
    the matrix units fails too; for a block compression that is none."""
    P = restriction_expectation(build_imprimitivity_bundle(dims))
    report = probe_expectation(P)
    assert sampled_failures(P, count, count) <= expectation_failures(report) == set()
    assert report["faithful"] == (True, 1.0)
    assert {type(v) for k in EXPECTATION_KEYS for v in report[k]} == {bool, float}


PROBED_DIMS = [(1,), (2, 1, 3), (2, 2, 2), (3, 3),
               *itertools.permutations((1, 2, 3, 4)),
               (8,) * 6, (1,) * 24, tuple(range(1, 10))]


@pytest.mark.parametrize("eps", [1e-9, 0.5])
@pytest.mark.parametrize("dims", PROBED_DIMS, ids=str)
def test_expectation_verify_equals_the_probe(dims, eps):
    """The residuals read off the block mask are the probe's on the N²
    unit images, field for field and bit for bit: the Choi spectrum is one
    eigvalsh of the same complex N×N array, and every other residual is an
    exact zero, or 1.0 for faithful."""
    P = ConditionalExpectation(make_algebra(dims))
    got, want = P.verify(eps), probe_expectation(P, eps)
    assert got.keys() == want.keys() and got["uniqueness"] == want["uniqueness"]
    for key in EXPECTATION_KEYS:
        assert got[key][0] == want[key][0], key
        bits = np.array([got[key][1], want[key][1]]).view(np.int64)
        assert bits[0] == bits[1], (key, got[key][1], want[key][1])
    assert isinstance(got["positive"][1], float)


def test_expectation_verify_never_compresses(monkeypatch):
    """verify reads the block mask and applies P to no matrix."""
    def refuse(*args, **kwargs):
        raise AssertionError("verify applied the compression")

    monkeypatch.setattr(FiniteCStarAlgebra, "compress", refuse)
    for dims in [(2, 1, 3), (8,) * 6]:
        assert not expectation_failures(ConditionalExpectation(make_algebra(dims)).verify())


@dataclass(frozen=True)
class DefectiveExpectation(ConditionalExpectation):
    """A map in place of the block compression, for negative controls of the
    probe (``verify`` decides the compression alone)."""

    defect: Callable = None

    def __call__(self, b):
        return self.defect(self.range_algebra, b)


MIXER = haar_unitary(6, rng_for(11))  # mixes every block of (2, 1, 3)
EXPECTATION_DEFECTS = {
    "doubled": (lambda A, b: 2 * A.compress(b),
                {"fixes_range", "idempotent", "contractive"}),
    "negated": (lambda A, b: -A.compress(b),
                {"fixes_range", "idempotent", "positive"}),
    "vanishing": (lambda A, b: 1e-12 * A.compress(b), {"fixes_range", "faithful"}),
    # an expectation onto MIXER·A·MIXER*, not onto A
    "block-mixed": (lambda A, b: MIXER @ A.compress(MIXER.conj().T @ b @ MIXER)
                    @ MIXER.conj().T, {"fixes_range", "bimodule"}),
}
# maps the sampled loop passes on properties the decided contract fails
ADVERSARIAL_MAPS = {
    # positive, but its Choi matrix is the swap on each block: not completely
    # positive, so contractive and faithful fail closed
    "transposed": (lambda A, b: A.compress(b.swapaxes(-1, -2)),
                   {"fixes_range", "bimodule", "idempotent", "positive",
                    "contractive", "faithful"}),
    # a contraction, and faithful, but neither P nor −P is completely positive
    "rotated": (lambda A, b: 1j * A.compress(b),
                {"fixes_range", "idempotent", "positive", "contractive",
                 "faithful"}),
}


@pytest.mark.parametrize("name", EXPECTATION_DEFECTS)
def test_expectation_verify_rejects_defective_maps(name):
    """The probe fails the controls exactly where the sampled verify failed
    them, and contains every failure of the sampled loop."""
    defect, failing = EXPECTATION_DEFECTS[name]
    P = DefectiveExpectation(make_algebra([2, 1, 3]), defect)
    report = probe_expectation(P)
    assert expectation_failures(report) == failing
    for seed in range(3):
        assert sampled_failures(P, 200, seed) <= failing, seed


@pytest.mark.parametrize("name", ADVERSARIAL_MAPS)
def test_expectation_verify_decides_complete_positivity(name):
    defect, failing = ADVERSARIAL_MAPS[name]
    P = DefectiveExpectation(make_algebra([2, 1, 3]), defect)
    report = probe_expectation(P)
    assert expectation_failures(report) == failing
    assert sampled_failures(P, 200, 0) < failing
    # failed closed: no verdict rests on Russo–Dye or P*(1), and the
    # residuals stay finite for JSON
    assert report["contractive"][1] == report["positive"][1] >= 1.0
    assert report["faithful"] == (False, 0.0)


def test_expectation_verify_draws_nothing_and_calls_no_svd(monkeypatch):
    """‖C − C*‖ is the norm of an exact zero matrix, so the norm kernel skips
    LAPACK; the Choi spectrum comes from eigvalsh, and no random numbers are
    drawn."""
    want = {dims: ConditionalExpectation(make_algebra(dims)).verify()
            for dims in [(2, 1, 3), (8,) * 6, (1,) * 24]}

    def refuse(*args, **kwargs):
        raise AssertionError("verify called an SVD or drew a random number")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "standard_normal", refuse)
    for dims, report in want.items():
        assert ConditionalExpectation(make_algebra(dims)).verify() == report


def test_sampled_suites_hold_bounded_stacks():
    """verify holds a few N×N arrays of the block mask (9 kB each at
    N = 24).  The axiom suite on imprimitivity (1,2,3,4) holds only its
    (n, n) and (n, n, n) masks (2 kB)."""
    E = build_imprimitivity_bundle((1, 2, 3, 4))

    def both_suites():
        check_fell_axioms(E)
        restriction_expectation(E).verify()

    def single_block():
        ConditionalExpectation(make_algebra([24])).verify()

    assert traced_peak_bytes(both_suites) < 1.2e6
    assert traced_peak_bytes(single_block) < 1.2e6


@pytest.mark.parametrize("dims", [(8,) * 6, (1,) * 48])
def test_expectation_verify_peak_at_n_48(dims):
    """verify forms no unit image, only N×N arrays of the block mask (the
    probe passes 2304 images of 2304 entries through P seven at a time)."""
    P = ConditionalExpectation(make_algebra(dims))
    assert traced_peak_bytes(P.verify) <= 4.1e6


@pytest.mark.parametrize("dims", [(8,) * 6, (1,) * 48])
def test_expectation_verify_peaks_under_0_2_mb(dims):
    """At N = 48 verify peaks at about 0.15 MB, a few complex 48×48 arrays;
    the unit images peaked at about 1.0 MB."""
    P = ConditionalExpectation(make_algebra(dims))
    assert traced_peak_bytes(P.verify) < 2e5
