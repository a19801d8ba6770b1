import itertools
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import fellkit.fellbundle
import fellkit.linalg
from fellkit.algebra import FiniteCStarAlgebra, make_algebra
from fellkit.cli import PRESETS, build_preset
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
    choi_spectrum,
    composable_triples,
    probe_expectation,
    random_fibre_element,
    random_matrix,
    rank_saturated,
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
    ones replaced, or None for a valid frame.  It names the arrow (x, y) as
    a model file keys it, 1-indexed: "(x+1,y+1)"."""
    G = PairGroupoid(n)
    for x, y in G.arrows():
        u = frame[x, y]
        if u.shape != (dim, dim) or not is_unitary(u, eps):
            return f"frame entry at ({x + 1},{y + 1}) is not a {dim}×{dim} unitary"
    eye = np.eye(dim)
    for x in range(n):
        if operator_norm(frame[(x, x)] - eye) > eps:
            return f"frame unit at ({x + 1},{x + 1}) is not the identity"
    for x, y in G.arrows():
        if operator_norm(frame[y, x] - frame[x, y].conj().T) > eps:
            return f"frame violates u_(y,x) = u_(x,y)* at ({x + 1},{y + 1})"
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


def preset_models():
    """Every preset at its default size, with flow 8×1 and imprimitivity
    3,1,4,2 besides."""
    def preset(name, **sizes):
        args = SimpleNamespace(**{"n": 4, "dims": "2,1,3", "points": 4, "dim": 2,
                                  "seed": 0, **sizes})
        return build_preset(name, args, 1e-9)[0]

    for name in PRESETS:
        yield name, preset(name)
    yield "flow 8x1", preset("flow", points=8, dim=1)
    yield "imprimitivity 3,1,4,2", preset("imprimitivity", dims="3,1,4,2")


SATURATION_MODELS = {**{name: E for name, (E, _) in SATURATION_CASES.items()},
                     **dict(preset_models())}


@pytest.mark.parametrize("eps", [-1.0, 0.0, 1e-16, 1e-9, 0.5, 1.0, 2.0, math.nan])
@pytest.mark.parametrize("name", SATURATION_MODELS)
def test_is_saturated_is_the_rank_oracle(name, eps):
    """The n² rule equals the n³ rank form (``rank_saturated``) at every eps,
    and the span loop where it reads the same rule: a plain product spans by
    its block structure at any eps, which the loop, a rank count, misses
    once eps ≥ 1 or is NaN."""
    E = SATURATION_MODELS[name]
    assert is_saturated(E, eps) == rank_saturated(E, eps)
    if E.coefficient_form or eps < 1:
        assert is_saturated(E, eps) == span_loop_saturated(E, eps)


@pytest.mark.parametrize("kind", ["flow", "semidirect"])
@pytest.mark.parametrize("n, d", [(4, 2), (6, 3), (24, 1), (12, 4)])
def test_is_saturated_across_the_rank_threshold(kind, n, d):
    """One frame entry's smallest singular value set to t·√eps·σ_1, t within
    5 % of 1, eps from 1e-14 to 1e-2: r² = t²·eps, and the n² rule equals
    the n³ rank form unless r² lies within d·2⁻⁵³ of eps, where rounding of
    the product uu* decides the oracle's rank: it moves σ_d(uu*) by about
    d·2⁻⁵³·σ_1(u)² (at most 0.4 of that in 4,800 draws with |t − 1| ≤ 1e-2).
    At d = 1, r = 1 and the entry is only rescaled.  Both verdicts occur."""
    rng = rng_for(37 + n)
    verdicts, parted = set(), []
    for _ in range(40):
        frame = (flow_frame(n, d, rng)[0] if kind == "flow"
                 else random_symmetric_frame(n, d, rng))
        eps = 10.0 ** rng.uniform(-14, -2)
        g = tuple(rng.integers(n, size=2))
        left, sv, right = np.linalg.svd(frame[g])
        sv[-1] = rng.uniform(0.95, 1.05) * math.sqrt(eps) * sv[0]
        frame[g] = (left * sv) @ right
        E = FellBundleModel(fibre_dims=(d,) * n, frame=frame)
        got = is_saturated(E, eps)
        verdicts.add(got)
        if got != rank_saturated(E, eps):
            v = E.audit.values[g]
            parted.append(abs((v[-1] / v[0]) ** 2 - eps))
    assert all(gap <= d * 2.0 ** -53 for gap in parted), parted
    assert verdicts == ({True} if d == 1 else {True, False})


def test_is_saturated_calls_no_linalg(monkeypatch):
    """With its audit computed, the rule reads the n² singular values: on
    flow 48×2 it calls no ``np.linalg`` routine."""
    frame, _ = flow_frame(48, 2, rng_for(3))
    E = build_semidirect_bundle(CStarBundle((2,) * 48), frame=frame)
    E.audit.values

    def refuse(*args, **kwargs):
        raise AssertionError("is_saturated called np.linalg")

    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not name[0].isupper():
            monkeypatch.setattr(np.linalg, name, refuse)
    assert is_saturated(E)


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
    """Oracle: the ten axioms on random fibre elements; (passed, residuals)
    per rng.  A sample is a composable pair and a composable triple, drawn
    from its rng; with exhaustive=True the samples are instead every triple
    (t1, t2, t3) with the pair (t1, t2), so every pair and every triple is
    visited.  Each rng draws a sample's pair, triple, elements e1, e2, f1,
    f2, f3, scalars λ, μ and elements e1', e2' in that order.  Every element
    is zero-padded to m × m, m the widest fibre side, which moves no norm
    and no product out of its corner; the products and involutions of every
    sample of every rng are formed stacked, by the model's product and
    involution on index arrays, and normed in one stacked SVD.  A product or
    an involution must land in its fibre, which holds only 0 if the fibre is
    zero (its shape is the fibre's by construction)."""
    n = E.n_points
    triples = composable_triples(E.groupoid)
    pairs = E.groupoid.composable_pairs()
    m = max(max(E.fibre_shape((x, y))) for x in range(n) for y in range(n))
    zero = np.array([[(x, y) in E.zero_fibres for y in range(n)] for x in range(n)])

    def padded(g, rng):
        e = random_fibre_element(E, g, rng)
        out = np.zeros((m, m), dtype=complex)
        out[:e.shape[0], :e.shape[1]] = e
        return out

    points, elements, scalars = [], [], []
    for rng in rngs:
        for s in range(len(triples) if exhaustive else sample_count):
            if exhaustive:
                t = triples[s]
                g, h = t[:2]
            else:
                g, h = pairs[rng.integers(len(pairs))]
                t = triples[rng.integers(len(triples))]
            points.append((*g, h[1], *t[0], t[1][1], t[2][1]))
            elements.append([padded(q, rng) for q in (g, h, *t)])
            scalars.append([random_matrix((1, 1), rng)[0, 0] for _ in range(2)])
            elements[-1] += [padded(g, rng), padded(h, rng)]
    x, y, z, a, b, c, w = np.array(points).T
    e1, e2, f1, f2, f3, e1b, e2b = np.array(elements).transpose(1, 0, 2, 3)
    lam, mu = np.array(scalars).T[..., None, None]
    P, I = E._product, E._involution

    prod = P(x, y, z, e1, e2)
    e1s = I(x, y, e1)
    ee = P(y, x, y, e1s, e1)
    a12, a23 = P(a, b, c, f1, f2), P(b, c, w, f2, f3)
    mats = [  # the matrices whose operator norms the residuals read
        prod, e1, e2, e1s, ee,
        P(x, y, z, lam * e1 + mu * e1b, e2) - (lam * prod + mu * P(x, y, z, e1b, e2)),
        P(x, y, z, e1, lam * e2 + mu * e2b) - (lam * prod + mu * P(x, y, z, e1, e2b)),
        P(a, c, w, a12, f3) - P(a, b, w, f1, a23),
        I(x, y, lam * e1 + mu * e1b) - (lam.conj() * e1s + mu.conj() * I(x, y, e1b)),
        I(y, x, e1s) - e1,
        I(x, z, prod) - P(z, y, x, I(y, z, e2), e1s),
        ee - ee.conj().swapaxes(-1, -2),
    ]
    v = operator_norms(np.concatenate(mats)).reshape(len(mats), len(rngs), -1)
    n_prod, n1, n2, n_e1s, n_ee, left, right, assoc, conj_lin, back, anti, skew = v
    # the padding adds zero eigenvalues, which the max with 0.0 below absorbs
    min_eig = np.linalg.eigvalsh((ee + ee.conj().swapaxes(-1, -2)) / 2).min(axis=-1)
    shape = n1.shape  # (rng, sample)
    residuals = [
        np.where(zero[x, z].reshape(shape) & (n_prod > eps), 1.0, 0.0),
        np.maximum(left, right),
        assoc,
        np.maximum(0.0, n_prod - n1 * n2),
        np.where(zero[y, x].reshape(shape) & (n_e1s > eps), 1.0, 0.0),
        conj_lin,
        back,
        anti,
        np.abs(n_ee - n1 * n1) / (1.0 + n1 * n1),
        np.maximum(np.maximum(skew, -min_eig.reshape(shape)), 0.0) / (1.0 + n1 * n1),
    ]
    res = np.max(residuals, axis=-1, initial=0.0).T  # (rng, axiom)
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
    takes three calls (axiom 7's Kronecker forms, axiom 10's W·P·R − I and
    axiom 4's u_(y,z) u_(x,z)*), and a twist adds one per first point of the
    cocycle identity's triples and four more: its values off their scalars,
    its mirror defects, ω((y,x),(x,y))'s unitarity and its moduli."""
    kernel = fellkit.linalg._largest_singular_values
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(fellkit.linalg, "_largest_singular_values", counted)
    for name, E in EXHAUSTIVE_MODELS.items():
        if E.audit is not None:
            E.audit.unitarity, E.audit.defects, E.audit.values
        calls.clear()
        check_fell_axioms(E)
        want = (0 if not E.coefficient_form else 3 if E.twist is None
                else E.n_points + 7)
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


def choi_bound(n):
    """How far eigvalsh may move the Choi spectrum of a block mask at ambient
    dim n: 2·n·2⁻⁵³.  On PROBED_DIMS the worst is 0.84·n·2⁻⁵³, at (2, 1, 3)
    and (3, 3), on the probe's positive residual and on every eigenvalue
    alike (numpy 2.4.6)."""
    return 2 * n * 2.0**-53


@pytest.mark.parametrize("eps", [1e-9, 0.5])
@pytest.mark.parametrize("dims", PROBED_DIMS, ids=str)
def test_expectation_verify_equals_the_probe(dims, eps):
    """The verdicts read off the block dims are the probe's on the N² unit
    images, and every residual but positive is too, bit for bit: an exact
    zero, or 1.0 for faithful.  verify's positive residual is an exact 0.0,
    from the closed-form Choi spectrum; the probe's is eigvalsh's rounding
    of the same complex N×N array, within choi_bound."""
    P = ConditionalExpectation(make_algebra(dims))
    got, want = P.verify(eps), probe_expectation(P, eps)
    assert got.keys() == want.keys() and got["uniqueness"] == want["uniqueness"]
    for key in EXPECTATION_KEYS:
        assert got[key][0] == want[key][0], key
        if key != "positive":
            bits = np.array([got[key][1], want[key][1]]).view(np.int64)
            assert bits[0] == bits[1], (key, got[key][1], want[key][1])
    assert np.array(got["positive"][1]).view(np.int64) == 0  # 0.0, not −0.0
    assert isinstance(got["positive"][1], float)
    assert 0.0 <= want["positive"][1] <= choi_bound(sum(dims))


@pytest.mark.parametrize("dims", PROBED_DIMS, ids=str)
def test_choi_spectrum_is_eigvalsh_of_the_block_mask(dims):
    """The closed-form spectrum (the block dims, then N − k zeros, and one
    0.0 for C's zero rows) equals the sorted eigvalsh of the complex block
    mask, with that 0.0 appended, within choi_bound."""
    m = make_algebra(dims)._block_mask.astype(complex)
    want = np.append(np.linalg.eigvalsh(m), [0.0] * (len(m) > 1))
    got = choi_spectrum(dims)
    assert got.dtype == float and got.shape == want.shape
    assert np.abs(np.sort(got) - np.sort(want)).max() <= choi_bound(len(m))


# At an eps below eigvalsh's rounding, the probe's positive residual fails
# the exact property, and contractive and faithful fail closed with it:
# verify passes all three.  At the default eps every verdict is the probe's.
# (The probe on 1..13, N = 91, takes about a second, so it runs at one eps.)
BELOW_ROUNDING = [*((dims, eps) for dims in [(2, 1, 3), (3, 1, 4, 2)]
                    for eps in (1e-16, 2.0**-53)),
                  (tuple(range(1, 14)), 1e-16)]


@pytest.mark.parametrize("dims,eps", BELOW_ROUNDING, ids=str)
def test_verdicts_below_eigvalsh_rounding_are_the_exact_ones(dims, eps):
    P = ConditionalExpectation(make_algebra(dims))
    assert expectation_failures(P.verify(eps)) == set()
    assert expectation_failures(probe_expectation(P, eps)) == {
        "positive", "contractive", "faithful"}


def test_expectation_verify_never_compresses(monkeypatch):
    """verify reads the block dims and applies P to no matrix."""
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
    """verify is the closed form of the block dims: it norms no matrix, runs
    no eigensolver and draws no random number."""
    want = {dims: ConditionalExpectation(make_algebra(dims)).verify()
            for dims in [(2, 1, 3), (8,) * 6, (1,) * 24]}

    def refuse(*args, **kwargs):
        raise AssertionError("verify called LAPACK or drew a random number")

    for name in ("svd", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "standard_normal", refuse)
    for dims, report in want.items():
        assert ConditionalExpectation(make_algebra(dims)).verify() == report


def test_sampled_suites_hold_bounded_stacks():
    """verify is the closed form of the block dims, and the axiom suite on a
    bundle with no zero fibre and no frame forms no mask: each holds only
    its report, about 1.1 kB (a complex 24×24 block mask was 9 kB, the
    (n, n, n) mask of (1,2,3,4) 64 bytes)."""
    E = build_imprimitivity_bundle((1, 2, 3, 4))

    def both_suites():
        check_fell_axioms(E)
        restriction_expectation(E).verify()

    def single_block():
        ConditionalExpectation(make_algebra([24])).verify()

    assert traced_peak_bytes(both_suites) < 2e3
    assert traced_peak_bytes(single_block) < 2e3


@pytest.mark.parametrize("dims", [(8,) * 6, (1,) * 48])
def test_expectation_verify_peak_at_n_48(dims):
    """verify forms no unit image and no N×N array: its peak is below the
    2,304 bytes of one boolean 48×48 mask (the probe passes 2304 images of
    2304 entries through P seven at a time)."""
    P = ConditionalExpectation(make_algebra(dims))
    assert traced_peak_bytes(P.verify) < 48 * 48


@pytest.mark.parametrize("dims", [(8,) * 6, (1,) * 48])
def test_expectation_verify_peaks_under_0_2_mb(dims):
    """At N = 48 verify peaks at about 0.5 kB, its report's dict and tuples,
    whatever the block dims; the block mask's complex 48×48 arrays peaked at
    about 0.15 MB, and the unit images at about 1.0 MB."""
    P = ConditionalExpectation(make_algebra(dims))
    assert traced_peak_bytes(P.verify) < 1e3


def test_axioms_form_the_zero_fibre_mask_at_most_once(monkeypatch):
    """Coefficient form with a zero fibre forms its (n, n) mask once, for
    axioms 1 and 5 and for the live fibres of the rest; with none, no mask."""
    calls = []
    real = fellkit.fellbundle._zero_fibre_mask
    monkeypatch.setattr(fellkit.fellbundle, "_zero_fibre_mask",
                        lambda E: calls.append(E) or real(E))
    zeroed = FellBundleModel((2, 2, 2), frame=identity_frame(3, 2),
                             zero_fibres=frozenset({(1, 2)}))
    assert check_fell_axioms(zeroed).failed_axioms() == [1, 5]
    assert calls == [zeroed]
    calls.clear()
    for E in (FellBundleModel((2, 2, 2), frame=identity_frame(3, 2)),
              build_imprimitivity_bundle((2, 1, 3))):
        assert check_fell_axioms(E).all_passed
    assert calls == []


def test_axioms_without_zero_fibres_form_no_mask():
    """With no zero fibre, nothing lands in one, so axioms 1 and 5 hold and
    the suite forms no zero-fibre mask: on imprimitivity (1,)*96 it peaks
    at about 1 kB, below one (n, n) boolean mask, where its (n, n, n)
    product mask alone was 0.9 MB.  A zero fibre still fails 1 and 5."""
    n = 96
    E = build_imprimitivity_bundle((1,) * n)
    assert traced_peak_bytes(lambda: check_fell_axioms(E)) < n * n
    assert check_fell_axioms(E).all_passed
    zeroed = FellBundleModel((1,) * n, zero_fibres=frozenset({(0, n - 1)}))
    report = check_fell_axioms(zeroed)
    assert report.failed_axioms() == [1, 5]
    assert report.residuals[0] == report.residuals[4] == 1.0
