import numpy as np
import pytest

import fellkit.linalg
from fellkit.algebra import FiniteCStarAlgebra
from fellkit.cocycle import Cocycle2, twist_from_phases
from fellkit.fellbundle import (
    CStarBundle,
    ConditionalExpectation,
    FellBundleModel,
    FrameError,
    LocalTrivialityError,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
    check_fell_axioms,
    diagonal_algebra,
    enveloping_algebra,
    identity_frame,
    is_saturated,
    restriction_expectation,
)
from fellkit.linalg import operator_norm, span_dimension
from fellkit.presets import random_symmetric_frame


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
    report = check_fell_axioms(E, sample_count=200, rng=rng_for(0))
    assert report.all_passed
    assert max(report.residuals) < 1e-9


def test_semidirect_identity_frame_axioms():
    E = build_semidirect_bundle(CStarBundle((2, 2, 2)))
    report = check_fell_axioms(E, sample_count=200, rng=rng_for(0))
    assert report.all_passed


def test_semidirect_random_frame_axioms():
    frame = random_symmetric_frame(4, 2, rng_for(7))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    report = check_fell_axioms(E, sample_count=200, rng=rng_for(1))
    assert report.all_passed
    assert max(report.residuals) < 1e-9


def test_semidirect_twisted_axioms():
    rng = rng_for(9)
    theta = rng.uniform(-2, 2, size=(3, 3))
    twist = twist_from_phases(theta - theta.T, fibre_dim=2)
    frame = random_symmetric_frame(3, 2, rng)
    E = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame, twist=twist)
    report = check_fell_axioms(E, sample_count=200, rng=rng_for(2))
    assert report.all_passed


def test_builder_rejections():
    with pytest.raises(LocalTrivialityError):
        build_semidirect_bundle(CStarBundle((2, 1)))
    frame = identity_frame(2, 2)
    del frame[(0, 1)]
    with pytest.raises(FrameError):
        build_semidirect_bundle(CStarBundle((2, 2)), frame=frame)
    frame = identity_frame(2, 2)
    frame[(0, 0)] = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(FrameError):
        build_semidirect_bundle(CStarBundle((2, 2)), frame=frame)
    frame = identity_frame(2, 2)
    frame[(0, 1)] = 2.0 * np.eye(2)
    with pytest.raises(FrameError):
        build_semidirect_bundle(CStarBundle((2, 2)), frame=frame)
    # inadmissible twist: w(g,g*) = -1
    bad = Cocycle2(2, 1, {((0, 1), (1, 0)): -np.eye(1)})
    with pytest.raises(FrameError):
        build_semidirect_bundle(CStarBundle((1, 1)), twist=bad)


def test_negative_control_broken_involution_frame():
    """A frame violating u_(y,x) = u_(x,y)* breaks axiom 8."""
    rng = rng_for(3)
    frame = random_symmetric_frame(3, 2, rng)
    from fellkit.linalg import haar_unitary

    frame[(1, 0)] = haar_unitary(2, rng)  # no longer the adjoint of u_(0,1)
    E = FellBundleModel(fibre_dims=(2, 2, 2), frame=frame)
    report = check_fell_axioms(E, sample_count=200, rng=rng_for(0))
    assert not report.all_passed
    assert 8 in report.failed_axioms()


def test_negative_control_non_cocycle_twist():
    """A twist failing the cocycle identity breaks associativity (axiom 3)."""
    values = {
        ((0, 1), (1, 2)): -np.eye(1),
        ((2, 1), (1, 0)): -np.eye(1),  # keeps the involution relation intact
    }
    twist = Cocycle2(3, 1, values)
    E = FellBundleModel(fibre_dims=(1, 1, 1), frame=identity_frame(3, 1),
                        twist=twist)
    report = check_fell_axioms(E, sample_count=200, rng=rng_for(0))
    assert 3 in report.failed_axioms()
    assert 8 not in report.failed_axioms()


def test_multiply_and_involution_shapes():
    E = build_imprimitivity_bundle((2, 1, 3))
    rng = rng_for(4)
    e1 = E.random_fibre_element((0, 1), rng)
    e2 = E.random_fibre_element((1, 2), rng)
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
    a = E.random_fibre_element((0, 2), rng)
    amb = E.embed((0, 2), a)
    assert np.allclose(E.block(amb, (0, 2)), a)
    # embedding intertwines fibre product and ambient matrix product
    b = E.random_fibre_element((2, 1), rng)
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
    twist = Cocycle2(3, 2, {((0, 1), (1, 2)): value})
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
    "singular-frame-entry": (frame_with((0, 1), np.diag([1.0, 0.0])), False),
    "zero-frame-entry": (frame_with((0, 1), np.zeros((2, 2))), False),
    # the rank rule is relative: a rescaled frame entry still spans
    "tiny-frame-entry": (frame_with((0, 1), 1e-12 * np.eye(2)), True),
    "zero-twist-value": (twist_with(np.zeros((2, 2))), False),
    "singular-twist-value": (twist_with(np.diag([1.0, 0.0])), False),
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
    # span_dimension stacks its family through _stack
    monkeypatch.setattr(fellkit.linalg, "_stack", counted(fellkit.linalg._stack))
    for E, expected in SATURATION_CASES.values():
        assert is_saturated(E) == expected
    assert calls == []
    span_loop_saturated(build_imprimitivity_bundle((2, 1)))
    assert {"multiply", "_stack"} <= set(calls)


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
    report = P.verify(samples=500, rng=rng_for(0))
    for key in ("fixes_range", "bimodule", "positive", "idempotent",
                "contractive", "faithful"):
        ok, residual = report[key]
        assert ok, (key, residual)
    assert report["uniqueness"] == "assumed"
    for key in ("fixes_range", "bimodule", "positive", "idempotent",
                "contractive"):
        assert report[key][1] < 1e-9


def test_expectation_faithfulness_fails_for_lossy_map():
    """Compression onto a *proper* corner is not faithful on the full algebra.

    Probed directly: a matrix supported outside the blocks compresses to 0.
    """
    from fellkit.algebra import make_algebra

    A = make_algebra([1, 1])
    b = np.zeros((2, 2), dtype=complex)
    b[0, 1] = 1.0
    assert operator_norm(A.compress(b.conj().T @ b) - np.diag([0.0, 1.0])) < 1e-12
    # P(b*b) != 0 even for kernel elements: P itself stays faithful
    assert operator_norm(A.compress(b.conj().T @ b)) > 0.5
