import numpy as np
import pytest

from fellkit.algebra import make_algebra
from fellkit.dynamics import (
    CovarianceError,
    SpatialAutomorphism,
    a_dynamical_generation_check,
    check_unitary_normalizer_theorem,
    compose_automorphisms,
    covariance_group,
    covariance_group_from_frame,
    make_spatial_automorphism,
    random_spatial_automorphism,
    slice_from_bisection,
)
from fellkit.fellbundle import (
    CStarBundle,
    build_semidirect_bundle,
    diagonal_algebra,
    enveloping_algebra,
)
from fellkit.groupoid import Bisection, cycle_bisection, identity_bisection
from fellkit.linalg import (
    is_unitary,
    operator_norm,
    orthonormal_span_basis,
    random_matrix,
)
from fellkit.presets import flow_frame, random_symmetric_frame
from fellkit.subalgebra import (
    _columns_meet_one_block,
    is_normalizer,
    normalizer_support,
    slice_check,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def test_assembled_unitary_and_covariance_support():
    rng = rng_for(0)
    f0 = Bisection((1, 2, 0))
    s = random_spatial_automorphism(f0, (2, 2, 2), rng)
    U = s.U
    assert is_unitary(U)
    A = make_algebra([2, 2, 2])
    assert set(normalizer_support(U, A).pairs) == f0.graph()
    assert is_normalizer(U, A)


def test_dimension_obstruction():
    swap = Bisection((1, 0))
    with pytest.raises(CovarianceError):
        make_spatial_automorphism(
            swap, [np.eye(1), np.eye(2)], (2, 1)
        )
    with pytest.raises(CovarianceError):
        make_spatial_automorphism(
            cycle_bisection(2), [np.eye(2), 2 * np.eye(2)], (2, 2)
        )
    # the identity base map is fine over varying dims
    make_spatial_automorphism(
        identity_bisection(3), [np.eye(n) for n in (2, 1, 3)], (2, 1, 3)
    )


def test_composition_matches_matrix_product():
    rng = rng_for(1)
    dims = (2, 2, 2, 2)
    s = random_spatial_automorphism(Bisection((1, 2, 3, 0)), dims, rng)
    t = random_spatial_automorphism(Bisection((2, 0, 3, 1)), dims, rng)
    st = compose_automorphisms(s, t)
    assert np.allclose(st.U, s.U @ t.U, atol=1e-12)


def test_covariance_group_is_cyclic():
    rng = rng_for(2)
    sigma = random_spatial_automorphism(cycle_bisection(3), (1, 1, 1), rng)
    Gs = covariance_group(sigma)
    assert Gs.flow.order == 3
    assert len(Gs.elements) == 3
    for m, element in enumerate(Gs.elements, start=1):
        assert np.allclose(element.U, np.linalg.matrix_power(sigma.U, m))
    # the last element covers the identity bisection
    assert Gs.elements[-1].f0.is_identity()


def test_covariance_group_from_frame_round_trip():
    frame, g = flow_frame(4, 2, rng_for(3))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    for x in range(4):
        assert np.allclose(Gs.sigma.fibre_maps[x], frame[(g(x), x)])
    # trivial holonomy by construction: the n-th power is the identity
    assert operator_norm(Gs.elements[-1].U - np.eye(8)) < 1e-9


def test_frame_cocycle_relation():
    """u_g u_h = ω(g,h) u_{gh} for the orbit frame of a single generator."""
    from fellkit.embedding import phi_from_covariance_group, read_off_pair
    from fellkit.groupoid import PairGroupoid

    frame, g = flow_frame(4, 1, rng_for(4))
    E = build_semidirect_bundle(CStarBundle((1,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    readoff = read_off_pair(phi_from_covariance_group(Gs))
    omega = readoff.omega
    assignment = readoff.assignment
    G = PairGroupoid(4)
    worst = 0.0
    for a, b in G.composable_pairs():
        ab = G.compose(a, b)
        lhs = assignment[a] @ assignment[b]
        rhs = omega.value(a, b) @ assignment[ab]
        worst = max(worst, operator_norm(lhs - rhs))
    assert worst < 1e-9
    from fellkit.cocycle import cocycle_identity_residual

    assert cocycle_identity_residual(omega) < 1e-12


def test_unitary_normalizer_theorem_sample_scale():
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    result = check_unitary_normalizer_theorem(E, samples=100, rng=rng_for(0))
    assert result["pass"]
    assert result["forward_pass"] == 100
    assert result["converse_pass"] == 100
    # dim-2 fibres as well
    frame = random_symmetric_frame(3, 2, rng_for(5))
    E2 = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame)
    result2 = check_unitary_normalizer_theorem(E2, samples=50, rng=rng_for(1))
    assert result2["pass"]


def test_generation_needs_minimal_flow():
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    A = diagonal_algebra(E)
    B = enveloping_algebra(E)
    assert a_dynamical_generation_check(
        covariance_group_from_frame(cycle_bisection(4), E), A, B
    )
    assert not a_dynamical_generation_check(
        covariance_group_from_frame(identity_bisection(4), E), A, B
    )
    assert not a_dynamical_generation_check(
        covariance_group_from_frame(Bisection((1, 0, 2, 3)), E), A, B
    )


def test_generation_with_nonscalar_fibres():
    frame, g = flow_frame(3, 2, rng_for(6))
    E = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    assert a_dynamical_generation_check(
        Gs, diagonal_algebra(E), enveloping_algebra(E)
    )


def span_closure_generates(Gs, A, eps=1e-9):
    """The definition: close span(A) under s ↦ s·σ·a over a in basis(A) and
    test whether the span is all of M_N.  Brute-force oracle for
    a_dynamical_generation_check."""
    sigma = Gs.sigma.U
    a_basis = A.basis()
    span = orthonormal_span_basis(a_basis, eps)
    while True:
        grown = orthonormal_span_basis(
            span + [s @ sigma @ a for s in span for a in a_basis], eps
        )
        if len(grown) == len(span):
            return len(span) == A.ambient_dim ** 2
        span = grown


def with_fibre_map(Gs, x, w):
    """Gs with σ's fibre map at x replaced by w, bypassing validation."""
    maps = list(Gs.sigma.fibre_maps)
    maps[x] = np.asarray(w, dtype=complex)
    return covariance_group(
        SpatialAutomorphism(Gs.sigma.f0, tuple(maps), Gs.fibre_dims)
    )


def generation_cases():
    """(covariance group, bundle, expected verdict), one pytest.param each."""
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    for label, g, expected in [
        ("cycle", cycle_bisection(4), True),
        ("identity", identity_bisection(4), False),
        ("transposition", Bisection((1, 0, 2, 3)), False),
        ("double transposition", Bisection((1, 0, 3, 2)), False),
    ]:
        yield pytest.param(covariance_group_from_frame(g, E), E, expected, id=label)
    for seed, (n, dim) in enumerate([(3, 2), (4, 2), (8, 1)]):
        frame, g = flow_frame(n, dim, rng_for(seed))
        F = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        Gs = covariance_group_from_frame(g, F)
        yield pytest.param(Gs, F, True, id=f"flow {n}x{dim}")
    for seed, (n, dim) in enumerate([(3, 2), (4, 1), (2, 3)], start=20):
        frame = random_symmetric_frame(n, dim, rng_for(seed))
        F = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        Gs = covariance_group_from_frame(cycle_bisection(n), F)
        yield pytest.param(Gs, F, True, id=f"symmetric {n}x{dim}")
    frame, g = flow_frame(4, 2, rng_for(30))
    F = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, F)
    # a vanishing fibre map cuts the orbit: some block pair is never reached
    yield pytest.param(with_fibre_map(Gs, 2, np.zeros((2, 2))), F, False,
                       id="zero fibre map")
    # a nonzero but rank-deficient block still fills its whole block pair
    yield pytest.param(with_fibre_map(Gs, 1, np.diag([1.0, 0.0])), F, True,
                       id="rank-deficient block")


@pytest.mark.parametrize("Gs, E, expected", list(generation_cases()))
def test_generation_matches_span_closure(Gs, E, expected):
    A, B = diagonal_algebra(E), enveloping_algebra(E)
    verdict = a_dynamical_generation_check(Gs, A, B)
    assert verdict == span_closure_generates(Gs, A) == expected


def basis_loop_endomorphism(v, A, eps=1e-9):
    """The definition: vav* lies in A for every matrix unit a of A."""
    return all(A.contains(v @ a @ v.conj().T, eps) for a in A.basis())


@pytest.mark.parametrize("dims", [(1, 2, 3), (2, 2, 2)])
def test_endomorphism_into_A_matches_basis_loop(dims):
    """The column half of the normalizer rule decides vAv* ⊆ A.  Random
    block-sparse v whose blocks have scale 1, 1e-6 or 1e-12, so a block
    column's two largest norms multiply far above or far below eps."""
    rng = rng_for(17)
    A = make_algebra(dims)
    n = len(dims)
    verdicts = set()
    for _ in range(80):
        v = np.zeros((A.ambient_dim, A.ambient_dim), dtype=complex)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    scale = rng.choice([1.0, 1e-6, 1e-12])
                    block = random_matrix((dims[i], dims[j]), rng)
                    v += scale * A.embed_block(i, j, block)
        endo = _columns_meet_one_block(A.block_norms(v), 1e-9)
        assert endo == basis_loop_endomorphism(v, A)
        verdicts.add(endo)
    assert verdicts == {True, False}


def test_slice_from_self_adjoint_bisection():
    A = make_algebra([1, 1, 1, 1])
    swap = Bisection((1, 0, 3, 2))
    s = make_spatial_automorphism(
        swap, [np.eye(1)] * 4, (1, 1, 1, 1)
    )
    M = slice_from_bisection(s)
    report = slice_check(M, A)
    assert report["bimodule"] and report["hilbert"]
    with pytest.raises(ValueError):
        slice_from_bisection(
            make_spatial_automorphism(
                cycle_bisection(4), [np.eye(1)] * 4, (1, 1, 1, 1)
            )
        )

